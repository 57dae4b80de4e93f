"""The baseline against its exact expectation, which no random stream sets.

`reference.exact_baseline_moments` gives the mean and variance of a baseline
episode's question count over every draw the baseline could make, so these
checks hold whatever stream the baseline draws from, as long as it draws
uniformly.
"""

import math
import statistics

import pytest
from hypothesis import given, settings

from refquest.bench import ENVIRONMENTS, BenchmarkSpec, _split_seed, run_benchmark, world_for
from refquest.dialogue import ModelAgent, run_episode

import reference as ref
from strategies import worlds

# iterations per environment: an exact random-low world takes about 0.4 s
ITERATIONS = {"spacecraft": 20, "random-high": 6, "random-low": 3}


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_baseline_iteration_means_lie_within_four_sds_of_the_exact_means(environment):
    spec = BenchmarkSpec(systems=("baseline",), environment=environment,
                         iterations=ITERATIONS[environment], base_seed=7)
    sampled = run_benchmark(spec).result("baseline").iteration_means
    exact = variance = 0.0
    for it in range(spec.iterations):
        world = world_for(environment, _split_seed(spec.base_seed, it), spec.trials)
        moments = [ref.exact_baseline_moments(world, e.id) for e in world.entities]
        n = len(moments)
        # an iteration mean averages n independent episodes
        exact += sum(mean for mean, _ in moments) / n
        variance += sum(var for _, var in moments) / n**2
    z = (sum(sampled) - exact) / math.sqrt(variance)
    assert abs(z) <= 4, f"z = {z:+.2f}"


@settings(max_examples=100, deadline=None)
@given(worlds(kinds=("tiny",)))
def test_both_model_policies_ask_no_more_than_the_baselines_exact_expectation(w):
    # the paper's claim as a property of every world, not a sampled mean
    baseline = statistics.fmean(ref.exact_baseline_mean(w, e.id) for e in w.entities)
    for policy in ("entropy", "data"):
        model = statistics.fmean(
            run_episode(w, e.id, ModelAgent(policy)).question_count for e in w.entities)
        assert model <= baseline
