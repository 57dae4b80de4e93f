import dataclasses
import hashlib
import itertools
import math
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import refquest.bench
import refquest.dialogue
import refquest.dnet
from refquest.bench import (
    ENVIRONMENTS,
    SYSTEMS,
    BenchmarkSpec,
    SystemResult,
    _split_seed,
    emit_report,
    make_agent,
    run_benchmark,
    world_for,
)
from refquest.dialogue import BaselineAgent, ModelAgent, run_episode
from refquest.worlds import spacecraft_world

from checks import assert_refused, recorded_calls, refusals
from reference import sample_variance


def small_spec(**overrides):
    base = dict(environment="spacecraft", iterations=3, base_seed=11)
    base.update(overrides)
    return BenchmarkSpec(**base)


def test_report_counts_episodes():
    report = run_benchmark(small_spec(systems=("model-entropy",)))
    assert report.total_episodes == 3 * 18  # spacecraft has 18 tools


def test_model_sd_zero_on_fixed_world():
    report = run_benchmark(small_spec(systems=("model-entropy", "model-data")))
    for r in report.results:
        assert r.sd == 0.0


def test_reproducible_structured_report():
    a = emit_report(run_benchmark(small_spec()), "structured")
    b = emit_report(run_benchmark(small_spec()), "structured")
    assert a == b
    c = emit_report(run_benchmark(small_spec(base_seed=12)), "structured")
    assert a != c


# sha256 of the structured report at iterations=10, seed 7; a refactor that
# keeps behaviour keeps these bytes
REPORT_SHA256 = {
    "spacecraft": "f1a9caeb42aed281f755b6db17f126e5c035a854d5a7fc7a4a517883808ed831",
    "random-low": "3b7bbd00cc82bdbe798eee91fb734df350b2f9a817014facecff6f7e3b9df6d9",
    "random-high": "e1eb9e76fe3dfc4210f1f13cceec8c4f76b8eba7b758ff1be1a64ea515a877f6",
}


@pytest.mark.parametrize("environment", sorted(REPORT_SHA256))
def test_structured_report_bytes_are_pinned(environment):
    spec = BenchmarkSpec(environment=environment, iterations=10, base_seed=7)
    report = emit_report(run_benchmark(spec), "structured")
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[environment]


def test_the_100_iteration_spacecraft_report_is_pinned():
    # CI pins this prefix for the installed script on every Python it runs.
    # Python 3.10's statistics.stdev gave this baseline SD as
    # 0.3256211269926034, and the report hashed to a1228460; the
    # 10-iteration pins agree on 3.10 and 3.11 alike
    report = run_benchmark(BenchmarkSpec(environment="spacecraft", iterations=100, base_seed=7))
    assert report.result("baseline").sd == 0.32562112699260337
    text = emit_report(report, "structured")
    assert hashlib.sha256(text.encode()).hexdigest()[:8] == "d9414cbf"


def is_nearest_root(sd: float, variance: Fraction) -> bool:
    """Whether `sd` is a float nearest the square root of `variance`: the
    root lies between sd's midpoints with its two neighbours, compared
    exactly, as squares, with no square root taken."""
    low = max((Fraction(math.nextafter(sd, -math.inf)) + Fraction(sd)) / 2, Fraction(0))
    high = (Fraction(math.nextafter(sd, math.inf)) + Fraction(sd)) / 2
    return low * low <= variance <= high * high


MEANS = st.lists(st.one_of(
    st.builds(lambda k, n: k / n, st.integers(0, 400), st.integers(1, 20)),  # question counts
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
), min_size=2, max_size=30)


@settings(max_examples=300, deadline=None)
@given(MEANS)
def test_the_sd_is_the_nearest_float_to_the_exact_root(means):
    sd = SystemResult("s", tuple(means)).sd
    assert is_nearest_root(sd, sample_variance(means))
    if sys.version_info >= (3, 11):  # 3.10's stdev can miss by its last bit
        assert sd == statistics.stdev(means)


@pytest.mark.parametrize("means, sd", [
    ((5.0,), 0.0),
    ((1.5, 1.5, 1.5), 0.0),
    ((6.142857142857143, 4.428571428571429, 5.428571428571429), 0.861101967620244),
    ((4.0, 5.666666666666667, 6.333333333333333, 4.666666666666667), 1.0363754503432017),
    ((Fraction(1, 3), 0.5, 2), 0.9179284245476836),  # over a common denominator of 6
], ids=["one mean", "equal means", "three means", "four means", "a Fraction mean"])
def test_pinned_sds(means, sd):
    # Python 3.10's stdev gives ...2442 and ...2014 for the three and four means
    assert SystemResult("s", means).sd == sd


def test_delimited_format():
    report = run_benchmark(small_spec(systems=("baseline",)))
    lines = emit_report(report, "delimited").splitlines()
    assert lines[0] == "system,environment,mean_questions,sd,iterations,trials,base_seed"
    fields = lines[1].split(",")
    assert fields[0] == "baseline" and fields[1] == "spacecraft"
    assert float(fields[2]) > 1


def test_table_format_bolds_minimum():
    report = run_benchmark(small_spec())
    text = emit_report(report, "table")
    assert text.count("**") == 4  # entropy and data tie at the minimum
    assert "1.72" in text  # human reference footnote


def test_spacecraft_keeps_the_default_trials_and_a_random_world_takes_any():
    # the default, which the spacecraft reports record, and any count for a
    # random world; spacecraft refuses any other (test_refused_word_for_word)
    assert BenchmarkSpec(environment="spacecraft").trials == 20
    assert BenchmarkSpec(environment="random-low", trials=3).trials == 3


def test_random_environment_uses_fresh_world_per_iteration():
    report = run_benchmark(
        BenchmarkSpec(systems=("baseline",), environment="random-low",
                      iterations=4, base_seed=2)
    )
    means = report.result("baseline").iteration_means
    assert len(set(means)) > 1


def test_trials_flag_controls_random_world_size():
    report = run_benchmark(
        BenchmarkSpec(systems=("model-entropy",), environment="random-high",
                      iterations=2, trials=6, base_seed=2)
    )
    assert report.total_episodes == 12


def test_every_system_shares_each_iteration_world():
    point = (refquest.bench, "generate_random_world")
    with recorded_calls([point]) as calls:
        report = run_benchmark(BenchmarkSpec(environment="random-low", iterations=3, base_seed=5))
    generated = [c.args[0].seed for c in calls[point]]
    assert len(generated) == 3
    assert len(set(generated)) == 3
    assert report.total_episodes == 3 * 3 * 20


@pytest.fixture
def networks():
    """Every call a model agent makes to build a network; each holds its
    belief, whose world it keeps alive, so the worlds' ids stay distinct."""
    point = (refquest.dialogue, "build_network")
    with recorded_calls([point]) as calls:
        yield calls[point]


def test_each_network_is_built_once_per_call(networks):
    run_benchmark(BenchmarkSpec(environment="random-high", iterations=3, base_seed=7))
    assert len(networks) == len(
        {(id(c.args[0].world), c.kwargs["policy"], c.args[0].mask) for c in networks})


def test_each_candidate_set_is_solved_once():
    # both model systems share each world's min-sets, so fewer solves than
    # memo entries, one per (policy, mask) asked about
    point = (refquest.dnet, "compute_min_set")
    with recorded_calls([point]) as calls:
        run_benchmark(BenchmarkSpec(environment="random-high", iterations=3, base_seed=7))
    solved = [c.args for c in calls[point]]
    worlds = {id(w): w for w, _ in solved}.values()
    assert len(worlds) == 3
    assert len(solved) == len({(id(w), mask) for w, mask in solved}) < sum(
        len(w.model_questions) for w in worlds)


def test_spacecraft_networks_do_not_grow_with_iterations(networks, monkeypatch):
    # an equal world with a cold memo, not the cached one other tests have warmed
    world = dataclasses.replace(spacecraft_world())
    monkeypatch.setattr(refquest.bench, "spacecraft_world", lambda: world)
    run_benchmark(small_spec(iterations=1))
    # both model systems together; a one-property min-set builds no network
    assert (len(networks), len(world.model_questions)) == (12, 24)
    run_benchmark(small_spec(iterations=10))
    run_benchmark(small_spec())
    # the world's memo serves every later call
    assert (len(networks), len(world.model_questions)) == (12, 24)


UNKNOWN_ENVIRONMENT = ("unknown environment 'moonbase'; expected one of"
                       " ('spacecraft', 'random-low', 'random-high')")


@refusals({
    "test_spec_validation-no-systems": (lambda: BenchmarkSpec(systems=()), ValueError,
                                        "at least one system required"),
    "test_spec_validation-unknown-system": (
        lambda: BenchmarkSpec(systems=("warp-drive",)), ValueError,
        "unknown system 'warp-drive'; expected one of ('model-entropy', 'model-data', 'baseline')"),
    "test_spec_validation-unknown-environment": (
        lambda: BenchmarkSpec(environment="moonbase"), ValueError, UNKNOWN_ENVIRONMENT),
    "test_spec_validation-no-iterations": (lambda: BenchmarkSpec(iterations=0), ValueError,
                                           "iterations and trials must be at least 1"),
    "test_spec_validation-duplicate-systems": (
        lambda: BenchmarkSpec(systems=("model-entropy", "model-entropy")), ValueError,
        "duplicate systems in ('model-entropy', 'model-entropy')"),
    "test_unknown_format_rejected": (
        lambda: emit_report(run_benchmark(small_spec(systems=("model-entropy",))), "pdf"),
        ValueError, "unknown report format 'pdf'"),
    "test_unknown_names_rejected-make_agent": (lambda: make_agent("warp-drive", 0), ValueError,
                                               "unknown system 'warp-drive'"),
    "test_unknown_names_rejected-world_for": (lambda: world_for("moonbase", 0, 20), ValueError,
                                              UNKNOWN_ENVIRONMENT),
    **{f"test_spacecraft_refuses_a_trials_count_it_would_ignore-{trials}": (
        lambda trials=trials: BenchmarkSpec(environment="spacecraft", trials=trials), ValueError,
        "trials sets the size of a random world; spacecraft always runs its 18 tools, so leave"
        f" trials at 20, got {trials}") for trials in (3, 18, 21)},
})
def test_refused_word_for_word(call, error, message):
    assert_refused(call, error, message)


def test_one_iteration_has_zero_sd():
    report = run_benchmark(small_spec(environment="random-low", iterations=1))
    assert [r.sd for r in report.results] == [0.0] * 3


def test_agent_names_are_their_systems():
    # perfbench groups the episodes it times by agent.name
    systems = refquest.bench.SYSTEMS
    assert tuple(refquest.bench.make_agent(s, 0).name for s in systems) == systems


def one_agent_means(spec):
    """Each system's iteration means when each iteration gets its own agents
    from `make_agent`, the baseline's seeded as the benchmark seeds it, and
    each agent plays every target of the iteration's world in turn."""
    means = {system: [] for system in spec.systems}
    for it in range(spec.iterations):
        it_seed = _split_seed(spec.base_seed, it)
        world = world_for(spec.environment, it_seed, spec.trials)
        for system, iteration_means in means.items():
            agent = make_agent(system, _split_seed(it_seed, 0))
            iteration_means.append(statistics.fmean(
                run_episode(world, e.id, agent).question_count for e in world.entities))
    return means


@pytest.mark.parametrize("base_seed", [0, 7, 2**40])
@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_a_run_shares_one_model_agent_per_system_and_one_baseline_agent_per_iteration(
        environment, base_seed):
    inits = [(ModelAgent, "__init__"), (BaselineAgent, "__init__")]
    with recorded_calls(inits) as calls:
        for r in range(1, len(SYSTEMS) + 1):
            for systems in itertools.permutations(SYSTEMS, r):
                spec = BenchmarkSpec(systems=systems, environment=environment, iterations=2,
                                     base_seed=base_seed)
                for log in calls.values():
                    log.clear()
                report = run_benchmark(spec)
                assert [len(calls[point]) for point in inits] == [
                    len(set(systems) - {"baseline"}), spec.iterations * ("baseline" in systems)]
                assert {r.system: list(r.iteration_means) for r in report.results} == (
                    one_agent_means(spec))
                assert [r.system for r in report.results] == list(systems)


# questions asked per iteration by each model system at iterations=10, seed
# 7: the model systems draw nothing, so how the baseline draws or shares its
# agent cannot move them
MODEL_QUESTIONS = {
    "spacecraft": {"model-entropy": (30,) * 10, "model-data": (30,) * 10},
    "random-low": {"model-entropy": (37, 35, 40, 37, 34, 37, 36, 37, 35, 35),
                   "model-data": (38, 38, 40, 39, 34, 41, 37, 37, 35, 38)},
    "random-high": {"model-entropy": (35, 35, 35, 38, 35, 34, 39, 34, 37, 36),
                    "model-data": (34, 38, 37, 35, 36, 35, 38, 33, 36, 37)},
}


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_only_the_baseline_moves_and_each_iteration_opens_on_a_fresh_baseline(environment):
    point = (refquest.bench, "run_episode")
    spec = BenchmarkSpec(environment=environment, iterations=10, base_seed=7)
    with recorded_calls([point]) as calls:
        report = run_benchmark(spec)
    # (world, agent, record) for each baseline episode, in order
    played = [(c.args[0], c.args[2], c.result) for c in calls[point]
              if c.args[2].name == "baseline"]
    n = len(played) // spec.iterations  # targets per iteration
    for system, questions in MODEL_QUESTIONS[environment].items():
        assert report.result(system).iteration_means == tuple(q / n for q in questions)
    for it in range(spec.iterations):
        episodes = played[it * n:(it + 1) * n]
        world, agent, first = episodes[0]
        assert {(id(w), id(a)) for w, a, _ in episodes} == {(id(world), id(agent))}
        assert [r.target_id for _, _, r in episodes] == [e.id for e in world.entities]
        fresh = BaselineAgent(_split_seed(_split_seed(spec.base_seed, it), 0))
        assert first == run_episode(world, first.target_id, fresh)
    assert len({id(a) for _, a, _ in played}) == spec.iterations
