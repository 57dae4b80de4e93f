"""The engine against the reference engine in tests/reference.py: every
system's transcript, word for word, on generated worlds."""

from hypothesis import given, settings, strategies as st

from refquest.bench import SYSTEMS, make_agent
from refquest.dialogue import run_episode

import reference as ref
from strategies import worlds


@settings(max_examples=60, deadline=None)
@given(worlds(kinds=("small", "wide")), st.permutations(SYSTEMS), st.integers(min_value=0), st.data())
def test_every_system_says_what_the_reference_says(w, systems, seed, data):
    # one World serves every system and target in a drawn order, so most
    # episodes meet a warm memo; the reference keeps none
    targets = data.draw(st.permutations([e.id for e in w.entities]))
    for system in systems:
        for i, target in enumerate(targets):
            record = run_episode(w, target, make_agent(system, seed + i))
            assert record.resolved_id == target
            assert ([(q.property, q.value, word) for q, word in record.transcript]
                    == ref.transcript(w, target, system, seed + i))


@settings(max_examples=60, deadline=None)
@given(worlds(kinds=("small", "wide")), st.integers(min_value=0), st.data())
def test_one_baseline_agent_says_over_its_targets_what_one_reference_baseline_says(
        w, seed, data):
    # as in a benchmark iteration, one agent plays every target in turn,
    # its stream running on from one episode to the next
    targets = data.draw(st.permutations([e.id for e in w.entities]))
    agent, reference = make_agent("baseline", seed), ref.Baseline(seed)
    for target in targets:
        record = run_episode(w, target, agent)
        assert record.resolved_id == target
        assert ([(q.property, q.value, word) for q, word in record.transcript]
                == ref.transcript(w, target, "baseline", baseline=reference))
