import dataclasses
import random
from types import MappingProxyType, ModuleType

import pytest
from hypothesis import example, given, settings

from refquest.belief import init_belief
from refquest.dnet import wh_entropy
from refquest.minset import compute_min_set
import refquest.worlds
from refquest.world import World, load_world, serialize_world
from refquest.worlds import (
    InfeasibleSpecError,
    RandomWorldSpec,
    generate_random_world,
    spacecraft_world,
)
from refquest.belief import Belief

import reference as ref
from checks import assert_tabled, recorded_calls
from strategies import random_world_specs


def entity_level_entropy(world, prop):
    b = Belief(world, mask=(1 << len(world.entities)) - 1)
    return wh_entropy(b.distribution(prop))


def test_low_variance_world_has_three_varying_properties():
    w = generate_random_world(RandomWorldSpec(n_varying=3, seed=3))
    varying = [p for p in w.schema.names if entity_level_entropy(w, p) > 0]
    assert len(varying) == 3


def test_high_variance_world_varies_widely():
    w = generate_random_world(RandomWorldSpec(n_varying=7, seed=3))
    varying = [p for p in w.schema.names if entity_level_entropy(w, p) > 0]
    assert len(varying) >= 6  # up to all 7; a constant column is vanishingly unlikely


def test_seed_determinism():
    spec = RandomWorldSpec(n_varying=3, seed=17)
    assert generate_random_world(spec) == generate_random_world(spec)
    assert generate_random_world(RandomWorldSpec(n_varying=3, seed=17)) != generate_random_world(
        RandomWorldSpec(n_varying=3, seed=18)
    )


def test_generated_worlds_always_validate():
    for seed in range(25):
        for spec in (RandomWorldSpec(n_varying=3, seed=seed), RandomWorldSpec(n_varying=7, seed=seed)):
            w = generate_random_world(spec)
            assert load_world(serialize_world(w)) == w


def test_minset_never_includes_constant_properties():
    for seed in range(10):
        w = generate_random_world(RandomWorldSpec(n_varying=3, seed=seed))
        constants = {p for p in w.schema.names if entity_level_entropy(w, p) == 0}
        for label in dict.fromkeys(e.label for e in w.entities):
            b = init_belief(w, label)
            if len(b.candidate_ids) < 2:
                continue
            assert not (set(compute_min_set(w, b.mask)) & constants)


def test_group_labels_shared():
    w = generate_random_world(RandomWorldSpec(n_varying=3, seed=5))
    b = init_belief(w, w.entities[0].label)
    assert len(b.candidate_ids) == 7  # default group size


def test_generated_world_round_trips_through_config_format():
    w = generate_random_world(RandomWorldSpec(n_varying=7, seed=9))
    assert load_world(serialize_world(w)) == w


def test_spacecraft_layout():
    w = spacecraft_world()
    assert len(w.entities) == 18
    types = {e.type_name for e in w.entities}
    assert len(types) == 6
    for t in types:
        assert sum(1 for e in w.entities if e.type_name == t) == 3


@pytest.mark.parametrize("spec, message", [
    (RandomWorldSpec(n_entities=20, n_varying=2, values_per_property=2),
     "2^2 < 20: not enough combinations for unique entities"),
    (RandomWorldSpec(n_varying=9, n_properties=7), "n_varying exceeds n_properties"),
    # a negative count of varying properties would draw "property -1", the last one
    (RandomWorldSpec(n_entities=1, n_varying=-1, values_per_property=1),
     "n_varying must be 0 or more, got -1"),
    # the counts are checked before the bound on value combinations
    *((RandomWorldSpec(**{count: 0}), "all counts must be at least 1")
      for count in ("n_entities", "group_size", "values_per_property")),
])
def test_an_infeasible_spec_is_refused_with_its_message(spec, message):
    for generate in (generate_random_world, ref.random_world):
        with pytest.raises(InfeasibleSpecError) as refused:
            generate(spec)
        assert str(refused.value) == message


def assert_generated_as_the_reference_generates(spec):
    """generate_random_world(spec) equals tests/reference.py's random_world,
    each assignment in the same order, and its tables are what its
    entities give, or both refuse spec alike."""
    try:
        expected = ref.random_world(spec)
    except InfeasibleSpecError as exc:
        with pytest.raises(InfeasibleSpecError) as refused:
            generate_random_world(spec)
        assert str(refused.value) == str(exc)
        return
    w = generate_random_world(spec)
    assert w == expected
    assert ([list(e.assignment.items()) for e in w.entities]
            == [list(e.assignment.items()) for e in expected.entities])
    assert_tabled(w)
    assert ([type(getattr(w, f.name)) for f in dataclasses.fields(World)]
            == [type(getattr(expected, f.name)) for f in dataclasses.fields(World)])
    assert all(type(e.assignment) is MappingProxyType for e in w.entities)
    # each world's memo is its own, and starts empty
    again = generate_random_world(spec)
    assert w.min_sets == w.model_questions == {}
    memos = (w.min_sets, w.model_questions, again.min_sets, again.model_questions)
    assert len(set(map(id, memos))) == 4


@settings(max_examples=300, deadline=None)
@given(random_world_specs())
@example(RandomWorldSpec(n_entities=1, n_varying=-1, values_per_property=1))
def test_generated_worlds_equal_the_reference_generators_table_for_table(spec):
    assert_generated_as_the_reference_generates(spec)


@pytest.mark.parametrize("n_varying", [3, 7])
def test_benchmark_worlds_equal_the_reference_generators(n_varying):
    # the random environments' shape: 20 entities, 7 properties of 4 values, groups of 7
    for seed in (*range(20), 2**32 + 5, 2**63, 2**70):
        assert_generated_as_the_reference_generates(RandomWorldSpec(n_varying=n_varying, seed=seed))


def test_each_shape_names_its_entities_by_its_own_group_size():
    # the names are cached per shape: shapes of one entity count that group
    # their labels apart must not share them, in whichever order they come
    for group_size in (7, 3, 20, 7):
        assert_generated_as_the_reference_generates(RandomWorldSpec(group_size=group_size, seed=1))


@pytest.mark.parametrize("seed", range(50))
def test_the_generator_draws_as_random_randbelow(monkeypatch, seed):
    # one entity of three properties, two varying: three draws over the
    # domain, the constant property's first, and no redraw
    stand_in = ModuleType("random")  # the generator's random module
    stand_in.Random = random.Random
    monkeypatch.setattr(refquest.worlds, "random", stand_in)
    with recorded_calls([(stand_in, "Random")]) as calls:
        for n in range(1, 71):
            spec = RandomWorldSpec(n_entities=1, n_properties=3, n_varying=2,
                                   values_per_property=n, seed=seed)
            w = generate_random_world(spec)
            drawn = [dict(w.schema.properties)[p].index(w.entities[0].value(p))
                     for p in ("prop3", "prop1", "prop2")]
            expected = random.Random(seed)
            assert drawn == [expected._randbelow(n) for _ in range(3)]
            assert calls[stand_in, "Random"][-1].result.getstate() == expected.getstate()
