import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from refquest.dialogue import ModelAgent, run_episode
from refquest.dnet import build_network
from refquest.minset import EXACT_LIMIT_DEFAULT, compute_min_set
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world

import reference as ref
from checks import examples
from strategies import EXACT_LIMITS, worlds


def schema_of(*props):
    return PropertySchema(tuple((p, ("a", "b", "c", "d")) for p in props))


def ent(id, schema, *values):
    return Entity(id=id, label="w", type_name="w",
                  assignment=dict(zip(schema.names, values)))


def min_set(schema, entities, exact_limit=EXACT_LIMIT_DEFAULT):
    """compute_min_set over all of `entities`, wrapped in one World."""
    return compute_min_set(World(schema, tuple(entities)), (1 << len(entities)) - 1, exact_limit)


def members(world, mask):
    """The entities of `world` whose bits are set in `mask`, world order."""
    return [e for i, e in enumerate(world.entities) if mask >> i & 1]


def injective(entities, props):
    projections = [tuple(e.value(p) for p in props) for e in entities]
    return len(set(projections)) == len(projections)


S1, S2, S3 = schema_of("color"), schema_of("color", "shape"), schema_of("color", "shape", "size")
S17 = schema_of(*(f"p{i}" for i in range(17)))


def three_entities():
    # pairs differ on {color}, {shape} and {color, shape}
    return World(S2, (ent("1", S2, "a", "b"), ent("2", S2, "b", "b"), ent("3", S2, "a", "c")))


@examples({
    "test_single_differing_property_clause": (
        lambda: min_set(S2, [ent("1", S2, "a", "b"), ent("2", S2, "b", "b")]), ["color"]),
    **{f"test_three_entity_clauses_enumerated_by_hand-{mask:#05b}": (
        lambda mask=mask: compute_min_set(three_entities(), mask), expected)
       for mask, expected in ((0b011, ["color"]), (0b101, ["shape"]), (0b110, ["color"]),
                              (0b111, ["color", "shape"]))},
    # "2" differs from "1" only in color and "3" only in shape, so both are
    # needed even though "4" also differs in size
    "test_unit_clauses_force_both_properties": (
        lambda: min_set(S3, [ent("1", S3, "a", "a", "a"), ent("2", S3, "b", "a", "a"),
                             ent("3", S3, "a", "b", "a"), ent("4", S3, "b", "b", "b")]),
        ["color", "shape"]),
    # color separates every pair on its own; shape and size each miss one
    "test_shared_property_wins": (
        lambda: min_set(S3, [ent("1", S3, "a", "a", "a"), ent("2", S3, "b", "b", "a"),
                             ent("3", S3, "c", "a", "b")]), ["color"]),
    **{f"test_empty_clause_set_gives_empty_minset-{mask:#04b}": (
        lambda mask=mask: compute_min_set(World(S1, (ent("1", S1, "a"), ent("2", S1, "b"))), mask),
        []) for mask in (0b01, 0b10, 0)},
    # two objects with the same shape and size but different colors
    "test_color_only_difference": (
        lambda: min_set(S3, [ent("1", S3, "a", "b", "c"), ent("2", S3, "d", "b", "c")]),
        ["color"]),
    "test_spacecraft_synthesizers_within_varying_features": (
        lambda: compute_min_set(w := spacecraft_world(), w.label_masks["flux synthesizer"]),
        ["color", "shape"]),
    # 17 varying properties put the four entities past the exact limit;
    # p0-p14 each split them in two, p15 and p16 each split them fully
    "test_greedy_takes_the_most_refining_property_earliest_first": (
        lambda: min_set(S17, [ent(str(i), S17, *("ab"[(i >> (j % 2)) & 1] for j in range(15)),
                                  "abcd"[i], "abcd"[i]) for i in range(4)]), ["p15"]),
    # the engine and the reference alike
    "test_exact_minset_pinned_on_200_entities": (
        lambda: (compute_min_set(w := unique_world(200, 10, seed=2024), (1 << 200) - 1),
                 ref.min_set(w.schema.properties, w.entities)),
        (["p00", "p01", "p03", "p04", "p06", "p09"],) * 2),
    "test_greedy_minset_pinned_on_100_entities_and_20_properties": (
        lambda: compute_min_set(unique_world(100, 20, seed=2024), (1 << 100) - 1),
        ["p00", "p01", "p04", "p05", "p10", "p13"]),
})
def test_worked_example(call, expected):
    assert call() == expected


@pytest.mark.parametrize("mask", [1 << 18, 1 | 1 << 18, 0b111 | 1 << 18 | 1 << 23],
                         ids=["stray-bit", "two-candidates", "three-candidates"])
def test_mask_beyond_the_world_is_refused(mask):
    # the two-candidate path once indexed past the codes, and the search
    # path solved the candidates in range as if the others were not there
    with pytest.raises(ValueError) as exc:
        compute_min_set(spacecraft_world(), mask)
    assert str(exc.value) == f"candidate mask {mask:#x} has bits beyond the world's 18 entities"


def test_determinism():
    w = unique_world(5, 4, seed=5)
    first = compute_min_set(w, 0b11111)
    assert all(compute_min_set(w, 0b11111) == first for _ in range(5))


def any_mask(data, w):
    """A drawn non-empty subset of the entities, not only a label group."""
    return data.draw(st.integers(1, (1 << len(w.entities)) - 1))


@settings(max_examples=50, deadline=None)
@given(worlds(kinds=("small",)), st.data())
def test_greedy_mode_hits_all_clauses(w, data):
    mask = any_mask(data, w)
    greedy = compute_min_set(w, mask, exact_limit=2)
    assert injective(members(w, mask), greedy)
    assert len(greedy) >= len(compute_min_set(w, mask))


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")))
def test_minset_invariants_on_generated_worlds(w):
    # the model asks no more WH questions than the first min-set holds
    for mask in w.label_masks.values():
        bound = len(compute_min_set(w, mask))
        for e in members(w, mask):
            record = run_episode(w, e.id, ModelAgent())
            assert record.resolved_id == e.id
            assert sum(1 for q, _ in record.transcript if q.kind == "wh") <= bound


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")))
def test_one_model_agent_plays_every_target_like_fresh_agents(w):
    for policy in ("entropy", "data"):
        shared = ModelAgent(policy)
        for e in w.entities:
            assert run_episode(w, e.id, shared) == run_episode(w, e.id, ModelAgent(policy))


@settings(max_examples=150, deadline=None)
@given(worlds(), st.sampled_from(EXACT_LIMITS), st.data())
def test_candidate_masks_match_the_tuple_reference(w, exact_limit, data):
    mask = any_mask(data, w)
    assert (compute_min_set(w, mask, exact_limit)
            == ref.min_set(w.schema.properties, members(w, mask), exact_limit))


@settings(max_examples=40, deadline=None)
@given(worlds())
def test_every_two_candidates_match_the_tuple_reference(w):
    # two candidates skip both searches; exact_limit 0 names the greedy path
    for pair in itertools.combinations(range(len(w.entities)), 2):
        mask = sum(1 << i for i in pair)
        candidates = [w.entities[i] for i in pair]
        for exact_limit in EXACT_LIMITS:
            assert (compute_min_set(w, mask, exact_limit)
                    == ref.min_set(w.schema.properties, candidates, exact_limit))


@settings(max_examples=300, deadline=None)
@given(worlds(kinds=("small",)), st.data())
def test_both_paths_match_the_tuple_reference(w, data):
    # the whole world as one candidate set, exact_limit anywhere from 0
    # (always greedy) to the schema's size (always exact)
    exact_limit = data.draw(st.integers(0, len(w.schema.names)))
    assert (compute_min_set(w, (1 << len(w.entities)) - 1, exact_limit)
            == ref.min_set(w.schema.properties, w.entities, exact_limit))


@settings(max_examples=50, deadline=None)
@given(worlds(kinds=("small",)))
def test_oracle_equivalence_on_random_worlds(w):
    # each label group, the candidate set an episode starts from, at the
    # default exact_limit: the smallest distinguishing set and no other
    for mask in w.label_masks.values():
        candidates = members(w, mask)
        minset = compute_min_set(w, mask)
        assert minset == ref.min_set(w.schema.properties, candidates)
        assert injective(candidates, minset)


class ActiveSetCheckingAgent(ModelAgent):
    """A model agent that checks, before every question, that each active
    property of its network takes more than one value among the candidates."""

    def choose(self, belief):
        net = build_network(belief, policy=self.policy)
        for q in net.questions:
            assert len({e.value(q.property) for e in members(belief.world, belief.mask)}) > 1, q
        return super().choose(belief)


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")))
def test_active_properties_vary_every_turn_on_generated_worlds(w):
    for policy in ("entropy", "data"):
        for e in w.entities:
            assert run_episode(w, e.id, ActiveSetCheckingAgent(policy)).resolved_id == e.id


def unique_world(n_entities, n_props, seed):
    """A World of `n_entities` entities with distinct random rows over
    `n_props` properties of four values each, in the order they were drawn."""
    rng = random.Random(seed)
    s = schema_of(*(f"p{i:02d}" for i in range(n_props)))
    rows: dict[tuple, None] = {}
    while len(rows) < n_entities:
        rows.setdefault(tuple(rng.choice("abcd") for _ in range(n_props)))
    return World(s, tuple(ent(str(i), s, *row) for i, row in enumerate(rows)))
