import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from refquest.belief import init_belief
from refquest.dialogue import ModelAgent, run_episode
from refquest.dnet import build_network
from refquest.minset import EXACT_LIMIT_DEFAULT, compute_min_set
from refquest.world import Entity, PropertySchema, World, WorldFormatError
from refquest.worlds import RandomWorldSpec, generate_random_world, spacecraft_world


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


def brute_force_minimum(entities, schema):
    """Independent oracle: the first property subset, by size and then
    combinations order over the schema, under which all entity projections
    are pairwise distinct."""
    for r in range(0, len(schema.names) + 1):
        for subset in itertools.combinations(schema.names, r):
            if injective(entities, subset):
                return list(subset)
    raise AssertionError("entities not distinguishable at all")


def reference_min_set(entities, schema, exact_limit):
    """Tuple-projection reference for both paths of compute_min_set: each
    entity is its row of values in schema order.
    Exact: the first subset of the varying properties, by size and then
    combinations order, with pairwise distinct projections. Greedy: add the
    property that gives the most distinct projections, ties to the earlier
    schema property, until all are distinct; schema order."""
    names = schema.names
    rows = [tuple(e.value(p) for p in names) for e in entities]
    if len(rows) < 2:
        return []

    def distinct(columns):
        return len({tuple(row[i] for i in columns) for row in rows})

    varying = [i for i in range(len(names)) if distinct([i]) > 1]
    if len(varying) <= exact_limit:
        for r in range(1, len(varying) + 1):
            for subset in itertools.combinations(varying, r):
                if distinct(subset) == len(rows):
                    return [names[i] for i in subset]
        raise AssertionError("rows not distinguishable at all")
    chosen = []
    while not chosen or distinct(chosen) < len(rows):
        rest = [i for i in varying if i not in chosen]
        chosen.append(max(rest, key=lambda i: distinct([*chosen, i])))
    return [names[i] for i in sorted(chosen)]


def test_single_differing_property_clause():
    s = schema_of("color", "shape")
    assert min_set(s, [ent("1", s, "a", "b"), ent("2", s, "b", "b")]) == ["color"]


def test_three_entity_clauses_enumerated_by_hand():
    # pairs differ on {color}, {shape} and {color, shape}
    s = schema_of("color", "shape")
    w = World(s, (ent("1", s, "a", "b"), ent("2", s, "b", "b"), ent("3", s, "a", "c")))
    assert compute_min_set(w, 0b011) == ["color"]
    assert compute_min_set(w, 0b101) == ["shape"]
    assert compute_min_set(w, 0b110) == ["color"]
    assert compute_min_set(w, 0b111) == ["color", "shape"]


def test_duplicate_entities_raise():
    # no question can split identical entities, so no World holds them
    s = schema_of("color")
    with pytest.raises(WorldFormatError,
                       match="^invalid world: entities '1' and '2' share an identical assignment$"):
        World(s, (ent("1", s, "a"), ent("2", s, "a")))
    with pytest.raises(WorldFormatError,
                       match="^invalid world: entities '1' and '3' share an identical assignment$"):
        World(s, (ent("1", s, "a"), ent("2", s, "b"), ent("3", s, "a")))


def test_unit_clauses_force_both_properties():
    # "2" differs from "1" only in color and "3" only in shape, so both are
    # needed even though "4" also differs in size
    s = schema_of("color", "shape", "size")
    es = [ent("1", s, "a", "a", "a"), ent("2", s, "b", "a", "a"),
          ent("3", s, "a", "b", "a"), ent("4", s, "b", "b", "b")]
    assert min_set(s, es) == ["color", "shape"]


def test_shared_property_wins():
    # color separates every pair on its own; shape and size each miss one
    s = schema_of("color", "shape", "size")
    es = [ent("1", s, "a", "a", "a"), ent("2", s, "b", "b", "a"), ent("3", s, "c", "a", "b")]
    assert min_set(s, es) == ["color"]


def test_value_outside_the_domain_is_named():
    s = schema_of("color", "shape")
    stray = Entity("x", "w", "w", {"color": "purple", "shape": "a"})
    with pytest.raises(WorldFormatError,
                       match=r"entity 'x': value 'purple' not in domain of property 'color'"):
        World(s, (ent("1", s, "a", "a"), stray))


def test_property_outside_the_schema_is_named():
    s = schema_of("color", "shape")
    stray = Entity("x", "w", "w", {"color": "b", "shape": "a", "size": "big"})
    with pytest.raises(WorldFormatError,
                       match=r"entity 'x': unknown property 'size' \(value 'big'\)"):
        World(s, (ent("1", s, "a", "a"), stray))


def test_empty_clause_set_gives_empty_minset():
    s = schema_of("color")
    w = World(s, (ent("1", s, "a"), ent("2", s, "b")))
    assert compute_min_set(w, 0b01) == compute_min_set(w, 0b10) == []
    assert compute_min_set(w, 0) == []


def test_color_only_difference():
    # two objects with the same shape and size but different colors
    s = schema_of("color", "shape", "size")
    es = [ent("1", s, "a", "b", "c"), ent("2", s, "d", "b", "c")]
    assert min_set(s, es) == ["color"]


def test_spacecraft_synthesizers_within_varying_features():
    w = spacecraft_world()
    mask = sum(1 << i for i, e in enumerate(w.entities) if e.type_name == "synthesizer")
    assert mask.bit_count() == 3
    result = set(compute_min_set(w, mask))
    assert result <= {"color", "size", "shape"}
    assert result


def test_determinism():
    rng = random.Random(5)
    s = schema_of("p1", "p2", "p3", "p4")
    es = [ent(str(i), s, *(rng.choice("abcd") for _ in range(4))) for i in range(5)]
    es = _dedupe(es, s)
    first = min_set(s, es)
    assert all(min_set(s, es) == first for _ in range(5))


def _dedupe(entities, schema):
    seen, out = set(), []
    for e in entities:
        key = tuple(e.value(p) for p in schema.names)
        if key not in seen:
            seen.add(key)
            out.append(e)
    return out


def test_oracle_equivalence_on_random_worlds():
    rng = random.Random(42)
    for _ in range(200):
        n_props = rng.randint(2, 5)
        n_ents = rng.randint(2, 6)
        s = schema_of(*(f"p{i}" for i in range(n_props)))
        es = _dedupe(
            [ent(str(i), s, *(rng.choice("abc") for _ in range(n_props)))
             for i in range(n_ents)],
            s,
        )
        if len(es) < 2:
            continue
        assert min_set(s, es) == brute_force_minimum(es, s)


def test_greedy_mode_hits_all_clauses():
    s = schema_of(*(f"p{i}" for i in range(6)))
    rng = random.Random(9)
    for _ in range(50):
        es = _dedupe([ent(str(i), s, *(rng.choice("abcd") for _ in range(6)))
                      for i in range(rng.randint(2, 12))], s)
        greedy = min_set(s, es, exact_limit=2)
        assert injective(es, greedy)
        assert len(greedy) >= len(min_set(s, es))


def test_greedy_takes_the_most_refining_property_earliest_first():
    # 17 varying properties put the four entities past the exact limit;
    # p0-p14 each split them in two, p15 and p16 each split them fully
    s = schema_of(*(f"p{i}" for i in range(17)))
    es = [ent(str(i), s, *("ab"[(i >> (j % 2)) & 1] for j in range(15)), "abcd"[i], "abcd"[i])
          for i in range(4)]
    assert min_set(s, es) == ["p15"]


@st.composite
def generated_worlds(draw):
    """Random worlds on either side of EXACT_LIMIT_DEFAULT: P in 17-20 with
    every property varying (greedy path), or P <= 6 (exact path)."""
    if draw(st.booleans()):
        n_properties = draw(st.integers(EXACT_LIMIT_DEFAULT + 1, 20))
        n_varying, values = n_properties, draw(st.integers(2, 3))
    else:
        n_properties = draw(st.integers(1, 6))
        n_varying, values = draw(st.integers(1, n_properties)), draw(st.integers(2, 4))
    n_entities = draw(st.integers(2, min(24, values ** n_varying)))
    spec = RandomWorldSpec(
        n_entities=n_entities,
        n_properties=n_properties,
        n_varying=n_varying,
        values_per_property=values,
        group_size=draw(st.integers(2, n_entities)),
        seed=draw(st.integers(0, 2**32)),
    )
    return generate_random_world(spec)


@settings(max_examples=40, deadline=None)
@given(generated_worlds())
def test_minset_invariants_on_generated_worlds(w):
    for label in dict.fromkeys(e.label for e in w.entities):
        belief = init_belief(w, label)
        candidates = members(w, belief.mask)
        minset = compute_min_set(w, belief.mask)
        assert injective(candidates, minset)
        if len(w.schema.names) <= EXACT_LIMIT_DEFAULT:
            assert minset == brute_force_minimum(candidates, w.schema)
        for e in candidates:
            record = run_episode(w, e.id, ModelAgent())
            assert record.resolved_id == e.id
            assert sum(1 for q, _ in record.transcript if q.kind == "wh") <= len(minset)


@settings(max_examples=40, deadline=None)
@given(generated_worlds())
def test_one_model_agent_plays_every_target_like_fresh_agents(w):
    for policy in ("entropy", "data"):
        shared = ModelAgent(policy)
        for e in w.entities:
            assert run_episode(w, e.id, shared) == run_episode(w, e.id, ModelAgent(policy))


# domain sizes on both sides of each field-width step (1 | 2-3 | 4-7 | 8-15
# values); the largest domain sets the width of every field
BIT_WIDTH_EDGES = (1, 2, 3, 4, 7, 8, 9)


@st.composite
def hand_built_entities(draw):
    """(schema, distinct entities, exact_limit): up to 8 properties with
    domain sizes from BIT_WIDTH_EDGES, values drawn per entity, and an
    exact_limit low enough to send many cases greedy."""
    sizes = draw(st.lists(st.sampled_from(BIT_WIDTH_EDGES), min_size=1, max_size=8))
    schema = PropertySchema(tuple(
        (f"p{i}", tuple(f"v{j}" for j in range(n))) for i, n in enumerate(sizes)
    ))
    rows = draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in sizes)),
                         min_size=2, max_size=24, unique=True))
    entities = [
        Entity(str(i), "w", "w", {p: schema.domain(p)[v] for p, v in zip(schema.names, row)})
        for i, row in enumerate(rows)
    ]
    return schema, entities, draw(st.integers(0, len(sizes)))


@settings(max_examples=300, deadline=None)
@given(hand_built_entities())
def test_both_paths_match_the_tuple_reference(case):
    schema, entities, exact_limit = case
    assert (min_set(schema, entities, exact_limit)
            == reference_min_set(entities, schema, exact_limit))


@st.composite
def worlds_and_submasks(draw):
    """(world, non-empty candidate mask, exact_limit). About a third of the
    worlds hold 65-130 entities, past one machine word; a third have 17-20
    properties, all varying, past EXACT_LIMIT_DEFAULT. The mask is any
    subset of the entities, not only a label group."""
    kind = draw(st.sampled_from(("large", "wide", "small")))
    if kind == "large":
        n_properties = draw(st.integers(4, 7))
        n_varying, values = draw(st.integers(4, n_properties)), 4
        n_entities = draw(st.integers(65, 130))
    elif kind == "wide":
        n_properties = draw(st.integers(EXACT_LIMIT_DEFAULT + 1, 20))
        n_varying, values = n_properties, draw(st.integers(2, 3))
        n_entities = draw(st.integers(2, 40))
    else:
        n_properties = draw(st.integers(1, 6))
        n_varying, values = draw(st.integers(1, n_properties)), draw(st.integers(2, 4))
        n_entities = draw(st.integers(1, min(24, values ** n_varying)))
    w = generate_random_world(RandomWorldSpec(
        n_entities=n_entities,
        n_properties=n_properties,
        n_varying=n_varying,
        values_per_property=values,
        group_size=n_entities,
        seed=draw(st.integers(0, 2**32)),
    ))
    bits = draw(st.lists(st.booleans(), min_size=n_entities, max_size=n_entities).filter(any))
    mask = sum(1 << i for i, bit in enumerate(bits) if bit)
    return w, mask, draw(st.sampled_from((0, 3, EXACT_LIMIT_DEFAULT)))


@settings(max_examples=150, deadline=None)
@given(worlds_and_submasks())
def test_candidate_masks_match_the_tuple_reference(case):
    w, mask, exact_limit = case
    assert (compute_min_set(w, mask, exact_limit)
            == reference_min_set(members(w, mask), w.schema, exact_limit))


class ActiveSetCheckingAgent(ModelAgent):
    """A model agent that checks, before every question, that each active
    property of its network takes more than one value among the candidates."""

    def choose(self, belief):
        net = build_network(belief, policy=self.policy)
        for q in net.questions:
            assert len({e.value(q.property) for e in members(belief.world, belief.mask)}) > 1, q
        return super().choose(belief)


@settings(max_examples=40, deadline=None)
@given(generated_worlds())
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


def test_exact_minset_pinned_on_200_entities():
    w = unique_world(200, 10, seed=2024)
    expected = ["p00", "p01", "p03", "p04", "p06", "p09"]
    assert compute_min_set(w, (1 << 200) - 1) == expected
    assert brute_force_minimum(w.entities, w.schema) == expected


def test_greedy_minset_pinned_on_100_entities_and_20_properties():
    w = unique_world(100, 20, seed=2024)
    assert compute_min_set(w, (1 << 100) - 1) == ["p00", "p01", "p04", "p05", "p10", "p13"]
