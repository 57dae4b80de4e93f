import math
import random

import pytest
from hypothesis import given, strategies as st

from refquest.belief import Belief, PropertyDistribution, init_belief
from refquest.dnet import (
    DecisionNetwork,
    NoInformativeQuestionError,
    Question,
    build_network,
    select_question,
    wh_entropy,
    yn_expected_entropy,
)
from refquest.minset import compute_min_set
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world

import reference as ref
from checks import assert_refused, bits, examples, refusals


def dist(**weights):
    return PropertyDistribution("p", weights)


def random_dist(rng, max_support=6):
    n = rng.randint(1, max_support)
    weights = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(weights)
    return dist(**{f"v{i}": w / total for i, w in enumerate(weights)})


# --- entropy utilities -------------------------------------------------

@given(st.integers(0, 10_000))
def test_yn_never_exceeds_wh(seed):
    d = random_dist(random.Random(seed))
    assert yn_expected_entropy(d) <= wh_entropy(d) + 1e-12


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8), st.data())
def test_equal_count_multisets_score_exactly_equal(counts, data):
    # the same counts under other values, in any order, score the same
    # float; so do the same counts as probabilities
    shuffled = data.draw(st.permutations(counts))
    n = sum(counts)
    for scale in (1, n):
        a = PropertyDistribution("p", {f"v{i}": c / scale for i, c in enumerate(counts)})
        b = PropertyDistribution("q", {f"w{i}": c / scale for i, c in enumerate(shuffled)})
        assert wh_entropy(a) == wh_entropy(b)
        assert yn_expected_entropy(a) == yn_expected_entropy(b)


def test_wh_entropy_bounded_by_log_support():
    rng = random.Random(3)
    for _ in range(200):
        d = random_dist(rng)
        h = wh_entropy(d)
        assert -1e-12 <= h <= math.log2(len(d.counts)) + 1e-12


# --- worlds ------------------------------------------------------------

def pair_world():
    schema = PropertySchema((("color", ("red", "blue")), ("shape", ("tall", "short"))))
    ents = (
        Entity("a", "w", "w", {"color": "red", "shape": "tall"}),
        Entity("b", "w", "w", {"color": "blue", "shape": "tall"}),
    )
    return World(schema, ents)


def grid_world(*names, constant=()):
    """Four entities, one per value pair of the two varying properties
    `names`; each property in `constant` takes the same value everywhere."""
    schema = PropertySchema(
        tuple((p, ("x",)) for p in constant) + tuple((p, ("a", "b")) for p in names)
    )
    fixed = {p: "x" for p in constant}
    ents = tuple(
        Entity(f"e{u}{v}", "w", "w", {**fixed, names[0]: u, names[1]: v})
        for u in "ab" for v in "ab"
    )
    return World(schema, ents)


# --- worked examples; network construction and selection --------------

UNIFORM_FOUR = dist(a=0.25, b=0.25, c=0.25, d=0.25)
SPLIT_2_1 = bits(0.9182958340544896)  # -(2/3)log2(2/3) - (1/3)log2(1/3), computed by hand


def network_and_choice(belief, policy):
    """The network built for `belief` under `policy`, and the question it
    selects, or None when it holds none (test_refused_word_for_word)."""
    net = build_network(belief, policy)
    return net, select_question(net) if net.questions else None


def three_colors():
    """Three entities, each its own color; shape splits them 2:1."""
    schema = PropertySchema((("color", ("r", "g", "b")), ("shape", ("t", "s"))))
    return World(schema, tuple(Entity(id, "w", "w", {"color": c, "shape": s})
                               for id, c, s in (("a", "r", "t"), ("b", "g", "t"), ("c", "b", "s"))))


# each network row, under both policies: its belief, each question's
# (property, entropy utility, data utility), and the question selected
NETWORKS = {
    "test_build_network_single_candidate_is_empty": (
        lambda: init_belief(pair_world(), "w").apply_wh_answer("color", "red"), (), None),
    "test_build_network_spacecraft_emitters": (
        lambda: init_belief(spacecraft_world(), "temporal emitter"),
        (("size", SPLIT_2_1, 1.0), ("symbol", SPLIT_2_1, 1.0)), "size"),
    "test_select_question_color_only_difference": (
        lambda: init_belief(pair_world(), "w"), (("color", 1.0, 2.0),), "color"),
    # color alone tells all three apart, so the network holds no shape question
    "test_select_question_argmax_by_entropy": (
        lambda: init_belief(three_colors(), "w"), (("color", bits(math.log2(3)), 2.0),), "color"),
}


@examples({
    "test_wh_entropy_uniform_four": (lambda: wh_entropy(UNIFORM_FOUR), bits(2.0)),
    "test_wh_entropy_degenerate": (lambda: wh_entropy(dist(red=1.0)), 0.0),
    "test_wh_entropy_two_thirds": (lambda: wh_entropy(dist(red=2 / 3, blue=1 / 3)), SPLIT_2_1),
    "test_yn_expected_entropy_even_split": (lambda: yn_expected_entropy(dist(a=0.5, b=0.5)),
                                            bits(1.0)),
    # 4 * 0.25 * H_bin(0.25); H_bin(0.25) = 0.8112781244591328
    "test_yn_expected_entropy_uniform_four": (lambda: yn_expected_entropy(UNIFORM_FOUR),
                                              bits(0.8112781244591328)),
    "test_yn_expected_entropy_degenerate": (lambda: yn_expected_entropy(dist(a=1.0)), 0.0),
    # the kind follows from the value, so no question can carry the wrong one
    **{f"test_question_invariants-{value}": (
        lambda value=value: (Question("color", value).kind, Question("color", value).surface),
        expected) for value, expected in ((None, ("wh", "What color is it?")),
                                          ("red", ("yn", "Is it red?")))},
    **{f"{name}-{policy}": (
        lambda belief=belief, policy=policy: network_and_choice(belief(), policy),
        (DecisionNetwork(tuple(Question(p) for p, *_ in scores),
                         {Question(p): utilities[k] for p, *utilities in scores}),
         chosen and Question(chosen)))
       for name, (belief, scores, chosen) in NETWORKS.items()
       for k, policy in enumerate(("entropy", "data"))},
})
def test_worked_example(call, expected):
    assert call() == expected


def test_one_wh_question_per_active_property():
    props = tuple((f"p{i}", ("a", "b", "c")) for i in range(9))
    schema = PropertySchema(props)
    ents = []
    rng = random.Random(0)
    seen = set()
    while len(ents) < 8:
        assignment = {p: rng.choice("abc") for p, _ in props}
        key = tuple(assignment.values())
        if key in seen:
            continue
        seen.add(key)
        ents.append(Entity(f"e{len(ents)}", "w", "w", assignment))
    random_world = World(schema, tuple(ents))
    sc = spacecraft_world()
    beliefs = [init_belief(random_world, "w")] + [
        init_belief(sc, label) for label in dict.fromkeys(e.label for e in sc.entities)
    ]
    for b in beliefs:
        order = b.world.schema.names
        for policy in ("entropy", "data"):
            net = build_network(b, policy=policy)
            active = compute_min_set(b.world, b.mask)
            assert active
            assert active == sorted(active, key=order.index)
            assert net.questions == tuple(Question(prop) for prop in active)
            assert set(net.utilities) == set(net.questions)


def positive_count_multisets(k, budget, low=1):
    """Every non-decreasing tuple of k counts, each >= low, summing to <= budget."""
    if k == 0:
        yield ()
        return
    for c in range(low, budget // k + 1):
        for rest in positive_count_multisets(k - 1, budget - c, c):
            yield (c,) + rest


def test_confirm_never_beats_its_wh_question():
    # a confirm asks what its WH asks for 2 values, and for 3 or more it is
    # strictly less informative, by a margin no rounding error explains
    # (the smallest gap up to n = 40 is 0.056 bits, at counts 1, 1, 38)
    for k in range(2, 6):
        for counts in positive_count_multisets(k, 40):
            d = PropertyDistribution("p", {f"v{i}": c for i, c in enumerate(counts)})
            if k == 2:
                assert yn_expected_entropy(d) == wh_entropy(d), counts
            else:
                assert yn_expected_entropy(d) < wh_entropy(d) - 0.05, counts


def test_data_policy_reads_no_distribution(monkeypatch):
    def refuse(self, prop):
        raise AssertionError(f"distribution({prop!r}) read under the data policy")

    b = init_belief(grid_world("shape", "color"), "w")
    monkeypatch.setattr(Belief, "distribution", refuse)
    net = build_network(b, policy="data")
    assert select_question(net) == Question("color")
    with pytest.raises(AssertionError, match="distribution"):
        build_network(b)


def test_ties_break_by_schema_order_then_wh():
    def wh(prop):
        return Question(prop)

    # every question of a 2x2 world scores 1 bit under entropy
    b = init_belief(grid_world("shape", "color"), "w")
    net = build_network(b)
    assert set(net.utilities.values()) == {1.0}
    assert select_question(net) == wh("shape")
    # the data policy prefers color over every other question type
    net = build_network(b, policy="data")
    assert all(net.utilities[wh("color")] > u
               for q, u in net.utilities.items() if q.property != "color")
    assert select_question(net) == wh("color")
    # without color, data ties too and picks the first active property
    b = init_belief(grid_world("shape", "size", constant=("weight",)), "w")
    for policy in ("entropy", "data"):
        net = build_network(b, policy=policy)
        assert net.questions == (wh("shape"), wh("size"))
        assert select_question(net) == wh("shape")


def test_two_valued_properties_tie_and_the_first_is_asked():
    # six entities and five one-hot properties: each property splits the
    # candidates 1:5, and e5 differs from each e_j only in p_j, so all five
    # are active and score alike; a confirm about any of them would ask
    # what its WH asks, so it would tie too
    schema = PropertySchema(tuple((f"p{j}", ("a", "b")) for j in range(5)))
    ents = tuple(
        Entity(f"e{i}", "w", "w", {f"p{j}": "a" if i == j else "b" for j in range(5)})
        for i in range(6)
    )
    b = init_belief(World(schema, ents), "w")
    net = build_network(b)
    assert len(net.questions) == 5
    for q in net.questions:
        assert net.utilities[q] == yn_expected_entropy(b.distribution(q.property)) > 0
    assert select_question(net) == Question("p0")
    # the tie holds for two values given as probabilities too; counts are
    # checked in test_confirm_never_beats_its_wh_question
    for c in range(1, 40):
        d = dist(a=c / 40, b=(40 - c) / 40)
        assert yn_expected_entropy(d) == wh_entropy(d)


def test_select_question_deterministic():
    w = spacecraft_world()
    b = init_belief(w, "megaband module")
    net = build_network(b)
    first = select_question(net)
    assert all(select_question(build_network(b)) == first for _ in range(5))


def test_argmax_invariant_under_log_base():
    # entropy in any base is a positive multiple of bits, so the argmax
    # (what select_question returns) cannot depend on the base
    rng = random.Random(11)
    for _ in range(300):
        dists = [random_dist(rng) for _ in range(4)]
        bits = [wh_entropy(d) for d in dists]
        nats = [h * math.log(2) for h in bits]
        assert bits.index(max(bits)) == nats.index(max(nats))


def test_rebuild_shrinks_active_set():
    w = spacecraft_world()
    for label in dict.fromkeys(e.label for e in w.entities):
        b = init_belief(w, label)
        prev = set(build_network(b).questions)
        while ref.referent(b) is None:
            net = build_network(b)
            assert set(net.questions) <= prev or prev == set()
            prev = set(net.questions)
            q = select_question(net)
            target = b.world.by_id(b.candidate_ids[0])
            b = b.apply_wh_answer(q.property, target.value(q.property))


# the distributions an entropy refuses, each holding no weight or a weight
# <= 0, and the weights its refusal lists, in ascending order
WEIGHTLESS = {"empty": (dist(), []), "zero": (dist(a=0, b=2), [0, 2]),
              "negative": (dist(a=-1, b=2), [-1, 2]),
              "zero-of-three": (dist(a=0, b=1, c=2), [0, 1, 2]),
              "no-candidates": (Belief(spacecraft_world(), 0).distribution("color"), [])}


@refusals({
    "test_select_question_no_informative": (
        lambda: select_question(build_network(
            init_belief(pair_world(), "w").apply_wh_answer("color", "red"))),
        NoInformativeQuestionError, "network has no questions"),
    **{f"test_build_network_rejects_unknown_policy-{policy}": (
        lambda policy=policy: build_network(init_belief(spacecraft_world(), "megaband module"),
                                            policy),
        ValueError, f"unknown utility policy {policy!r}") for policy in ("maybe", "Entropy")},
    **{f"test_entropies_refuse_a_distribution_without_positive_weights-{utility.__name__}-{case}": (
        lambda utility=utility, d=d: utility(d), ValueError,
        f"distribution of property {d.property!r} has weights {weights};"
        " weights must be positive, one or more")
       for utility in (wh_entropy, yn_expected_entropy)
       for case, (d, weights) in WEIGHTLESS.items()},
})
def test_refused_word_for_word(call, error, message):
    assert_refused(call, error, message)
