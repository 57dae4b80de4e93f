import math
import random

import pytest
from hypothesis import given, strategies as st

from refquest.belief import PropertyDistribution, init_belief
from refquest.dnet import (
    MissingFrequencyError,
    NoInformativeQuestionError,
    Question,
    build_network,
    data_driven_utilities,
    select_question,
    uniform_frequency_table,
    wh_entropy,
    yn_expected_entropy,
)
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world


def dist(**probs):
    return PropertyDistribution(property="p", probs=probs)


def random_dist(rng, max_support=6):
    n = rng.randint(1, max_support)
    weights = [rng.random() + 1e-9 for _ in range(n)]
    total = sum(weights)
    return dist(**{f"v{i}": w / total for i, w in enumerate(weights)})


# --- entropy utilities -------------------------------------------------

def test_wh_entropy_uniform_four():
    assert wh_entropy(dist(a=0.25, b=0.25, c=0.25, d=0.25)) == pytest.approx(2.0, abs=1e-9)


def test_wh_entropy_degenerate():
    assert wh_entropy(dist(red=1.0)) == 0.0


def test_wh_entropy_two_thirds():
    # -(2/3)log2(2/3) - (1/3)log2(1/3), computed by hand
    assert wh_entropy(dist(red=2 / 3, blue=1 / 3)) == pytest.approx(
        0.9182958340544896, abs=1e-9
    )


def test_yn_expected_entropy_even_split():
    assert yn_expected_entropy(dist(a=0.5, b=0.5)) == pytest.approx(1.0, abs=1e-9)


def test_yn_expected_entropy_uniform_four():
    # 4 * 0.25 * H_bin(0.25); H_bin(0.25) = 0.8112781244591328
    assert yn_expected_entropy(dist(a=0.25, b=0.25, c=0.25, d=0.25)) == pytest.approx(
        0.8112781244591328, abs=1e-9
    )


def test_yn_expected_entropy_degenerate():
    assert yn_expected_entropy(dist(a=1.0)) == 0.0


@given(st.integers(0, 10_000))
def test_yn_never_exceeds_wh(seed):
    d = random_dist(random.Random(seed))
    assert yn_expected_entropy(d) <= wh_entropy(d) + 1e-12


def test_wh_entropy_bounded_by_log_support():
    rng = random.Random(3)
    for _ in range(200):
        d = random_dist(rng)
        h = wh_entropy(d)
        assert -1e-12 <= h <= math.log2(len(d.probs)) + 1e-12


# --- data-driven utilities ---------------------------------------------

def pair_world():
    schema = PropertySchema((("color", ("red", "blue")), ("shape", ("tall", "short"))))
    ents = (
        Entity("a", "w", "w", {"color": "red", "shape": "tall"}),
        Entity("b", "w", "w", {"color": "blue", "shape": "tall"}),
    )
    return World(schema, ents)


def test_data_utilities_unknown_property_gets_frequency():
    q_color = Question(kind="wh", property="color")
    table = {"Query:color": 20.0, "Query:shape": 20.0}
    assert data_driven_utilities(table, [q_color]) == {q_color: 20.0}


def test_data_utilities_missing_frequency():
    with pytest.raises(MissingFrequencyError):
        data_driven_utilities({}, [Question(kind="wh", property="color")])


def test_uniform_frequency_table_ranks_color_highest():
    table = uniform_frequency_table(spacecraft_world().schema)
    assert table["Query:color"] == max(table.values())
    assert sum(table.values()) == pytest.approx(100.0)


# --- network construction and selection --------------------------------

def test_question_invariants():
    with pytest.raises(ValueError):
        Question(kind="yn", property="color")
    with pytest.raises(ValueError):
        Question(kind="wh", property="color", value="red")
    assert Question(kind="wh", property="color").surface == "What color is it?"
    assert Question(kind="yn", property="color", value="red").surface == "Is it red?"


def test_build_network_single_candidate_is_empty():
    w = pair_world()
    b = init_belief(w, "w").apply_wh_answer("color", "red")
    net = build_network(b)
    assert net.active == ()
    assert net.questions == ()


def test_build_network_spacecraft_emitters():
    w = spacecraft_world()
    b = init_belief(w, "temporal emitter")
    net = build_network(b)
    varying = {"size", "symbol", "pattern"}
    assert set(net.active) <= varying
    for q in net.questions:
        assert net.utilities[q] > 0


def test_twelve_question_configuration():
    # 9 WH-eligible properties plus 3 confirm-eligible ones -> 12 questions
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
    w = World(schema, tuple(ents))
    b = init_belief(w, "w")
    net = build_network(b, yn_properties=("p0", "p1", "p2"))
    wh = [q for q in net.questions if q.kind == "wh"]
    yn = [q for q in net.questions if q.kind == "yn"]
    assert len(wh) == len(net.active)
    assert all(q.property in ("p0", "p1", "p2") for q in yn)


def test_select_question_color_only_difference():
    w = pair_world()
    b = init_belief(w, "w")
    q = select_question(build_network(b))
    assert q == Question(kind="wh", property="color")


def test_select_question_argmax_by_entropy():
    schema = PropertySchema((("color", ("r", "g", "b")), ("shape", ("t", "s"))))
    ents = (
        Entity("a", "w", "w", {"color": "r", "shape": "t"}),
        Entity("b", "w", "w", {"color": "g", "shape": "t"}),
        Entity("c", "w", "w", {"color": "b", "shape": "s"}),
    )
    w = World(schema, ents)
    b = init_belief(w, "w")
    net = build_network(b)
    # color entropy log2(3) = 1.58 beats shape 0.92
    assert select_question(net).property == "color"


def test_select_question_no_informative():
    w = pair_world()
    b = init_belief(w, "w").apply_wh_answer("color", "red")
    net = build_network(b)
    with pytest.raises(NoInformativeQuestionError):
        select_question(net)


def test_select_question_deterministic():
    w = spacecraft_world()
    b = init_belief(w, "megaband module")
    net = build_network(b)
    first = select_question(net)
    assert all(select_question(build_network(b)) == first for _ in range(5))


def test_argmax_invariant_under_frequency_scaling():
    w = spacecraft_world()
    for label in w.labels:
        b = init_belief(w, label)
        table = uniform_frequency_table(w.schema)
        scaled = {k: 7.5 * v for k, v in table.items()}
        net1 = build_network(b, policy="data", freq_table=table)
        net2 = build_network(b, policy="data", freq_table=scaled)
        assert select_question(net1) == select_question(net2)


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
    for label in w.labels:
        b = init_belief(w, label)
        prev = set(build_network(b).active)
        while b.resolved() is None:
            net = build_network(b)
            assert set(net.active) <= prev or prev == set()
            prev = set(net.active)
            q = select_question(net)
            target = b.candidates[0]
            b = b.apply_wh_answer(q.property, target.value(q.property))
