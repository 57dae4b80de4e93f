import pytest

from refquest.belief import ContradictoryAnswerError, UnknownReferentError, init_belief
from refquest.dnet import wh_entropy
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world


def small_world():
    schema = PropertySchema((("color", ("red", "blue", "green")),
                             ("shape", ("tall", "short"))))
    ents = (
        Entity("a", "widget", "widget", {"color": "red", "shape": "tall"}),
        Entity("b", "widget", "widget", {"color": "red", "shape": "short"}),
        Entity("c", "widget", "widget", {"color": "blue", "shape": "tall"}),
        Entity("d", "gadget", "gadget", {"color": "green", "shape": "tall"}),
    )
    return World(schema, ents)


def test_init_belief_spacecraft_emitter():
    b = init_belief(spacecraft_world(), "temporal emitter")
    assert len(b.candidate_ids) == 3


def test_init_belief_unique_label_already_resolved():
    b = init_belief(small_world(), "gadget")
    assert b.resolved() == "d"


def test_init_belief_unknown_label():
    with pytest.raises(UnknownReferentError):
        init_belief(small_world(), "flux widget")


def test_distribution_counts():
    b = init_belief(small_world(), "widget")
    d = b.distribution("color")
    assert d.probs == {"red": pytest.approx(2 / 3), "blue": pytest.approx(1 / 3)}


def test_distribution_degenerate_and_uniform():
    b = init_belief(small_world(), "widget")
    b2 = b.apply_wh_answer("color", "red")
    assert b2.distribution("color").probs == {"red": 1.0}
    d = b2.distribution("shape")
    assert d.probs == {"tall": 0.5, "short": 0.5}


def test_wh_answer_filters():
    b = init_belief(small_world(), "widget")
    assert b.apply_wh_answer("color", "red").candidate_ids == ("a", "b")


def test_wh_answer_matching_all_keeps_set():
    b = init_belief(small_world(), "widget").apply_wh_answer("color", "red")
    assert b.apply_wh_answer("color", "red").candidate_ids == b.candidate_ids


def test_wh_answer_contradiction():
    b = init_belief(small_world(), "widget")
    with pytest.raises(ContradictoryAnswerError):
        b.apply_wh_answer("color", "green")


def test_yn_answers():
    b = init_belief(small_world(), "widget")
    assert b.apply_yn_answer("color", "red", True).candidate_ids == ("a", "b")
    assert b.apply_yn_answer("color", "red", False).candidate_ids == ("c",)


def test_yn_confirming_own_value_unchanged():
    b = init_belief(small_world(), "gadget")
    assert b.apply_yn_answer("color", "green", True).candidate_ids == ("d",)


def test_value_outside_domain_rejected():
    b = init_belief(small_world(), "widget")
    with pytest.raises(KeyError):
        b.apply_wh_answer("color", "mauve")


def test_updates_never_grow_candidates():
    b = init_belief(small_world(), "widget")
    for prop, value, yes in (("shape", "tall", True), ("color", "red", True)):
        nxt = b.apply_yn_answer(prop, value, yes)
        assert set(nxt.candidate_ids) <= set(b.candidate_ids)
        b = nxt


def test_distribution_normalizes():
    b = init_belief(spacecraft_world(), "sonic optimizer")
    for prop in b.world.schema.names:
        d = b.distribution(prop)
        assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0 for p in d.probs.values())


def test_entropy_zero_iff_agreement():
    b = init_belief(spacecraft_world(), "sonic optimizer")
    for prop in b.world.schema.names:
        values = {e.value(prop) for e in b.candidates}
        assert (wh_entropy(b.distribution(prop)) == 0) == (len(values) == 1)
