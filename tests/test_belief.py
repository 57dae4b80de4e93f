from hypothesis import given, settings, strategies as st

from refquest.belief import Belief, ContradictoryAnswerError, UnknownReferentError, init_belief
from refquest.dialogue import apply_answer
from refquest.dnet import Question, wh_entropy
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world

import reference as ref
from checks import assert_built_as_constructed, assert_refused, refusals
from strategies import worlds


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
    assert ref.referent(b) == "d"


def test_a_mask_of_the_last_entity_is_its_referent():
    w = spacecraft_world()
    assert ref.referent(Belief(w, 1 << 17)) == w.entities[17].id


def test_distribution_counts():
    b = init_belief(small_world(), "widget")
    d = b.distribution("color")
    assert d.counts == {"red": 2, "blue": 1}


def test_distribution_degenerate_and_uniform():
    b = init_belief(small_world(), "widget")
    b2 = b.apply_wh_answer("color", "red")
    assert b2.distribution("color").counts == {"red": 2}
    d = b2.distribution("shape")
    assert d.counts == {"tall": 1, "short": 1}


def test_wh_answer_filters():
    b = init_belief(small_world(), "widget")
    assert b.apply_wh_answer("color", "red").candidate_ids == ("a", "b")


def test_wh_answer_matching_all_keeps_set():
    b = init_belief(small_world(), "widget").apply_wh_answer("color", "red")
    assert b.apply_wh_answer("color", "red").candidate_ids == b.candidate_ids


def test_yn_answers():
    b = init_belief(small_world(), "widget")
    assert b.apply_yn_answer("color", "red", True).candidate_ids == ("a", "b")
    assert b.apply_yn_answer("color", "red", False).candidate_ids == ("c",)


def test_yn_confirming_own_value_unchanged():
    b = init_belief(small_world(), "gadget")
    assert b.apply_yn_answer("color", "green", True).candidate_ids == ("d",)


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
        assert sum(d.counts.values()) == len(b.candidate_ids)
        assert all(c > 0 for c in d.counts.values())


def test_entropy_zero_iff_agreement():
    b = init_belief(spacecraft_world(), "sonic optimizer")
    for prop in b.world.schema.names:
        values = {b.world.by_id(i).value(prop) for i in b.candidate_ids}
        assert (wh_entropy(b.distribution(prop)) == 0) == (len(values) == 1)


def assert_matches_reference(belief, reference):
    """The mask belief against a plain list of surviving entities; counts
    are compared as ordered lists, since their order is domain order."""
    assert belief.candidate_ids == tuple(e.id for e in reference)
    assert_built_as_constructed(belief)
    assert ref.referent(belief) == (reference[0].id if len(reference) == 1 else None)
    properties = belief.world.schema.properties
    for prop, _ in properties:
        assert list(belief.distribution(prop).counts.items()) == ref.counts(
            properties, reference, prop)


@settings(max_examples=100, deadline=None)
@given(worlds(), st.data())
def test_mask_belief_matches_tuple_filter_reference(w, data):
    target = data.draw(st.sampled_from(w.entities))
    belief = init_belief(w, target.label)
    reference = [e for e in w.entities if e.label == target.label]
    for _ in range(data.draw(st.integers(0, 6))):
        assert_matches_reference(belief, reference)
        prop, domain = data.draw(st.sampled_from(w.schema.properties))
        value = data.draw(st.none() | st.sampled_from(domain))  # None asks the WH question
        word = ref.answer(target, (prop, value))
        belief = apply_answer(belief, Question(prop, value), word)
        reference = ref.keep(reference, (prop, value), word)
    assert_matches_reference(belief, reference)
    # a caller's mask is still checked, whatever the engine skips
    mask = belief.mask | 1 << data.draw(st.integers(len(w.entities), len(w.entities) + 70))
    assert_refused(lambda: Belief(w, mask), ValueError,
                   f"candidate mask {mask:#x} has bits beyond the world's"
                   f" {len(w.entities)} entities")


def widgets():
    return init_belief(small_world(), "widget")


NOT_IN_DOMAIN = "value 'mauve' not in domain of property 'color'"
EMPTIED = "answer {} to color='green' eliminates all candidates"


@refusals({
    "test_mask_beyond_the_world_is_named": (
        lambda: Belief(spacecraft_world(), 1 << 18), ValueError,
        "candidate mask 0x40000 has bits beyond the world's 18 entities"),
    # a stray bit beside a real candidate is named too, not read as resolved
    "test_mask_beyond_the_world_is_named-stray": (
        lambda: Belief(spacecraft_world(), (1 << 18) | 1), ValueError,
        "candidate mask 0x40001 has bits beyond the world's 18 entities"),
    "test_init_belief_unknown_label": (lambda: init_belief(small_world(), "flux widget"),
                                       UnknownReferentError, "no entity labelled 'flux widget'"),
    "test_wh_answer_contradiction": (
        lambda: widgets().apply_wh_answer("color", "green"), ContradictoryAnswerError,
        "no candidate has color='green' (answer contradicts evidence)"),
    "test_value_outside_domain_rejected-wh": (
        lambda: widgets().apply_wh_answer("color", "mauve"), KeyError, NOT_IN_DOMAIN),
    "test_value_outside_domain_rejected-yn": (
        lambda: widgets().apply_yn_answer("color", "mauve", False), KeyError, NOT_IN_DOMAIN),
    "test_unknown_property_rejected-wh": (
        lambda: widgets().apply_wh_answer("colour", "red"), KeyError, "unknown property 'colour'"),
    "test_unknown_property_rejected-yn": (lambda: widgets().apply_yn_answer("colour", "red", True),
                                          KeyError, "unknown property 'colour'"),
    "test_unknown_property_rejected-distribution": (
        lambda: widgets().distribution("colour"), KeyError, "unknown property 'colour'"),
    "test_confirm_that_empties_the_candidates_is_refused-no": (
        lambda: init_belief(small_world(), "gadget").apply_yn_answer("color", "green", False),
        ContradictoryAnswerError, EMPTIED.format("no")),
    "test_confirm_that_empties_the_candidates_is_refused-yes": (
        lambda: widgets().apply_yn_answer("color", "green", True),
        ContradictoryAnswerError, EMPTIED.format("yes")),
})
def test_refused_word_for_word(call, error, message):
    assert_refused(call, error, message)
