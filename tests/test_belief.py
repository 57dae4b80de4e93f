from hypothesis import given, settings, strategies as st

from refquest.belief import (
    Belief, ContradictoryAnswerError, PropertyDistribution, UnknownReferentError, init_belief)
from refquest.dialogue import apply_answer
from refquest.dnet import Question, wh_entropy
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import spacecraft_world

import reference as ref
from checks import assert_built_as_constructed, assert_refused, examples, refusals
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


def widgets():
    return init_belief(small_world(), "widget")


def gadgets():
    return init_belief(small_world(), "gadget")


@examples({
    "test_init_belief_spacecraft_emitter": (
        lambda: init_belief(spacecraft_world(), "temporal emitter").candidate_ids,
        ("emitter_1", "emitter_2", "emitter_3")),
    "test_init_belief_unique_label_already_resolved": (lambda: gadgets().candidate_ids, ("d",)),
    "test_a_mask_of_the_last_entity_is_its_referent": (
        lambda: ref.referent(Belief(spacecraft_world(), 1 << 17)), "emitter_3"),
    "test_distribution_counts": (lambda: widgets().distribution("color"),
                                 PropertyDistribution("color", {"red": 2, "blue": 1})),
    **{f"test_distribution_degenerate_and_uniform-{prop}": (
        lambda prop=prop: widgets().apply_wh_answer("color", "red").distribution(prop),
        PropertyDistribution(prop, counts))
       for prop, counts in (("color", {"red": 2}), ("shape", {"tall": 1, "short": 1}))},
    "test_wh_answer_filters": (lambda: widgets().apply_wh_answer("color", "red").candidate_ids,
                               ("a", "b")),
    "test_wh_answer_matching_all_keeps_set": (
        lambda: widgets().apply_wh_answer("color", "red").apply_wh_answer("color", "red")
        .candidate_ids, ("a", "b")),
    **{f"test_yn_answers-{word}": (
        lambda yes=yes: widgets().apply_yn_answer("color", "red", yes).candidate_ids, ids)
       for word, yes, ids in (("yes", True, ("a", "b")), ("no", False, ("c",)))},
    "test_yn_confirming_own_value_unchanged": (
        lambda: gadgets().apply_yn_answer("color", "green", True).candidate_ids, ("d",)),
})
def test_worked_example(call, expected):
    assert call() == expected


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
        lambda: gadgets().apply_yn_answer("color", "green", False),
        ContradictoryAnswerError, EMPTIED.format("no")),
    "test_confirm_that_empties_the_candidates_is_refused-yes": (
        lambda: widgets().apply_yn_answer("color", "green", True),
        ContradictoryAnswerError, EMPTIED.format("yes")),
})
def test_refused_word_for_word(call, error, message):
    assert_refused(call, error, message)
