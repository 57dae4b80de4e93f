import pytest
from hypothesis import given, settings, strategies as st

from refquest.belief import Belief, ContradictoryAnswerError, UnknownReferentError, init_belief
from refquest.dnet import wh_entropy
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import RandomWorldSpec, generate_random_world, spacecraft_world


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


def test_mask_beyond_the_world_is_named():
    w = spacecraft_world()
    with pytest.raises(ValueError,
                       match=r"^candidate mask 0x40000 has bits beyond the world's 18 entities$"):
        Belief(w, 1 << 18)
    # a stray bit beside a real candidate is named too, not read as resolved
    with pytest.raises(ValueError, match=r"^candidate mask 0x40001 has bits beyond"):
        Belief(w, (1 << 18) | 1)
    assert Belief(w, 1 << 17).resolved() == w.entities[17].id


def test_init_belief_unknown_label():
    with pytest.raises(UnknownReferentError):
        init_belief(small_world(), "flux widget")


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
    with pytest.raises(KeyError, match="value 'mauve' not in domain of property 'color'"):
        b.apply_wh_answer("color", "mauve")
    with pytest.raises(KeyError, match="value 'mauve' not in domain of property 'color'"):
        b.apply_yn_answer("color", "mauve", False)


def test_unknown_property_rejected():
    b = init_belief(small_world(), "widget")
    with pytest.raises(KeyError, match="unknown property 'colour'"):
        b.apply_wh_answer("colour", "red")
    with pytest.raises(KeyError, match="unknown property 'colour'"):
        b.apply_yn_answer("colour", "red", True)


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


@st.composite
def shuffled_worlds(draw):
    """Generated worlds with their entity lists shuffled, so label groups
    interleave; some hold more than 64 entities, past one machine word."""
    n_properties = draw(st.integers(4, 7))
    if draw(st.booleans()):
        n_varying, values = draw(st.integers(4, n_properties)), 4
        n_entities = draw(st.integers(65, 130))
    else:
        n_varying, values = draw(st.integers(1, n_properties)), draw(st.integers(2, 4))
        n_entities = draw(st.integers(1, min(24, values ** n_varying)))
    w = generate_random_world(RandomWorldSpec(
        n_entities=n_entities,
        n_properties=n_properties,
        n_varying=n_varying,
        values_per_property=values,
        group_size=draw(st.integers(1, n_entities)),
        seed=draw(st.integers(0, 2**32)),
    ))
    return World(w.schema, tuple(draw(st.permutations(w.entities))))


def assert_matches_reference(belief, reference):
    """The mask belief against a plain tuple of surviving entities."""
    assert belief.candidate_ids == tuple(e.id for e in reference)
    assert belief.resolved() == (reference[0].id if len(reference) == 1 else None)
    for prop in belief.world.schema.names:
        counts: dict[str, int] = {}
        for e in reference:
            counts[e.value(prop)] = counts.get(e.value(prop), 0) + 1
        domain = belief.world.schema.domain(prop)
        expected = [(v, counts[v]) for v in domain if v in counts]
        assert list(belief.distribution(prop).counts.items()) == expected


@settings(max_examples=100, deadline=None)
@given(shuffled_worlds(), st.data())
def test_mask_belief_matches_tuple_filter_reference(w, data):
    target = data.draw(st.sampled_from(w.entities))
    belief = init_belief(w, target.label)
    reference = tuple(e for e in w.entities if e.label == target.label)
    for _ in range(data.draw(st.integers(0, 6))):
        assert_matches_reference(belief, reference)
        prop = data.draw(st.sampled_from(w.schema.names))
        if data.draw(st.booleans()):
            value = target.value(prop)
            belief = belief.apply_wh_answer(prop, value)
            reference = tuple(e for e in reference if e.value(prop) == value)
        else:
            value = data.draw(st.sampled_from(w.schema.domain(prop)))
            yes = target.value(prop) == value
            belief = belief.apply_yn_answer(prop, value, yes)
            reference = tuple(e for e in reference if (e.value(prop) == value) == yes)
    assert_matches_reference(belief, reference)


@pytest.mark.parametrize("label, yes, message", [
    ("gadget", False, "answer no to color='green' eliminates all candidates"),
    ("widget", True, "answer yes to color='green' eliminates all candidates"),
], ids=["no", "yes"])
def test_confirm_that_empties_the_candidates_is_refused(label, yes, message):
    b = init_belief(small_world(), label)
    with pytest.raises(ContradictoryAnswerError) as exc:
        b.apply_yn_answer("color", "green", yes)
    assert str(exc.value) == message
