import dataclasses
import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from refquest.dialogue import (
    Answer,
    BaselineAgent,
    BudgetExceededError,
    HumanOracle,
    ModelAgent,
    SimOracle,
    run_episode,
)
from refquest.dnet import Question
from refquest.minset import compute_min_set
from refquest.belief import init_belief
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import (
    RandomWorldSpec,
    generate_random_world,
    spacecraft_world,
)


def test_oracle_wh_answer_is_ground_truth():
    w = spacecraft_world()
    oracle = SimOracle(w.by_id("optimizer_1"))
    a = oracle.answer(Question("color"))
    assert a.value == "red"


def test_oracle_yn_answers():
    w = spacecraft_world()
    oracle = SimOracle(w.by_id("optimizer_1"))
    assert oracle.answer(Question("color", "red")).yes is True
    assert oracle.answer(Question("color", "blue")).yes is False


def test_model_resolves_emitter_within_three_questions():
    w = spacecraft_world()
    for target in ("emitter_1", "emitter_2", "emitter_3"):
        record = run_episode(w, target, ModelAgent())
        assert record.resolved_id == target
        assert record.question_count <= 3


def test_unique_label_needs_zero_questions():
    spec = RandomWorldSpec(n_entities=4, n_varying=3, group_size=1, seed=1)
    w = generate_random_world(spec)
    record = run_episode(w, w.entities[0].id, ModelAgent())
    assert record.question_count == 0
    assert record.resolved_id == w.entities[0].id


def test_model_spacecraft_mean_questions():
    w = spacecraft_world()
    counts = [run_episode(w, e.id, ModelAgent()).question_count for e in w.entities]
    assert sum(counts) / len(counts) == pytest.approx(1.75, abs=0.25)


def test_model_wh_count_bounded_by_initial_minset():
    w = spacecraft_world()
    for e in w.entities:
        belief = init_belief(w, e.label)
        bound = len(compute_min_set(w, belief.mask))
        record = run_episode(w, e.id, ModelAgent())
        wh = sum(1 for q, _ in record.transcript if q.kind == "wh")
        assert wh <= bound


def test_model_agent_asks_each_world_its_own_first_question():
    entities = tuple(
        Entity(id=c + s, label="block", type_name="block", assignment={"color": c, "shape": s})
        for c, s in (("red", "round"), ("blue", "square"))
    )
    colors, shapes = ("color", ("red", "blue")), ("shape", ("round", "square"))
    by_color = World(PropertySchema((colors, shapes)), entities)
    by_shape = World(PropertySchema((shapes, colors)), entities)
    agent = ModelAgent()
    # both beliefs hold the same candidates; only the schema order differs
    for world, prop in ((by_color, "color"), (by_shape, "shape"), (by_color, "color")):
        assert agent.choose(init_belief(world, "block")) == Question(prop)


def run_every_model_episode(w):
    for policy in ("entropy", "data"):
        for e in w.entities:
            run_episode(w, e.id, ModelAgent(policy))


def test_a_world_memo_dies_with_its_world():
    w = generate_random_world(RandomWorldSpec(n_varying=7, seed=3))
    run_every_model_episode(w)
    assert w.min_sets and w.model_questions
    ref = weakref.ref(w)
    del w
    gc.collect()
    assert ref() is None


def test_a_warm_memo_leaves_equality_hash_and_repr_alone():
    w = generate_random_world(RandomWorldSpec(n_varying=3, seed=5))
    cold = dataclasses.replace(w)
    run_every_model_episode(w)
    assert w.model_questions and not cold.model_questions
    assert w == cold
    assert hash(w) == hash(cold)
    assert repr(w) == repr(cold)


@pytest.mark.parametrize("w", [
    dataclasses.replace(spacecraft_world()),
    generate_random_world(RandomWorldSpec(n_varying=3, seed=8)),
    generate_random_world(RandomWorldSpec(n_varying=7, seed=8)),
], ids=["spacecraft", "random-low", "random-high"])
def test_a_world_memo_holds_at_most_each_policy_trees_questions(w):
    # each policy's questions are the internal nodes of its policy trees:
    # fewer than the leaves of each label group, since every node branches
    run_every_model_episode(w)
    bound = sum(mask.bit_count() - 1 for mask in w.label_masks.values())
    for policy in ("entropy", "data"):
        assert 0 < sum(p == policy for p, _ in w.model_questions) <= bound


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 7)), st.integers(0, 2**32), st.data())
def test_model_transcripts_ignore_entity_order(n_varying, seed, data):
    # utilities read value counts only, so listing the same entities in
    # another order changes no question the model asks
    w = generate_random_world(RandomWorldSpec(n_varying=n_varying, seed=seed))
    shuffled = World(w.schema, tuple(data.draw(st.permutations(w.entities))))
    for policy in ("entropy", "data"):
        for e in w.entities:
            record = run_episode(w, e.id, ModelAgent(policy))
            assert run_episode(shuffled, e.id, ModelAgent(policy)).transcript == record.transcript


def renamed(w, prop, value, ident):
    """`w` with each property p renamed prop[p], each value v of p
    value[p, v] and each entity id i ident[i]; every order is kept."""
    schema = PropertySchema(tuple(
        (prop[p], tuple(value[p, v] for v in domain)) for p, domain in w.schema.properties
    ))
    return World(schema, tuple(
        Entity(ident[e.id], e.label, e.type_name,
               {prop[p]: value[p, v] for p, v in e.assignment.items()})
        for e in w.entities
    ))


@st.composite
def worlds_maybe_with_color(draw):
    """A low- or high-variance generated world, with one drawn property,
    varying or constant, or none, named color (model-data prefers it)."""
    w = generate_random_world(RandomWorldSpec(
        n_varying=draw(st.sampled_from((3, 7))), seed=draw(st.integers(0, 2**32))
    ))
    color = draw(st.none() | st.sampled_from(w.schema.names))
    return renamed(w, {p: "color" if p == color else p for p in w.schema.names},
                   {key: key[1] for key in w.schema.fields}, {e.id: e.id for e in w.entities})


def model_transcripts(w, targets):
    return {(policy, target): run_episode(w, target, ModelAgent(policy)).transcript
            for policy in ("entropy", "data") for target in targets}


@settings(max_examples=40, deadline=None)
@given(worlds_maybe_with_color(), st.data())
def test_model_transcripts_follow_a_renaming(w, data):
    # new names whose string order differs from the kept schema, domain and
    # entity orders; color keeps its name, because model-data asks for it by name
    def shuffled_names(prefix, n):
        return [f"{prefix}{i}" for i in data.draw(st.permutations(range(n)))]

    props = shuffled_names("q", len(w.schema.names))
    prop = {p: p if p == "color" else props[i] for i, p in enumerate(w.schema.names)}
    values = shuffled_names("v", max(len(domain) for _, domain in w.schema.properties))
    value = {(p, v): values[j] for p, domain in w.schema.properties for j, v in enumerate(domain)}
    ids = shuffled_names("id", len(w.entities))
    ident = {e.id: ids[k] for k, e in enumerate(w.entities)}
    expected = {
        (policy, ident[target]): tuple(
            (Question(prop[q.property]), Answer(value=value[q.property, a.value]))
            for q, a in transcript
        )
        for (policy, target), transcript in model_transcripts(w, ident).items()
    }
    assert model_transcripts(renamed(w, prop, value, ident), ident.values()) == expected


@settings(max_examples=40, deadline=None)
@given(worlds_maybe_with_color(), st.sampled_from(("constant", "color")),
       st.integers(1, 3), st.data())
def test_a_constant_property_changes_no_model_transcript(w, name, size, data):
    name = name if name not in w.schema.names else "constant"
    domain = tuple(f"{name}_{j}" for j in range(size))
    held = data.draw(st.sampled_from(domain))
    wider = World(PropertySchema(w.schema.properties + ((name, domain),)), tuple(
        Entity(e.id, e.label, e.type_name, {**e.assignment, name: held}) for e in w.entities
    ))
    targets = [e.id for e in w.entities]
    assert model_transcripts(wider, targets) == model_transcripts(w, targets)


@settings(max_examples=40, deadline=None)
@given(worlds_maybe_with_color(), st.data())
def test_entities_under_other_labels_change_no_model_transcript(w, data):
    taken = {tuple(e.assignment.values()) for e in w.entities}
    entities = list(w.entities)
    for k in range(data.draw(st.integers(1, 6))):
        row = tuple(data.draw(st.sampled_from(domain)) for _, domain in w.schema.properties)
        if row in taken:
            continue
        taken.add(row)
        label = data.draw(st.sampled_from(("other", f"other {k}")))
        entities.insert(data.draw(st.integers(0, len(entities))),
                        Entity(f"new{k}", label, "other", dict(zip(w.schema.names, row))))
    targets = [e.id for e in w.entities]
    crowded = World(w.schema, tuple(entities))
    assert model_transcripts(crowded, targets) == model_transcripts(w, targets)


@settings(max_examples=40, deadline=None)
@given(worlds_maybe_with_color(), st.permutations(("entropy", "data")), st.data())
def test_a_warm_memo_changes_no_model_transcript(w, policies, data):
    # each cold transcript comes from its own freshly built equal world
    targets = [e.id for e in w.entities]
    cold = {(policy, target): run_episode(dataclasses.replace(w), target, ModelAgent(policy))
            .transcript for policy in policies for target in targets}
    for order in (policies, policies[::-1]):
        shuffled = data.draw(st.permutations(targets))
        warm = {(policy, target): run_episode(w, target, ModelAgent(policy)).transcript
                for policy in order for target in shuffled}
        assert warm == cold


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 7)), st.integers(0, 2**32))
def test_model_agents_ask_no_confirm_question(n_varying, seed):
    # low- (3 varying) and high-variance (7) worlds: a confirm never scores
    # above its WH question, so the network holds none and no model asks one
    w = generate_random_world(RandomWorldSpec(n_varying=n_varying, seed=seed))
    for policy in ("entropy", "data"):
        agent = ModelAgent(policy)
        for e in w.entities:
            record = run_episode(w, e.id, agent)
            assert record.resolved_id == e.id
            assert all(q.kind == "wh" for q, _ in record.transcript)


def test_baseline_resolves_and_reproduces_under_seed():
    w = spacecraft_world()
    r1 = run_episode(w, "capacitor_2", BaselineAgent(seed=99))
    r2 = run_episode(w, "capacitor_2", BaselineAgent(seed=99))
    assert r1.resolved_id == "capacitor_2"
    assert [q for q, _ in r1.transcript] == [q for q, _ in r2.transcript]


def test_baseline_different_seed_can_differ():
    w = spacecraft_world()
    transcripts = {
        tuple(q for q, _ in run_episode(w, "capacitor_2", BaselineAgent(seed=s)).transcript)
        for s in range(20)
    }
    assert len(transcripts) > 1


def test_baseline_never_repeats_wh_property():
    w = spacecraft_world()
    for seed in range(30):
        for e in w.entities:
            record = run_episode(w, e.id, BaselineAgent(seed=seed))
            wh_props = [q.property for q, _ in record.transcript if q.kind == "wh"]
            assert len(wh_props) == len(set(wh_props))


# sha256 over every transcript's (kind, property, value, answer) tuples of
# BaselineAgent(seed=i) for the i-th entity, on spacecraft and 20 generated
# worlds; a change to how the baseline learns or draws moves it
BASELINE_TRANSCRIPTS_SHA256 = "f025fbd94a73e9770754ad73753938c4b04f9e484cb85bccb62ca13da13b7558"


def test_baseline_transcripts_are_pinned():
    worlds = [spacecraft_world()] + [
        generate_random_world(RandomWorldSpec(n_varying=v, seed=s))
        for v in (3, 7) for s in range(10)
    ]
    digest = hashlib.sha256()
    episodes = 0
    for w in worlds:
        for i, e in enumerate(w.entities):
            record = run_episode(w, e.id, BaselineAgent(seed=i))
            turns = [(q.kind, q.property, q.value, a.render()) for q, a in record.transcript]
            digest.update(repr(turns).encode())
            episodes += 1
    assert episodes == 418
    assert digest.hexdigest() == BASELINE_TRANSCRIPTS_SHA256


def test_baseline_skips_learned_property():
    w = spacecraft_world()
    agent = BaselineAgent(seed=0)
    agent.known = set(w.schema.names) - {"pattern"}
    belief = init_belief(w, "megaband module")
    for _ in range(10):
        q = agent.choose(belief)
        assert q.property == "pattern"


def test_budget_exceeded_raises():
    w = spacecraft_world()
    with pytest.raises(BudgetExceededError):
        run_episode(w, "emitter_1", ModelAgent(), max_questions=0)


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="max_questions must be 0 or more, got -3"):
        run_episode(spacecraft_world(), "emitter_1", ModelAgent(), max_questions=-3)


def test_truthful_oracle_never_contradicts():
    spec = RandomWorldSpec(n_entities=12, n_varying=5, n_properties=5, group_size=6, seed=3)
    w = generate_random_world(spec)
    for e in w.entities:
        for agent in (ModelAgent(), ModelAgent(policy="data"), BaselineAgent(seed=5)):
            record = run_episode(w, e.id, agent)
            assert record.resolved_id == e.id


def test_human_oracle_parses_and_reprompts():
    w = spacecraft_world()
    replies = iter(["purple", "red", "maybe", "no"])
    said = []
    oracle = HumanOracle(w, ask=lambda prompt: next(replies), say=said.append)
    a = oracle.answer(Question("color"))
    assert a.value == "red"
    a = oracle.answer(Question("color", "blue"))
    assert a.yes is False
    assert len(said) == 2  # one reprompt for each bad reply


def test_human_oracle_matches_case_and_keeps_domain_spelling():
    schema = PropertySchema((("color", ("Red", "Blue", "green", "GREEN")),))
    w = World(schema, tuple(
        Entity(id=v, label="w", type_name="w", assignment={"color": v})
        for v in schema.domain("color")
    ))
    replies = iter(["blue", "RED", "Green", "GREEN"])
    said = []
    oracle = HumanOracle(w, ask=lambda prompt: next(replies), say=said.append)
    q = Question("color")
    assert oracle.answer(q).value == "Blue"
    assert oracle.answer(q).value == "Red"
    # "Green" matches two values ignoring case, so it is asked again
    assert oracle.answer(q).value == "GREEN"
    assert len(said) == 1


def test_run_episode_with_scripted_human_oracle():
    w = spacecraft_world()
    target = w.by_id("emitter_2")

    def truthful(prompt):
        # prompts look like "What size is it? "
        prop = prompt.split()[1]
        return target.value(prop)

    oracle = HumanOracle(w, ask=truthful, say=lambda *a: None)
    record = run_episode(w, "emitter_2", ModelAgent(), oracle=oracle)
    assert record.resolved_id == "emitter_2"


def test_answer_render():
    assert Answer(value="red").render() == "red"
    assert Answer(yes=True).render() == "yes"
    assert Answer(yes=False).render() == "no"


def test_human_oracle_accepts_y_after_a_reprompt():
    replies = iter(["sure", "Y"])
    said = []
    oracle = HumanOracle(spacecraft_world(), ask=lambda prompt: next(replies), say=said.append)
    assert oracle.answer(Question("color", "red")).yes is True
    assert said == ["please answer yes or no"]


@pytest.mark.parametrize("policy", ["maybe", "Entropy"])
def test_model_agent_rejects_unknown_policy(policy):
    with pytest.raises(ValueError, match=f"^unknown model policy '{policy}'$"):
        ModelAgent(policy)
