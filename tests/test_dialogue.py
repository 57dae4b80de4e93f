import dataclasses
import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from refquest.dialogue import (
    BaselineAgent,
    BudgetExceededError,
    EpisodeRecord,
    HumanOracle,
    ModelAgent,
    SimOracle,
    apply_answer,
    run_episode,
)
import refquest.dialogue
from refquest.bench import ENVIRONMENTS, SYSTEMS, make_agent, world_for
from refquest.dnet import (
    DecisionNetwork, NoInformativeQuestionError, Question, build_network, select_question)
from refquest.minset import compute_min_set
from refquest.belief import Belief, init_belief
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import RandomWorldSpec, generate_random_world, spacecraft_world

import reference as ref
from checks import (
    assert_built_as_constructed, assert_refused, bits, examples, recorded_calls, refusals,
    run_python)
from strategies import random_world_specs, worlds

# the paper's spacecraft world, turn by turn: each label group's root
# min-set, its data utilities, and each target's words said in answer to
# the min-set's questions in turn. Both model policies ask alike, and under
# entropy every root question scores a 2:1 split's bits
SPACECRAFT = {
    "sonic optimizer": (("color", "texture"), (2.0, 1.0), {
        "optimizer_1": ("red", "wood"), "optimizer_2": ("red", "coarse"),
        "optimizer_3": ("blue",)}),
    "quantum calibrator": (("shape", "size"), (1.0, 1.0), {
        "calibrator_1": ("tall", "small"), "calibrator_2": ("tall", "medium"),
        "calibrator_3": ("wide",)}),
    "megaband module": (("shape", "symbol"), (1.0, 1.0), {
        "module_1": ("narrow", "o"), "module_2": ("narrow", "-"), "module_3": ("short",)}),
    "flux synthesizer": (("color", "shape"), (2.0, 1.0), {
        "synthesizer_1": ("green", "wide"), "synthesizer_2": ("green", "short"),
        "synthesizer_3": ("yellow",)}),
    "tesla capacitor": (("color", "texture"), (2.0, 1.0), {
        "capacitor_1": ("blue", "smooth"), "capacitor_2": ("blue", "wood"),
        "capacitor_3": ("red",)}),
    "temporal emitter": (("size", "symbol"), (1.0, 1.0), {
        "emitter_1": ("medium", "+"), "emitter_2": ("medium", "x"), "emitter_3": ("large",)}),
}
H = bits(0.9182958340544896)
RECORDS = {target: EpisodeRecord(label, target, target, tuple(zip(map(Question, root), words)))
           for label, (root, _, targets) in SPACECRAFT.items() for target, words in targets.items()}
EMITTERS = ("emitter_1", "emitter_2", "emitter_3")


def test_the_spacecraft_pins_keep_the_bounds_their_tests_asserted():
    # every target resolves, in no more WH questions than its root min-set
    # holds, and an emitter in at most 3; the mean, 30/18, is within 0.25 of 1.75
    counts = [record.question_count for record in RECORDS.values()]
    assert all(record.resolved_id == target for target, record in RECORDS.items())
    assert all(len(words) <= len(root) for root, _, targets in SPACECRAFT.values()
               for words in targets.values())
    assert max(RECORDS[target].question_count for target in EMITTERS) <= 3
    assert Fraction(sum(counts), len(counts)) == Fraction(30, 18)
    assert abs(sum(counts) / len(counts) - 1.75) <= 0.25


def spacecraft_rows(policy):
    """The spacecraft table's rows under `policy`, each on a fresh world."""
    def episodes(targets, **kwargs):
        w = spacecraft_world()
        return {target: run_episode(w, target, ModelAgent(policy), **kwargs) for target in targets}

    def root_networks():
        w = spacecraft_world()
        return {label: build_network(init_belief(w, label), policy) for label in w.label_masks}

    return {
        f"test_model_wh_count_bounded_by_initial_minset-{policy}": (root_networks, {
            label: DecisionNetwork(tuple(map(Question, root)), dict(zip(
                map(Question, root), (H, H) if policy == "entropy" else data)))
            for label, (root, data, _) in SPACECRAFT.items()}),
        f"test_model_spacecraft_mean_questions-{policy}": (lambda: episodes(RECORDS), RECORDS),
        f"test_model_resolves_emitter_within_three_questions-{policy}": (
            lambda: episodes(EMITTERS), {target: RECORDS[target] for target in EMITTERS}),
        # a budget of 2 allows emitter_1's 2 questions, 1 or 0 does not
        # (test_refused_word_for_word)
        f"test_a_budget_of_two_resolves_emitter_1-{policy}": (
            lambda: episodes(["emitter_1"], max_questions=2), {"emitter_1": RECORDS["emitter_1"]}),
    }


def one_property_world(values, domain=None):
    """One entity per color value, all under one label; the colors are
    `domain`, or else `values`."""
    schema = PropertySchema((("color", tuple(domain or values)),))
    return World(schema, tuple(
        Entity(id=f"e{i}", label="w", type_name="w", assignment={"color": v})
        for i, v in enumerate(values)
    ))


def heard(world, replies, *questions):
    """Each word a HumanOracle on `world` returns for `questions`, asked in
    turn and answered by `replies`, and every line it says."""
    replies, said = iter(replies), []
    oracle = HumanOracle(world, ask=lambda prompt: next(replies), say=said.append)
    return [oracle.answer(q) for q in questions], said


def optimizer_1_says(q):
    return SimOracle(spacecraft_world().by_id("optimizer_1")).answer(q)


COLOR = Question("color")
UNKNOWN = "unknown color; expected one of: "


@examples({
    **spacecraft_rows("entropy"), **spacecraft_rows("data"),
    "test_unique_label_needs_zero_questions": (
        lambda: run_episode(generate_random_world(RandomWorldSpec(
            n_entities=4, n_varying=3, group_size=1, seed=1)), "e01", ModelAgent()),
        EpisodeRecord("type1 widget", "e01", "e01", ())),
    # a prompt reads "What size is it? ", and the reply is the target's value
    "test_run_episode_with_scripted_human_oracle": (
        lambda: run_episode(w := spacecraft_world(), "emitter_2", ModelAgent(), oracle=HumanOracle(
            w, ask=lambda prompt: w.by_id("emitter_2").value(prompt.split()[1]), say=pytest.fail)),
        RECORDS["emitter_2"]),
    "test_oracle_wh_answer_is_ground_truth": (lambda: optimizer_1_says(COLOR), "red"),
    **{f"test_oracle_yn_answers-{value}": (
        lambda value=value: optimizer_1_says(Question("color", value)), word)
       for value, word in (("red", "yes"), ("blue", "no"))},
    "test_human_oracle_parses_and_reprompts": (
        lambda: heard(spacecraft_world(), ["purple", "red", "maybe", "no"],
                      COLOR, Question("color", "blue")),
        (["red", "no"], [UNKNOWN + "'red', 'yellow', 'blue', 'green'", "please answer yes or no"])),
    # "Green" matches two values ignoring case, so it is asked again
    "test_human_oracle_matches_case_and_keeps_domain_spelling": (
        lambda: heard(one_property_world(["Red", "Blue", "green", "GREEN"]),
                      ["blue", "RED", "Green", "GREEN"], COLOR, COLOR, COLOR),
        (["Blue", "Red", "GREEN"], ["ambiguous color 'Green'; it matches: 'green', 'GREEN'"])),
    "test_human_oracle_matches_values_stripped_and_keeps_their_spelling": (
        lambda: heard(one_property_world(["red ", "blue"]), ["red", "Blue "], COLOR, COLOR),
        (["red ", "blue"], [])),
    # stripped, "Red" matches one value, before it matches two ignoring case
    "test_human_oracle_matches_values_stripped_and_keeps_their_spelling-before-case": (
        lambda: heard(one_property_world(["Red ", "red"]), ["Red"], COLOR), (["Red "], [])),
    "test_human_oracle_reply_as_typed_picks_one_of_two_values_equal_when_stripped": (
        lambda: heard(one_property_world(["red", "red "]), ["red ", "red", " red", "red"],
                      COLOR, COLOR, COLOR),
        (["red ", "red", "red"], ["ambiguous color 'red'; it matches: 'red', 'red '"])),
    "test_human_oracle_quotes_the_values_it_expects": (
        lambda: heard(one_property_world(["red ", "blue"]), ["red", "purple", "blue"],
                      COLOR, COLOR),
        (["red ", "blue"], [UNKNOWN + "'red ', 'blue'"])),
    # no entity is green, but green is a color of the schema's
    "test_human_oracle_expects_every_domain_value_carried_or_not": (
        lambda: heard(one_property_world(["red", "blue"], domain=["red", "blue", "green"]),
                      ["purple", "Green"], COLOR),
        (["green"], [UNKNOWN + "'red', 'blue', 'green'"])),
    "test_human_oracle_accepts_y_after_a_reprompt": (
        lambda: heard(spacecraft_world(), ["sure", "Y"], Question("color", "red")),
        (["yes"], ["please answer yes or no"])),
})
def test_worked_example(call, expected):
    assert call() == expected


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
    # a slotted World takes no weakref, so the live Worlds are counted instead
    def live_worlds():
        return sum(type(o) is World for o in gc.get_objects())

    gc.collect()
    before = live_worlds()
    w = generate_random_world(RandomWorldSpec(n_varying=7, seed=3))
    run_every_model_episode(w)
    assert w.min_sets and w.model_questions
    for memo in ("min_sets", "model_questions"):
        assert gc.get_referrers(getattr(w, memo)) == [w]
    del w
    gc.collect()
    assert live_worlds() == before


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


@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_world_memos_key_on_ints_never_on_engine_objects(environment):
    # Belief, PropertyDistribution, DecisionNetwork and EpisodeRecord are not
    # frozen, so no memo may key on one: a changed key would corrupt it
    w = dataclasses.replace(world_for(environment, 7, RandomWorldSpec.n_entities))
    for system in SYSTEMS:
        for i, e in enumerate(w.entities):
            run_episode(w, e.id, make_agent(system, i))
    assert w.min_sets and w.model_questions
    assert all(type(mask) is int for mask in w.min_sets)
    assert all(type(key) is tuple and len(key) == 2
               and type(key[0]) is str and type(key[1]) is int for key in w.model_questions)


def test_a_warm_turn_builds_no_question_and_checks_no_mask():
    worlds = [spacecraft_world(), generate_random_world(RandomWorldSpec(n_varying=7, seed=3))]

    def play():
        for w in worlds:
            for system in SYSTEMS:
                for i, e in enumerate(w.entities):
                    run_episode(w, e.id, make_agent(system, i))

    play()  # every target once: each world's memo is now warm
    points = [(Question, "__init__"), (Belief, "__post_init__")]
    with recorded_calls(points) as calls:
        play()
        assert [len(calls[point]) for point in points] == [0, 0]
        # the recorder sees what a caller builds
        Question("color")
        Belief(worlds[0], 1)
        assert [len(calls[point]) for point in points] == [1, 1]


@settings(max_examples=40, deadline=None)
@given(worlds(), st.integers(min_value=0), st.data())
def test_every_question_asked_is_the_schemas_tabled_one(w, seed, data):
    table = w.schema.questions
    targets = data.draw(st.lists(st.sampled_from(w.entities), min_size=1, max_size=6))
    for system in SYSTEMS:
        for i, e in enumerate(targets):
            record = run_episode(w, e.id, make_agent(system, seed + i))
            assert all(q is table[q.property, q.value] for q, _ in record.transcript)


def test_a_baseline_confirm_is_the_question_its_row_tables():
    w = spacecraft_world()
    belief = init_belief(w, "megaband module")
    confirms = 0
    for seed in range(40):
        q = BaselineAgent(seed).choose(belief)
        if q.value is not None:
            confirms += 1
            assert q is w.schema.questions[q.property, q.value]
            assert belief.mask & w.value_masks[q.property][q.value]
    assert confirms


@settings(max_examples=60, deadline=None)
@given(worlds(kinds=("small", "wide")), st.data())
def test_model_transcripts_ignore_entity_order(w, data):
    # utilities read value counts only, so listing the same entities in
    # another order changes no question the model asks
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


def model_transcripts(w, targets):
    return {(policy, target): run_episode(w, target, ModelAgent(policy)).transcript
            for policy in ("entropy", "data") for target in targets}


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")), st.data())
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
            (Question(prop[q.property]), value[q.property, word])
            for q, word in transcript
        )
        for (policy, target), transcript in model_transcripts(w, ident).items()
    }
    assert model_transcripts(renamed(w, prop, value, ident), ident.values()) == expected


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")), st.sampled_from(("constant", "color")),
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
@given(worlds(kinds=("small", "wide")), st.data())
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
@given(worlds(kinds=("small", "wide")), st.permutations(("entropy", "data")), st.data())
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
@given(worlds(kinds=("small", "wide")))
def test_model_agents_ask_no_confirm_question(w):
    # a confirm never scores above its WH question, so the network holds
    # none and no model asks one
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
            turns = [(q.kind, q.property, q.value, a) for q, a in record.transcript]
            digest.update(repr(turns).encode())
            episodes += 1
    assert episodes == 418
    assert digest.hexdigest() == BASELINE_TRANSCRIPTS_SHA256


def test_baseline_skips_learned_property():
    w = spacecraft_world()
    agent = BaselineAgent(seed=0)
    # color was asked last, and every megaband module is green, so color is
    # learned; of the rest, only pattern is unlearned
    agent.asked, agent.unknown = "color", ["color", "pattern"]
    belief = init_belief(w, "megaband module")
    for _ in range(10):
        q = agent.choose(belief)
        assert q.property == "pattern"
    assert agent.unknown == ["pattern"]


def test_one_baseline_agent_serves_episodes_in_turn():
    # each episode starts with nothing learned: an agent that kept what its
    # last episodes had learned ran out of properties on the fourth target
    w = spacecraft_world()
    agent = BaselineAgent(3)
    targets = [e.id for e in w.entities[:6]]
    records = [run_episode(w, target, agent) for target in targets]
    assert [r.resolved_id for r in records] == targets
    assert records[0] == run_episode(w, targets[0], BaselineAgent(3))


def compare_baselines(w: World, seed: int, target_id: str) -> list[int]:
    """Run the baseline and the reference's options-list baseline in
    lockstep on one target and check that they ask the same question, hold
    the same unlearned list and draw the same randomness every turn. Returns,
    for each confirm answered no, how many of its property's values the
    candidates still carry."""
    agent, reference = BaselineAgent(seed), ref.Baseline(seed)
    target, properties = w.by_id(target_id), w.schema.properties
    belief = init_belief(w, target.label)
    candidates = [e for e in w.entities if e.label == target.label]
    left_after_no = []
    while len(candidates) > 1:
        q = agent.choose(belief)
        question = (q.property, q.value)
        assert reference.choose(properties, candidates) == question
        assert agent.unknown == [p for p in w.schema.names if p not in reference.known]
        assert agent.rng.getstate() == reference.rng.getstate()
        word = ref.answer(target, question)
        belief = apply_answer(belief, q, word)
        candidates = ref.keep(candidates, question, word)
        if word == "no":
            left_after_no.append(len(ref.counts(properties, candidates, q.property)))
    return left_after_no


def left_after_every_no(case):
    w, seed = case
    return [n for i, e in enumerate(w.entities) for n in compare_baselines(w, seed + i, e.id)]


baseline_cases = st.tuples(worlds(kinds=("small", "wide")), st.integers(min_value=0))


@settings(max_examples=80, deadline=None)
@given(baseline_cases)
def test_baseline_index_draw_asks_what_the_options_list_asked(case):
    left_after_every_no(case)


def test_baseline_comparison_worlds_hold_no_answers_leaving_one_and_several_values():
    # the worlds the comparison above draws from do confirm "no" answers
    # that settle a property and ones that leave it open
    first_found = settings(phases=[Phase.generate], database=None)
    find(baseline_cases, lambda case: 1 in left_after_every_no(case), settings=first_found)
    find(baseline_cases, lambda case: max(left_after_every_no(case), default=0) > 1,
         settings=first_found)


def test_baseline_reads_no_distribution(monkeypatch):
    def refuse(self, prop):
        raise AssertionError(f"distribution({prop!r}) read by the baseline")

    worlds = [spacecraft_world(), generate_random_world(RandomWorldSpec(n_varying=7, seed=1))]
    monkeypatch.setattr(Belief, "distribution", refuse)
    for w in worlds:
        for i, e in enumerate(w.entities):
            assert run_episode(w, e.id, BaselineAgent(seed=i)).resolved_id == e.id
    # the entropy utilities do read it
    with pytest.raises(AssertionError, match="distribution"):
        build_network(init_belief(worlds[1], worlds[1].entities[0].label))


def test_truthful_oracle_never_contradicts():
    spec = RandomWorldSpec(n_entities=12, n_varying=5, n_properties=5, group_size=6, seed=3)
    w = generate_random_world(spec)
    for e in w.entities:
        for agent in (ModelAgent(), ModelAgent(policy="data"), BaselineAgent(seed=5)):
            record = run_episode(w, e.id, agent)
            assert record.resolved_id == e.id


@settings(max_examples=40, deadline=None)
@given(worlds(kinds=("small", "wide")), st.integers(min_value=0))
def test_each_word_is_the_oracles_and_the_transcript_folds_to_the_referent(w, baseline_seed):
    for system in SYSTEMS:
        for i, e in enumerate(w.entities):
            record = run_episode(w, e.id, make_agent(system, baseline_seed + i))
            oracle, belief = SimOracle(e), init_belief(w, record.instruction_label)
            for q, word in record.transcript:
                assert word == oracle.answer(q)
                belief = apply_answer(belief, q, word)
            assert ref.referent(belief) == record.resolved_id == e.id


# the turn's probe points: the names perfbench/tracer.py wraps, on the
# owner each caller looks them up on
PROBE_POINTS = (
    (Belief, "apply_wh_answer"), (Belief, "apply_yn_answer"), (SimOracle, "answer"),
    (ModelAgent, "choose"), (BaselineAgent, "choose"), (World, "by_id"),
    (refquest.dialogue, "build_network"), (refquest.dialogue, "select_question"),
)


@settings(max_examples=40, deadline=None)
@given(worlds(), st.integers(min_value=0))
def test_every_turn_passes_each_probe_point_once(w, seed):
    w = dataclasses.replace(w)  # a cold memo: every model question is built here
    questions = Counter()
    with recorded_calls(PROBE_POINTS) as calls:
        for system in SYSTEMS:
            for i, e in enumerate(w.entities):
                record = run_episode(w, e.id, make_agent(system, seed + i))
                questions[system == "baseline"] += record.question_count
    n = {point: len(log) for point, log in calls.items()}
    turns = questions[False] + questions[True]
    assert n[Belief, "apply_wh_answer"] + n[Belief, "apply_yn_answer"] == turns
    assert n[SimOracle, "answer"] == turns
    assert n[ModelAgent, "choose"] == questions[False]
    assert n[BaselineAgent, "choose"] == questions[True]
    assert n[World, "by_id"] == len(SYSTEMS) * len(w.entities)
    assert n[refquest.dialogue, "build_network"] == n[refquest.dialogue, "select_question"] == (
        len(networked(w)))


def networked(w):
    """The (policy, mask) memo entries of `w` whose min-set has two or more
    properties: the ones a model agent builds a network for."""
    return [key for key in w.model_questions if len(w.min_sets[key[1]]) >= 2]


@settings(max_examples=60, deadline=None)
@given(worlds(kinds=("small", "wide")))
def test_a_model_agent_asks_what_its_network_selects_and_builds_none_for_one_question(w):
    w = dataclasses.replace(w)  # a cold memo: every model question is built here
    point = (refquest.dialogue, "build_network")
    with recorded_calls([point]) as calls:
        records = [(policy, run_episode(w, e.id, ModelAgent(policy)))
                   for policy in ("entropy", "data") for e in w.entities]
    built = [(c.kwargs["policy"], c.args[0].mask) for c in calls[point]]
    visited = set()
    for policy, record in records:
        belief = init_belief(w, record.instruction_label)
        for q, word in record.transcript:
            assert q == select_question(build_network(belief, policy))
            visited.add((policy, belief.mask))
            belief = apply_answer(belief, q, word)
    assert len(built) == len(set(built))
    assert set(built) == {(policy, mask) for policy, mask in visited
                          if len(compute_min_set(w, mask)) >= 2}


@settings(max_examples=40, deadline=None)
@given(worlds(), st.integers(min_value=0), st.data())
def test_records_and_beliefs_are_built_as_their_constructors_build_them(w, seed, data):
    targets = data.draw(st.lists(st.sampled_from(w.entities), min_size=1, max_size=6))
    for system in SYSTEMS:
        for i, e in enumerate(targets):
            record = run_episode(w, e.id, make_agent(system, seed + i))
            assert_built_as_constructed(record)
            belief = init_belief(w, record.instruction_label)
            assert_built_as_constructed(belief)
            for q, word in record.transcript:
                belief = apply_answer(belief, q, word)
                assert_built_as_constructed(belief)
            assert record.resolved_id == ref.referent(belief) == e.id


@settings(max_examples=40, deadline=None)
@given(worlds(), st.integers(min_value=0))
def test_distributions_and_networks_are_built_as_their_constructors_build_them(w, seed):
    w = dataclasses.replace(w)  # a cold memo: every model question is built here
    with recorded_calls([(Belief, "distribution"), (refquest.dialogue, "build_network")]) as calls:
        for system in SYSTEMS:
            for i, e in enumerate(w.entities):
                run_episode(w, e.id, make_agent(system, seed + i))
    distributions = calls[Belief, "distribution"]
    networks = calls[refquest.dialogue, "build_network"]
    # a network is built only for a min-set of two or more properties
    assert len(networks) == len(networked(w))
    assert all(len(c.result.questions) >= 2 for c in networks)
    # an entropy network reads one distribution per question it scores
    assert len(distributions) == sum(
        len(c.result.questions) for c in networks if c.kwargs["policy"] == "entropy")
    for c in distributions + networks:
        assert_built_as_constructed(c.result)


@settings(max_examples=40, deadline=None)
@given(random_world_specs(refused=False))
def test_generated_entities_are_built_as_their_constructor_builds_them(spec):
    for e in generate_random_world(spec).entities:
        assert_built_as_constructed(e)


@pytest.mark.parametrize("seed", range(50))
def test_the_baselines_draws_are_random_randbelows(seed):
    for n in range(1, 71):
        rng, expected = random.Random(seed), random.Random(seed)
        drawn = [refquest.dialogue._draw(rng.getrandbits, n) for _ in range(5)]
        assert drawn == [expected._randbelow(n) for _ in range(5)]
        assert rng.getstate() == expected.getstate()


def test_a_baseline_with_nothing_to_draw_from_raises_instead_of_hanging():
    # Random._randbelow(0) never returns, where choice raised IndexError; the
    # baseline draws through _randbelow, so this runs in a child process
    # that a timeout stops
    code = """if True:
        from refquest.belief import Belief, init_belief
        from refquest.dialogue import BaselineAgent
        from refquest.worlds import spacecraft_world

        def outcome(agent, belief):
            try:
                return agent.choose(belief).kind
            except IndexError as exc:
                return f"IndexError: {exc}"

        w = spacecraft_world()
        agent = BaselineAgent(seed=0)
        # color, asked last, is learned: every megaband module is green
        agent.asked, agent.unknown = "color", ["color"]  # nothing else unlearned
        print(outcome(agent, init_belief(w, "megaband module")))
        # no candidates: a WH draw asks, a confirm has no value to draw
        print(sorted({outcome(BaselineAgent(seed), Belief(w, 0)) for seed in range(20)}))
    """
    proc = run_python("-c", code, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    empty = "IndexError: Cannot choose from an empty sequence"
    assert proc.stdout.splitlines() == [empty, repr(sorted([empty, "wh"]))]


def unconfirmed(word):
    """A confirm answered `word`: applied to a fresh belief ("apply_answer")
    and said by an episode's oracle ("run_episode")."""
    w = spacecraft_world()
    return {"apply_answer": lambda: apply_answer(init_belief(w, w.by_id("optimizer_1").label),
                                                 Question("color", "red"), word),
            "run_episode": lambda: run_episode(w, "emitter_2", BaselineAgent(seed=5),
                                               oracle=SimpleNamespace(answer=lambda q: word))}


@refusals({
    **{f"test_budget_exceeded_raises-{budget}": (
        lambda budget=budget: run_episode(spacecraft_world(), "emitter_1", ModelAgent(),
                                          max_questions=budget), BudgetExceededError,
        f"no resolution after {asked} for target 'emitter_1'")
       for budget, asked in ((0, "0 questions"), (1, "1 question"))},
    "test_negative_budget_rejected": (
        lambda: run_episode(spacecraft_world(), "emitter_1", ModelAgent(), max_questions=-3),
        ValueError, "max_questions must be 0 or more, got -3"),
    **{f"test_a_confirm_answered_other_than_yes_or_no_is_refused-{half}-{word}": (
        call, ValueError, f"a confirm is answered 'yes' or 'no', got {word!r}")
       for word in ("Yes", "maybe", "y", "red") for half, call in unconfirmed(word).items()},
    **{f"test_model_agent_rejects_unknown_policy-{policy}": (
        lambda policy=policy: ModelAgent(policy), ValueError, f"unknown model policy {policy!r}")
       for policy in ("maybe", "Entropy")},
    # an empty min-set takes the network path, whose selection refuses it
    **{f"test_a_model_agent_asks_nothing_of_one_candidate-{policy}": (
        lambda policy=policy: ModelAgent(policy).choose(
            Belief(dataclasses.replace(spacecraft_world()), 1)),
        NoInformativeQuestionError, "network has no questions") for policy in ("entropy", "data")},
})
def test_refused_word_for_word(call, error, message):
    assert_refused(call, error, message)
