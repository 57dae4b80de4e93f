"""Episode engine: agents, oracles, and the ask-answer-filter loop."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from refquest.belief import Belief, UnknownReferentError, init_belief
from refquest.dnet import DATA, ENTROPY, Question, build_network, select_question
from refquest.world import Entity, World

MAX_QUESTIONS_DEFAULT = 50


class BudgetExceededError(Exception):
    """An episode ran past its question budget; signals an agent bug."""


@dataclass(frozen=True)
class Answer:
    """Oracle response: a value for WH questions, yes/no for confirms."""

    value: str | None = None
    yes: bool | None = None

    def render(self) -> str:
        if self.value is not None:
            return self.value
        return "yes" if self.yes else "no"


class SimOracle:
    """Answers truthfully from the ground-truth assignment of the target."""

    def __init__(self, target: Entity):
        self.target = target

    def answer(self, q: Question) -> Answer:
        actual = self.target.value(q.property)
        if q.kind == "wh":
            return Answer(value=actual)
        return Answer(yes=(actual == q.value))


class HumanOracle:
    """Prompts a human at the terminal and parses yes|no|<value> replies."""

    def __init__(self, world: World, ask=None, say=print):
        self.world = world
        # late-bound so test harnesses can swap builtins.input
        self.ask = ask if ask is not None else (lambda prompt: input(prompt))
        self.say = say

    def answer(self, q: Question) -> Answer:
        while True:
            reply = self.ask(f"{q.surface} ").strip()
            if q.kind == "yn":
                if reply.lower() in ("yes", "y"):
                    return Answer(yes=True)
                if reply.lower() in ("no", "n"):
                    return Answer(yes=False)
                self.say("please answer yes or no")
            else:
                # an exact match wins; otherwise the reply must match one
                # value ignoring case, and the domain's spelling is kept
                domain = self.world.schema.domain(q.property)
                matches = [v for v in domain if v == reply] or [
                    v for v in domain if v.casefold() == reply.casefold()
                ]
                if len(matches) == 1:
                    return Answer(value=matches[0])
                self.say(f"unknown {q.property}; expected one of: " + ", ".join(domain))


class ModelAgent:
    """Decision-network agent; builds the network over the surviving
    candidates, so utilities always reflect the current evidence.

    The question depends only on the world, the policy and the candidates,
    so it is kept in the world's memo under (policy, mask), where every
    agent of the policy finds it; the agent holds only its policy. Deterministic.
    """

    def __init__(self, policy: str = ENTROPY):
        if policy not in (ENTROPY, DATA):
            raise ValueError(f"unknown model policy {policy!r}")
        self.policy = policy

    @property
    def name(self) -> str:
        return f"model-{self.policy}"

    def choose(self, belief: Belief) -> Question:
        memo, key = belief.world.model_questions, (self.policy, belief.mask)
        q = memo.get(key)
        if q is None:
            q = memo[key] = select_question(build_network(belief, policy=self.policy))
        return q


class BaselineAgent:
    """Slot-filling baseline: uniformly random question about any property
    it has not yet learned, ignoring informativeness.

    The property asked last counts as learned once only one of its values
    survives among the candidates, which every WH answer and every yes
    ensure. Confirm questions target a uniformly random value present
    among the candidates. Learned properties persist, so each episode needs
    a fresh agent; every caller makes one per episode.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.known: set[str] = set()
        self.asked: str | None = None

    @property
    def name(self) -> str:
        return "baseline"

    def choose(self, belief: Belief) -> Question:
        if self.asked is not None and len(belief.distribution(self.asked).counts) == 1:
            self.known.add(self.asked)
        options: list[tuple[str, str]] = []
        for prop in belief.world.schema.names:
            if prop not in self.known:
                options += [("wh", prop), ("yn", prop)]
        kind, prop = self.rng.choice(options)
        self.asked = prop
        if kind == "wh":
            return Question(prop)
        values = tuple(belief.distribution(prop).counts)  # domain order
        return Question(prop, self.rng.choice(values))


@dataclass(frozen=True)
class EpisodeRecord:
    instruction_label: str
    target_id: str
    resolved_id: str
    transcript: tuple[tuple[Question, Answer], ...] = field(hash=False)

    @property
    def question_count(self) -> int:
        return len(self.transcript)


def apply_answer(belief: Belief, q: Question, a: Answer) -> Belief:
    if q.kind == "wh":
        return belief.apply_wh_answer(q.property, a.value)
    return belief.apply_yn_answer(q.property, q.value, a.yes)


def run_episode(
    world: World,
    target_id: str,
    agent,
    oracle=None,
    max_questions: int = MAX_QUESTIONS_DEFAULT,
    on_turn=None,
) -> EpisodeRecord:
    """Ask-answer-filter loop until exactly one candidate remains.

    The agent is only asked to choose each question from the current
    belief. `oracle` defaults to a truthful simulated oracle for the
    target. `on_turn(question, answer)`, when given, is the loop's one
    per-turn observer, called after each answer is applied.
    """
    if max_questions < 0:
        raise ValueError(f"max_questions must be 0 or more, got {max_questions}")
    try:
        target = world.by_id(target_id)
    except KeyError:
        raise UnknownReferentError(f"no entity with id {target_id!r}") from None
    if oracle is None:
        oracle = SimOracle(target)
    belief = init_belief(world, target.label)
    transcript: list[tuple[Question, Answer]] = []
    while belief.resolved() is None:
        if len(transcript) >= max_questions:
            raise BudgetExceededError(
                f"no resolution after {max_questions} questions for target {target_id!r}"
            )
        q = agent.choose(belief)
        a = oracle.answer(q)
        belief = apply_answer(belief, q, a)
        transcript.append((q, a))
        if on_turn is not None:
            on_turn(q, a)
    return EpisodeRecord(
        instruction_label=target.label,
        target_id=target_id,
        resolved_id=belief.resolved(),
        transcript=tuple(transcript),
    )
