"""Episode engine: agents, oracles, and the ask-answer-filter loop.

A warm turn builds only its Belief and its transcript entry: the agent
looks its question up, the simulated oracle reads the target's assignment,
and the answer is one value-mask lookup and one AND (`Belief.apply_*`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from refquest.belief import Belief, UnknownReferentError, init_belief
from refquest.dnet import DATA, ENTROPY, active_properties, build_network, select_question
from refquest.world import Entity, Question, World
from refquest.worlds import check_seed

MAX_QUESTIONS_DEFAULT = 50


class BudgetExceededError(Exception):
    """An episode ran past its question budget; signals an agent bug."""


class SimOracle:
    """Answers truthfully from the ground-truth assignment of the target:
    the target's value for a WH question, "yes" or "no" for a confirm."""

    def __init__(self, target: Entity):
        self.assignment = target.assignment

    def answer(self, q: Question) -> str:
        actual = self.assignment[q.property]
        value = q.value
        if value is None:
            return actual
        return "yes" if actual == value else "no"


class HumanOracle:
    """Prompts a human at the terminal and parses yes|no|<value> replies
    into the word said: "yes", "no" or the domain's spelling of a value."""

    def __init__(self, world: World, ask=None, say=print):
        self.world = world
        # late-bound so test harnesses can swap builtins.input
        self.ask = ask if ask is not None else (lambda prompt: input(prompt))
        self.say = say

    def answer(self, q: Question) -> str:
        while True:
            raw = self.ask(f"{q.surface} ")
            reply = raw.strip()
            if q.kind == "yn":
                if reply.lower() in ("yes", "y", "no", "n"):
                    return "yes" if reply.lower().startswith("y") else "no"
                self.say("please answer yes or no")
            else:
                # a value equal to the reply as typed wins, then one equal to it with
                # both stripped, then also ignoring case; the domain's spelling is kept.
                # A row of value masks holds the whole domain, carried or not
                domain = self.world.value_masks[q.property]
                matches = (
                    [v for v in domain if v == raw]
                    or [v for v in domain if v.strip() == reply]
                    or [v for v in domain if v.strip().casefold() == reply.casefold()]
                )
                if len(matches) == 1:
                    return matches[0]
                if matches:
                    self.say(f"ambiguous {q.property} {reply!r}; it matches: "
                             + ", ".join(map(repr, matches)))
                else:
                    self.say(f"unknown {q.property}; expected one of: "
                             + ", ".join(map(repr, domain)))


class ModelAgent:
    """Decision-network agent; builds the network over the surviving
    candidates, so utilities always reflect the current evidence. A min-set
    of one property builds none: its question is the only one, and the
    network would pick it under either policy (see `refquest.dnet`).

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

    def start(self) -> None:
        """Open an episode; a model agent holds no episode state."""

    def choose(self, belief: Belief) -> Question:
        memo, key = belief.world.model_questions, (self.policy, belief.mask)
        q = memo.get(key)
        if q is None:
            props = active_properties(belief)
            q = memo[key] = (belief.world.schema.questions[props[0], None] if len(props) == 1
                             else select_question(build_network(belief, policy=self.policy)))
        return q


class BaselineAgent:
    """Slot-filling baseline: uniformly random question about any property
    it has not yet learned, ignoring informativeness.

    Each turn draws one index over the (WH, confirm) pairs of the
    unlearned properties in schema order: index 2k asks property k's WH
    question, 2k + 1 confirms a uniformly random value of it present among
    the candidates, in domain order. The property asked last counts as
    learned once every candidate carries the lowest candidate's value of
    it (one value-mask test); every WH answer and every yes ensure that.
    The unlearned list is the schema's on an episode's first turn and
    loses each property as it is learned. `run_episode` opens each episode
    with `start`, which forgets what the last one learned, so one agent
    serves any number of episodes; its stream runs on from one episode to
    the next, so an episode's draws depend on the episodes played before.
    Questions are the schema's tabled ones: a confirm's value is drawn
    from the property's row of the world's `value_masks`, whose masks tell
    which values the candidates carry. Both draws are `_draw`'s, over the
    generator's `getrandbits`, bound once per agent.
    """

    def __init__(self, seed: int):
        check_seed(seed)
        self.rng = random.Random(seed)
        self.getrandbits = self.rng.getrandbits
        self.asked: str | None = None  # None until an episode's first turn
        self.unknown: list[str] = []  # unlearned properties, schema order

    @property
    def name(self) -> str:
        return "baseline"

    def start(self) -> None:
        """Open an episode: nothing asked, so nothing learned yet."""
        self.asked = None

    def choose(self, belief: Belief) -> Question:
        world, mask, asked = belief.world, belief.mask, self.asked
        value_masks, unknown = world.value_masks, self.unknown
        if asked is None:
            unknown[:] = world.schema.names
        else:
            lowest = world.entities[(mask & -mask).bit_length() - 1].assignment[asked]
            if not mask & ~value_masks[asked][lowest]:
                unknown.remove(asked)
        i = _draw(self.getrandbits, 2 * len(unknown))
        prop = self.asked = unknown[i >> 1]
        if not i & 1:
            return world.schema.questions[prop, None]
        carried = [v for v, m in value_masks[prop].items() if mask & m]
        return world.schema.questions[prop, carried[_draw(self.getrandbits, len(carried))]]


def _draw(getrandbits, n: int) -> int:
    """The index `rng.choice` draws into a sequence of length n, from the same
    bits by `Random._randbelow`'s rejection loop over `rng.getrandbits`. With
    n = 0 that loop would never end (getrandbits(0) is 0): IndexError, as choice."""
    if n <= 0:
        raise IndexError("Cannot choose from an empty sequence")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


@dataclass(slots=True, unsafe_hash=True)
class EpisodeRecord:
    """One episode's outcome."""

    instruction_label: str
    target_id: str
    resolved_id: str
    transcript: tuple[tuple[Question, str], ...] = field(hash=False)  # (question, word said)

    @property
    def question_count(self) -> int:
        return len(self.transcript)


def apply_answer(belief: Belief, q: Question, word: str) -> Belief:
    """Filter the candidates by the word said in reply to `q`: a value of
    its property for a WH question, "yes" or "no" for a confirm. Any other
    reply to a confirm is refused."""
    if q.value is None:
        return belief.apply_wh_answer(q.property, word)
    if word not in ("yes", "no"):
        raise ValueError(f"a confirm is answered 'yes' or 'no', got {word!r}")
    return belief.apply_yn_answer(q.property, q.value, word == "yes")


def run_episode(
    world: World,
    target_id: str,
    agent,
    oracle=None,
    max_questions: int = MAX_QUESTIONS_DEFAULT,
    on_turn=None,
) -> EpisodeRecord:
    """Ask-answer-filter loop until exactly one candidate remains.

    The agent's `start` opens the episode; then it is only asked to choose
    each question from the current belief. `oracle` defaults to a truthful
    simulated oracle for the target; each answer is the word said, applied
    by `apply_answer`.
    `on_turn(question, word)`, when given, is the loop's one per-turn
    observer, called after each answer is applied. The referent is read
    off the final one-bit mask.
    """
    if max_questions < 0:
        raise ValueError(f"max_questions must be 0 or more, got {max_questions}")
    try:
        target = world.by_id(target_id)
    except KeyError:
        raise UnknownReferentError(f"no entity with id {target_id!r}") from None
    label = target.label
    belief = init_belief(world, label)
    transcript: list[tuple[Question, str]] = []
    agent.start()
    choose, append = agent.choose, transcript.append
    answer = (oracle if oracle is not None else SimOracle(target)).answer
    while (mask := belief.mask) & (mask - 1):
        if len(transcript) >= max_questions:
            raise BudgetExceededError(
                f"no resolution after {max_questions} question{'s' * (max_questions != 1)}"
                f" for target {target_id!r}"
            )
        q = choose(belief)
        word = answer(q)
        belief = apply_answer(belief, q, word)
        append((q, word))
        if on_turn is not None:
            on_turn(q, word)
    return EpisodeRecord(label, target_id, world.entities[mask.bit_length() - 1].id,
                         tuple(transcript))
