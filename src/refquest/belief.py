"""The agent's evidence state: surviving candidates and value distributions.

With a truthful oracle, hard filtering of the candidate set is exact
Bayesian updating from a uniform prior, so the posterior over referents
is uniform over survivors and each property's value distribution is
given by how many survivors carry each value. An answer narrows the
survivors in one step: one value-mask lookup, one AND, one new Belief.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from refquest.world import World

_new = object.__new__


class UnknownReferentError(Exception):
    """No entity in the world matches the instruction label or target id."""


class ContradictoryAnswerError(Exception):
    """An answer eliminated every remaining candidate (impossible with a truthful oracle)."""


@dataclass(slots=True)
class PropertyDistribution:
    property: str
    counts: dict[str, float]  # value -> candidates carrying it (any positive weights)


@dataclass(slots=True, unsafe_hash=True)
class Belief:
    """Evidence state; the engine never mutates one: an update returns a
    new Belief.

    The surviving candidates are one int over the world's entities, bit i
    standing for `world.entities[i]`, so an answer is an AND with one of
    the world's value masks and a count is a popcount. A mask with bits
    beyond the world's entities is refused at construction; the beliefs
    this module derives from a label mask or by narrowing a checked mask
    cannot hold such bits, and skip the check: each is built with
    `object.__new__` and its two slots assigned.
    """

    world: World
    mask: int  # surviving candidates

    def __post_init__(self):
        check_mask(self.world, self.mask)

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        """The surviving entities' ids, world order."""
        bits = bin(self.mask)[:1:-1]  # least significant first
        return tuple(e.id for e in compress(self.world.entities, map("1".__eq__, bits)))

    def distribution(self, prop: str) -> PropertyDistribution:
        """How many surviving candidates carry each value of `prop`, read
        off its row of `world.value_masks` in domain order; values no
        candidate carries are left out."""
        world = self.world
        try:
            row = world.value_masks[prop]
        except KeyError:
            raise _not_in_schema(world, prop, None) from None
        mask = self.mask
        return PropertyDistribution(prop, {
            v: c for v, m in row.items() if (c := (mask & m).bit_count())
        })

    def apply_wh_answer(self, prop: str, value: str) -> "Belief":
        """Keep candidates whose `prop` equals the answered value."""
        world = self.world
        try:
            kept = self.mask & world.value_masks[prop][value]
        except KeyError:
            raise _not_in_schema(world, prop, value) from None
        if not kept:
            raise ContradictoryAnswerError(
                f"no candidate has {prop}={value!r} (answer contradicts evidence)"
            )
        belief = _new(Belief)
        belief.world, belief.mask = world, kept
        return belief

    def apply_yn_answer(self, prop: str, value: str, yes: bool) -> "Belief":
        """Yes keeps candidates with that value; no removes them."""
        world = self.world
        try:
            value_mask = world.value_masks[prop][value]
        except KeyError:
            raise _not_in_schema(world, prop, value) from None
        kept = self.mask & (value_mask if yes else ~value_mask)
        if not kept:
            raise ContradictoryAnswerError(
                f"answer {'yes' if yes else 'no'} to {prop}={value!r} eliminates all candidates"
            )
        belief = _new(Belief)
        belief.world, belief.mask = world, kept
        return belief


def check_mask(world: World, mask: int) -> None:
    """Refuse a candidate mask with bits beyond the world's entities."""
    if mask >> len(world.entities):
        raise ValueError(f"candidate mask {mask:#x} has bits beyond the world's"
                         f" {len(world.entities)} entities")


def _not_in_schema(world: World, prop: str, value: str | None) -> KeyError:
    """The error for a question or answer naming a property, or a (property,
    value), the world has no value mask for."""
    if prop not in world.schema.names:
        return KeyError(f"unknown property {prop!r}")
    return KeyError(f"value {value!r} not in domain of property {prop!r}")


def init_belief(world: World, instruction_label: str) -> Belief:
    """Start an episode: candidates are all entities carrying the label."""
    mask = world.label_masks.get(instruction_label)
    if mask is None:
        raise UnknownReferentError(f"no entity labelled {instruction_label!r}")
    belief = _new(Belief)
    belief.world, belief.mask = world, mask
    return belief
