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


@dataclass(frozen=True)
class PropertyDistribution:
    property: str
    counts: dict[str, float]  # value -> candidates carrying it (any positive weights)


@dataclass(frozen=True)
class Belief:
    """Immutable evidence state; updates return a new Belief.

    The surviving candidates are one int over the world's entities, bit i
    standing for `world.entities[i]`, so an answer is an AND with one of
    the world's value masks and a count is a popcount. A mask with bits
    beyond the world's entities is refused at construction; the beliefs
    this module derives from a label mask or by narrowing a checked mask
    cannot hold such bits, and skip the check: each is built with
    `object.__new__`, its fields written straight into its `__dict__`. That
    gives the instance a real dict, which one from `__init__` does not
    hold: `__init__` sets each field with `object.__setattr__`. The dict
    makes each later attribute read slower on CPython 3.11, but setting the
    fields with `object.__setattr__` here, and in `run_episode`'s
    EpisodeRecord, costs more in calls than the reads save: perfbench's
    desk p50 per episode rose from 8.4-9.0 to 8.9-9.8 µs (5 alternating
    4 s runs each, 2-core Xeon VM).
    """

    world: World
    mask: int  # surviving candidates

    def __post_init__(self):
        if self.mask >> len(self.world.entities):
            raise ValueError(
                f"candidate mask {self.mask:#x} has bits beyond the world's "
                f"{len(self.world.entities)} entities"
            )

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        """The surviving entities' ids, world order."""
        bits = bin(self.mask)[:1:-1]  # least significant first
        return tuple(e.id for e in compress(self.world.entities, map("1".__eq__, bits)))

    def distribution(self, prop: str) -> PropertyDistribution:
        """How many surviving candidates carry each value of `prop`, in
        domain order; values no candidate carries are left out."""
        mask, value_masks = self.mask, self.world.value_masks
        return PropertyDistribution(prop, {
            v: c for v in self.world.schema.domain(prop)
            if (c := (mask & value_masks[prop, v]).bit_count())
        })

    def apply_wh_answer(self, prop: str, value: str) -> "Belief":
        """Keep candidates whose `prop` equals the answered value."""
        world = self.world
        try:
            kept = self.mask & world.value_masks[prop, value]
        except KeyError:
            raise _not_in_schema(world, prop, value) from None
        if not kept:
            raise ContradictoryAnswerError(
                f"no candidate has {prop}={value!r} (answer contradicts evidence)"
            )
        belief = _new(Belief)
        fields = belief.__dict__
        fields["world"], fields["mask"] = world, kept
        return belief

    def apply_yn_answer(self, prop: str, value: str, yes: bool) -> "Belief":
        """Yes keeps candidates with that value; no removes them."""
        world = self.world
        try:
            value_mask = world.value_masks[prop, value]
        except KeyError:
            raise _not_in_schema(world, prop, value) from None
        kept = self.mask & (value_mask if yes else ~value_mask)
        if not kept:
            raise ContradictoryAnswerError(
                f"answer {'yes' if yes else 'no'} to {prop}={value!r} eliminates all candidates"
            )
        belief = _new(Belief)
        fields = belief.__dict__
        fields["world"], fields["mask"] = world, kept
        return belief


def _not_in_schema(world: World, prop: str, value: str) -> KeyError:
    """The error for an answer naming a (property, value) the world has no
    value mask for."""
    if prop not in world.schema.names:
        return KeyError(f"unknown property {prop!r}")
    return KeyError(f"value {value!r} not in domain of property {prop!r}")


def init_belief(world: World, instruction_label: str) -> Belief:
    """Start an episode: candidates are all entities carrying the label."""
    mask = world.label_masks.get(instruction_label)
    if mask is None:
        raise UnknownReferentError(f"no entity labelled {instruction_label!r}")
    belief = _new(Belief)
    fields = belief.__dict__
    fields["world"], fields["mask"] = world, mask
    return belief
