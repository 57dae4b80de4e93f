"""The agent's evidence state: surviving candidates and value distributions.

With a truthful oracle, hard filtering of the candidate set is exact
Bayesian updating from a uniform prior, so the posterior over referents
is uniform over survivors and each property's value distribution is the
empirical value frequency among them.
"""

from __future__ import annotations

from dataclasses import dataclass

from refquest.world import Entity, World


class UnknownReferentError(Exception):
    """No entity in the world matches the instruction label or target id."""


class ContradictoryAnswerError(Exception):
    """An answer eliminated every remaining candidate (impossible with a truthful oracle)."""


@dataclass(frozen=True)
class PropertyDistribution:
    property: str
    probs: dict[str, float]  # value -> probability, sums to 1


@dataclass(frozen=True)
class Belief:
    """Immutable evidence state; updates return a new Belief."""

    world: World
    candidates: tuple[Entity, ...]  # surviving entities, world order

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.candidates)

    def resolved(self) -> str | None:
        """The referent's id once exactly one candidate remains, else None."""
        if len(self.candidates) == 1:
            return self.candidates[0].id
        return None

    def distribution(self, prop: str) -> PropertyDistribution:
        """Empirical value frequencies of `prop` among surviving candidates."""
        counts: dict[str, int] = {}
        for e in self.candidates:
            v = e.value(prop)
            counts[v] = counts.get(v, 0) + 1
        n = len(self.candidates)
        return PropertyDistribution(
            property=prop, probs={v: c / n for v, c in counts.items()}
        )

    def apply_wh_answer(self, prop: str, value: str) -> "Belief":
        """Keep candidates whose `prop` equals the answered value."""
        self._check_value(prop, value)
        kept = tuple(e for e in self.candidates if e.value(prop) == value)
        if not kept:
            raise ContradictoryAnswerError(
                f"no candidate has {prop}={value!r} (answer contradicts evidence)"
            )
        return Belief(self.world, kept)

    def apply_yn_answer(self, prop: str, value: str, yes: bool) -> "Belief":
        """Yes keeps candidates with that value; no removes them."""
        self._check_value(prop, value)
        kept = tuple(e for e in self.candidates if (e.value(prop) == value) == yes)
        if not kept:
            raise ContradictoryAnswerError(
                f"answer {'yes' if yes else 'no'} to {prop}={value!r} eliminates all candidates"
            )
        return Belief(self.world, kept)

    def _check_value(self, prop: str, value: str):
        if value not in self.world.schema.domain(prop):
            raise KeyError(f"value {value!r} not in domain of property {prop!r}")


def init_belief(world: World, instruction_label: str) -> Belief:
    """Start an episode: candidates are all entities carrying the label."""
    matches = world.with_label(instruction_label)
    if not matches:
        raise UnknownReferentError(f"no entity labelled {instruction_label!r}")
    return Belief(world=world, candidates=matches)
