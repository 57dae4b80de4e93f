"""Question alphabet, utility scoring, and maximum-expected-utility selection.

The network is built from the current belief for each new candidate
set: its active properties are the minimum disambiguating set over the surviving
candidates, and its decision node holds one WH question for each active
property. Its utilities score questions either by Shannon entropy of the
belief-conditioned value distributions or by question-type preference,
a fixed weight per property. Every active property varies among the
candidates, so no question is about a property already known. No confirm
(yes/no) question is built: under either utility none could beat its WH
question (see `yn_expected_entropy`), and ties would go to WH.

The entropy utilities read only a property's value counts and sum their
terms over the counts in ascending order, so a question's utility is a
function of the count multiset alone: it does not depend on the order of
the world's entities or of the property's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from refquest.belief import Belief, PropertyDistribution
from refquest.minset import compute_min_set

ENTROPY = "entropy"
DATA = "data"
COLOR_BOOST = 2.0  # question-type preference for color; every other property 1


class NoInformativeQuestionError(Exception):
    """Every question scored 0 while more than one candidate survives."""


@dataclass(frozen=True)
class Question:
    """A WH question about `property` when `value` is None ("What color is
    it?"), else a confirm question about that value ("Is it red?")."""

    property: str
    value: str | None = None

    @property
    def kind(self) -> str:
        """Either "wh" or "yn" (confirm): "wh" exactly when there is no value."""
        return "wh" if self.value is None else "yn"

    @property
    def surface(self) -> str:
        if self.value is None:
            return f"What {self.property} is it?"
        return f"Is it {self.value}?"

    @property
    def type_name(self) -> str:
        """Question-type key shown in transcripts (Query:color, Confirm:color)."""
        prefix = "Query" if self.value is None else "Confirm"
        return f"{prefix}:{self.property}"


@dataclass(frozen=True)
class DecisionNetwork:
    questions: tuple[Question, ...]  # WH, one per min-set property; tie-break order
    utilities: dict[Question, float]


def wh_entropy(dist: PropertyDistribution) -> float:
    """Shannon entropy (bits) of the value distribution with weights `dist.counts`.

    (n log2 n - sum of c log2 c) / n with n the total weight; exactly 0 for
    one value.
    """
    counts = sorted(dist.counts.values())
    n = sum(counts)
    return (n * math.log2(n) - sum(c * math.log2(c) for c in counts)) / n


def yn_expected_entropy(dist: PropertyDistribution) -> float:
    """Expected information (bits) of a confirm question about the property.

    Sum over values of p_i times the binary entropy of p_i, with p_i = c_i / n.
    With two values a confirm splits the candidates as a WH question does,
    so it scores wh_entropy exactly; with one, 0; with more, strictly less.
    """
    if len(dist.counts) <= 2:
        return wh_entropy(dist)
    counts = sorted(dist.counts.values())
    n = sum(counts)
    n_log_n = n * math.log2(n)
    return sum(
        c * (n_log_n - c * math.log2(c) - (n - c) * math.log2(n - c)) for c in counts
    ) / (n * n)


def build_network(belief: Belief, policy: str = ENTROPY) -> DecisionNetwork:
    """Construct the decision network for the current candidate set.

    Active properties come from the minimum disambiguating set over the
    surviving candidates, solved once per mask of a world (`World.min_sets`);
    constant and already-learned properties never enter the question list.
    """
    if policy not in (ENTROPY, DATA):
        raise ValueError(f"unknown utility policy {policy!r}")
    world, mask = belief.world, belief.mask
    min_set = world.min_sets.get(mask)
    if min_set is None:
        min_set = world.min_sets[mask] = tuple(compute_min_set(world, mask))
    questions = tuple(map(Question, min_set))
    if policy == ENTROPY:
        scores = (wh_entropy(belief.distribution(q.property)) for q in questions)
    else:
        scores = (COLOR_BOOST if q.property == "color" else 1.0 for q in questions)
    return DecisionNetwork(questions, dict(zip(questions, scores)))


def select_question(net: DecisionNetwork) -> Question:
    """Maximum-expected-utility question; the first of equals in
    `net.questions` order wins, so ties go to the earlier schema property."""
    if not net.questions:
        raise NoInformativeQuestionError("network has no questions")
    best = max(net.questions, key=net.utilities.__getitem__)
    if net.utilities[best] <= 0:
        raise NoInformativeQuestionError(
            "all question utilities are 0 with multiple candidates remaining"
        )
    return best
