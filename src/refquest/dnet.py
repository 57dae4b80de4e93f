"""Question alphabet, utility scoring, and maximum-expected-utility selection.

The network is rebuilt from the current belief every turn: its active
properties are the minimum disambiguating set over the surviving
candidates, its decision node is one WH question per active property
plus a confirm (yes/no) question per active property flagged as
confirm-eligible, and its utility table scores questions either by
Shannon entropy of the belief-conditioned value distributions or by a
question-type frequency table. Every active property varies among the
candidates, so no question is about a property already known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from refquest.belief import Belief, PropertyDistribution
from refquest.minset import compute_min_set
from refquest.world import PropertySchema

ENTROPY = "entropy"
DATA = "data"
COLOR_BOOST = 2.0  # weight of color in the default frequency table; others 1


class MissingFrequencyError(Exception):
    """The frequency table has no entry for a question type in the network."""


class NoInformativeQuestionError(Exception):
    """Every question scored 0 while more than one candidate survives."""


@dataclass(frozen=True)
class Question:
    kind: str  # "wh" | "yn"
    property: str
    value: str | None = None  # required for yn, absent for wh

    def __post_init__(self):
        if self.kind == "yn" and self.value is None:
            raise ValueError("yn questions need a value")
        if self.kind == "wh" and self.value is not None:
            raise ValueError("wh questions carry no value")

    @property
    def surface(self) -> str:
        if self.kind == "wh":
            return f"What {self.property} is it?"
        return f"Is it {self.value}?"

    @property
    def type_name(self) -> str:
        """Question-type key used by frequency tables (Query:color, Confirm:color)."""
        prefix = "Query" if self.kind == "wh" else "Confirm"
        return f"{prefix}:{self.property}"


@dataclass(frozen=True)
class DecisionNetwork:
    schema: PropertySchema
    active: tuple[str, ...]  # minimum disambiguating set, schema order
    questions: tuple[Question, ...]
    utilities: dict[Question, float]
    policy: str


def wh_entropy(dist: PropertyDistribution) -> float:
    """Shannon entropy (bits) of the property's value distribution."""
    return -sum(p * math.log2(p) for p in dist.probs.values() if p > 0)


def yn_expected_entropy(dist: PropertyDistribution) -> float:
    """Expected information (bits) of a confirm question about the property.

    Sum over values of p_i times the binary entropy of p_i; degenerate
    terms (p_i of 0 or 1) contribute nothing. Always at most wh_entropy.
    """
    total = 0.0
    for p in dist.probs.values():
        if 0 < p < 1:
            total += p * (-p * math.log2(p) - (1 - p) * math.log2(1 - p))
    return total


def data_driven_utilities(
    freq_table: Mapping[str, float], questions: Sequence[Question]
) -> dict[Question, float]:
    """Score questions by question-type frequency."""
    entries = {}
    for q in questions:
        if q.type_name not in freq_table:
            raise MissingFrequencyError(f"no frequency for question type {q.type_name!r}")
        freq = freq_table[q.type_name]
        if freq < 0:
            raise ValueError(f"negative frequency for {q.type_name!r}")
        entries[q] = freq
    return entries


def uniform_frequency_table(schema: PropertySchema) -> dict[str, float]:
    """Default frequency table: uniform, with color (when present) ranked highest.

    The values are reconstructed placeholders, not corpus measurements;
    only the induced preference ranking matters for selection.
    """
    table = {}
    for name in schema.names:
        weight = COLOR_BOOST if name == "color" else 1.0
        table[f"Query:{name}"] = weight
        table[f"Confirm:{name}"] = weight
    total = sum(table.values())
    return {k: 100.0 * v / total for k, v in table.items()}


def modal_value(dist: PropertyDistribution, domain: Sequence[str]) -> str:
    """Most frequent value among candidates; ties break by domain order."""
    best = max(dist.probs.values())
    for v in domain:
        if dist.probs.get(v, 0.0) == best:
            return v
    raise AssertionError("non-empty distribution always has a mode")


def build_network(
    belief: Belief,
    policy: str = ENTROPY,
    yn_properties: Sequence[str] = (),
    freq_table: Mapping[str, float] | None = None,
) -> DecisionNetwork:
    """Construct the decision network for the current candidate set.

    Active properties come from the minimum disambiguating set over the
    surviving candidates, so constant and already-learned properties
    never enter the question list.
    """
    schema = belief.world.schema
    active = tuple(compute_min_set(belief.candidates, schema))
    dists = {prop: belief.distribution(prop) for prop in active}
    questions = [Question(kind="wh", property=prop) for prop in active]
    for prop in active:
        if prop in yn_properties:
            value = modal_value(dists[prop], schema.domain(prop))
            questions.append(Question(kind="yn", property=prop, value=value))

    if policy == ENTROPY:
        utilities = {}
        for q in questions:
            dist = dists[q.property]
            utilities[q] = wh_entropy(dist) if q.kind == "wh" else yn_expected_entropy(dist)
    elif policy == DATA:
        table = freq_table if freq_table is not None else uniform_frequency_table(schema)
        utilities = data_driven_utilities(table, questions)
    else:
        raise ValueError(f"unknown utility policy {policy!r}")

    return DecisionNetwork(
        schema=schema,
        active=active,
        questions=tuple(questions),
        utilities=utilities,
        policy=policy,
    )


def select_question(net: DecisionNetwork) -> Question:
    """Maximum-expected-utility question.

    Ties break deterministically: earlier schema property first, WH
    before confirm, then domain order of the confirmed value.
    """
    if not net.questions:
        raise NoInformativeQuestionError("network has no questions")

    def sort_key(q: Question):
        value_rank = 0 if q.value is None else net.schema.domain(q.property).index(q.value)
        return (
            -net.utilities[q],
            net.schema.index(q.property),
            0 if q.kind == "wh" else 1,
            value_rank,
        )

    best = min(net.questions, key=sort_key)
    if net.utilities[best] <= 0:
        raise NoInformativeQuestionError(
            "all question utilities are 0 with multiple candidates remaining"
        )
    return best
