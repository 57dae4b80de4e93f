"""An obviously correct reference engine, for differential tests.

It plays whole episodes from a World's plain data: the schema's
(property, domain) tuples and each entity's id, label and assignment.
It has no masks, codes, memos or beliefs: the candidates are a list that
each answer filters, and each min-set is searched afresh over their rows.
However the engine represents and caches its work, its transcripts must
equal `transcript`'s.
"""

import itertools
import math
import random

from refquest.minset import EXACT_LIMIT_DEFAULT


def distinct(candidates, props) -> int:
    """How many distinct rows the candidates project to on `props`."""
    return len({tuple([e.assignment[p] for p in props]) for e in candidates})


def min_set(properties, candidates, exact_limit=EXACT_LIMIT_DEFAULT) -> list[str]:
    """The properties that tell the candidates apart, in schema order.
    Exact while at most `exact_limit` properties vary: the first subset of
    them, by size and then combinations order, whose rows are distinct.
    Greedy beyond: add the property giving the most distinct rows, ties to
    the earlier one, until all rows are distinct."""
    if len(candidates) < 2:
        return []
    varying = [p for p, _ in properties if distinct(candidates, [p]) > 1]
    if len(varying) <= exact_limit:
        for r in range(1, len(varying) + 1):
            for subset in itertools.combinations(varying, r):
                if distinct(candidates, subset) == len(candidates):
                    return list(subset)
        raise AssertionError("candidates with equal assignments")
    chosen: list[str] = []
    while distinct(candidates, chosen) < len(candidates):
        rest = [p for p in varying if p not in chosen]
        chosen.append(max(rest, key=lambda p: distinct(candidates, [*chosen, p])))
    return [p for p in varying if p in chosen]


def counts(properties, candidates, prop) -> list[tuple[str, int]]:
    """(value, candidates carrying it) in domain order, carried values only."""
    carried = [e.assignment[prop] for e in candidates]
    return [(v, carried.count(v)) for v in dict(properties)[prop] if v in carried]


def entropy(value_counts) -> float:
    """Entropy in bits, (n log2 n - sum of c log2 c) / n, summing the
    counts in ascending order."""
    ordered = sorted(value_counts)
    n = sum(ordered)
    return (n * math.log2(n) - sum(c * math.log2(c) for c in ordered)) / n


def model_question(properties, candidates, policy) -> tuple[str, None]:
    """The WH question about the first min-set property of highest utility."""
    best = best_utility = None
    for p in min_set(properties, candidates):
        if policy == "entropy":
            utility = entropy([c for _, c in counts(properties, candidates, p)])
        else:
            utility = 2.0 if p == "color" else 1.0
        if best is None or utility > best_utility:
            best, best_utility = p, utility
    return best, None


class Baseline:
    """The slot-filling baseline as an options list: one draw over the
    (WH, confirm) options of the properties not yet learned, then, for a
    confirm, one over the values the candidates carry."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.known: set[str] = set()
        self.asked = None

    def choose(self, properties, candidates) -> tuple[str, str | None]:
        if self.asked is not None and len(counts(properties, candidates, self.asked)) == 1:
            self.known.add(self.asked)
        kind, self.asked = self.rng.choice(
            [(kind, p) for p, _ in properties if p not in self.known for kind in ("wh", "yn")])
        values = [v for v, _ in counts(properties, candidates, self.asked)]
        return self.asked, None if kind == "wh" else self.rng.choice(values)


def answer(target, question) -> str:
    """A truthful oracle's word: the target's value, or yes/no to a confirm."""
    prop, value = question
    if value is None:
        return target.assignment[prop]
    return "yes" if target.assignment[prop] == value else "no"


def keep(candidates, question, word) -> list:
    """The candidates that would have said `word`."""
    return [e for e in candidates if answer(e, question) == word]


def transcript(world, target_id, system, seed=0) -> list[tuple[str, str | None, str]]:
    """(property, confirmed value or None, word said) for each turn of a
    `system` episode on `target_id`; `seed` seeds the baseline."""
    properties = world.schema.properties
    target = next(e for e in world.entities if e.id == target_id)
    candidates = [e for e in world.entities if e.label == target.label]
    baseline, turns = Baseline(seed), []
    while len(candidates) > 1:
        if system == "baseline":
            question = baseline.choose(properties, candidates)
        else:
            question = model_question(properties, candidates, system.removeprefix("model-"))
        word = answer(target, question)
        candidates = keep(candidates, question, word)
        turns.append((*question, word))
    assert candidates == [target]
    return turns
