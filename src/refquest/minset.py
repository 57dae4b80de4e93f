"""Minimum disambiguating property sets by projection injectivity.

A property set tells the entities apart exactly when projecting every
entity onto it gives pairwise distinct rows. While few properties vary
among the entities, the smallest such set is found by cardinality-ordered
exhaustive search; beyond that, properties are added greedily, each time
the one that most refines the partition of entities into equal rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import itemgetter

from refquest.world import Entity, PropertySchema

EXACT_LIMIT_DEFAULT = 16


class IndistinguishablePairError(Exception):
    """Two entities share an identical assignment; no question can split them."""

    def __init__(self, id1: str, id2: str):
        super().__init__(f"entities {id1!r} and {id2!r} are indistinguishable")
        self.id1 = id1
        self.id2 = id2


def compute_min_set(
    entities: Sequence[Entity],
    schema: PropertySchema,
    exact_limit: int = EXACT_LIMIT_DEFAULT,
) -> list[str]:
    """Minimum property set sufficient to tell all entities apart, in schema order.

    A single entity (or none) needs no disambiguation and yields [].
    Exact while at most `exact_limit` properties vary among the entities:
    the first injective subset in cardinality order, then combinations
    order over the schema. Greedy beyond that: repeatedly add the property
    that most increases the number of distinct projections, ties going to
    the earlier schema property.
    """
    if len(entities) < 2:
        return []
    names = schema.names
    rows = [schema.row(e) for e in entities]
    k = len(rows)
    if len(set(rows)) < k:
        first: dict[tuple, Entity] = {}
        for e, row in zip(entities, rows):
            seen = first.setdefault(row, e)
            if seen is not e:
                raise IndistinguishablePairError(seen.id, e.id)
    varying = [i for i in range(len(names)) if len(set(map(itemgetter(i), rows))) > 1]

    def distinct(columns: Sequence[int]) -> int:
        return len(set(map(itemgetter(*columns), rows)))

    def injective(columns: Sequence[int]) -> bool:
        # most subsets repeat a projection within the first few dozen rows
        seen: set = set()
        add = seen.add
        for projection in map(itemgetter(*columns), rows):
            if projection in seen:
                return False
            add(projection)
        return True

    if len(varying) <= exact_limit:
        for r in range(1, len(varying) + 1):
            for subset in itertools.combinations(varying, r):
                if injective(subset):
                    return [names[i] for i in subset]
        raise AssertionError("all varying properties together separate distinct rows")
    chosen: list[int] = []
    while not chosen or distinct(chosen) < k:
        # varying is schema-ordered, so max() on the count alone breaks
        # ties toward the earlier property
        rest = [i for i in varying if i not in chosen]
        chosen.append(max(rest, key=lambda i: distinct([*chosen, i])))
    return [names[i] for i in sorted(chosen)]
