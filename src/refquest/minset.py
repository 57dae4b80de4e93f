"""Minimum disambiguating property sets by projection injectivity.

A property set tells the entities apart exactly when projecting every
entity onto it gives pairwise distinct rows. Entities are read as their
packed schema codes (see `PropertySchema`), so a projection is
`code & mask` for the OR of the set's field masks. While few properties
vary among the entities, the smallest such set is found by
cardinality-ordered exhaustive search; beyond that, properties are added
greedily by partition refinement: every entity carries the id of its class
of equal projections, and each step adds the property that splits those
classes into the most new ones.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from operator import add, rshift

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
    names, masks = schema.names, schema.masks
    codes = list(map(schema.code, entities))
    k = len(codes)
    if len(set(codes)) < k:
        by_code: dict[int, Entity] = {}
        for e, code in zip(entities, codes):
            other = by_code.setdefault(code, e)
            if other is not e:
                raise IndistinguishablePairError(other.id, e.id)
    # a property varies exactly where some code's field differs from the first's
    differ, first = 0, codes[0]
    for code in codes:
        differ |= code ^ first
    varying = [i for i, m in enumerate(masks) if differ & m]

    if len(varying) <= exact_limit:
        for r in range(1, len(varying) + 1):
            subset_masks = map(sum, itertools.combinations([masks[i] for i in varying], r))
            for subset, mask in zip(itertools.combinations(varying, r), subset_masks):
                # most subsets repeat a projection within the first few dozen rows
                seen: set[int] = set()
                add_seen = seen.add
                for code in codes:
                    projection = code & mask
                    if projection in seen:
                        break
                    add_seen(projection)
                else:
                    return [names[i] for i in subset]
        raise AssertionError("all varying properties together separate distinct codes")

    # one column per varying property: its field shifted down to
    # 0..2**width - 1, so class id << width plus a field value is distinct
    # per (class, value)
    width = schema.width
    columns = {
        i: list(map(rshift, map(masks[i].__and__, codes), itertools.repeat(i * width)))
        for i in varying
    }
    base = [0] * k  # class id << width, one per entity; all in one class at first
    n_classes, chosen = 1, []
    while n_classes < k:
        # columns is schema-ordered, so max() on the count alone breaks
        # ties toward the earlier property
        pick = max(columns, key=lambda i: len(set(map(add, base, columns[i]))))
        relabel: dict[int, int] = {}
        base = [relabel.setdefault(key, len(relabel)) << width
                for key in map(add, base, columns.pop(pick))]
        n_classes = len(relabel)
        chosen.append(pick)
    return [names[i] for i in sorted(chosen)]
