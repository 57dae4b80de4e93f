"""Minimum disambiguating property sets over a World's candidate masks.

A property set tells candidates apart exactly when projecting each one
onto it gives pairwise distinct rows. The candidates are an entity
bitmask over a World, bit i standing for `world.entities[i]`. The exact
path reads their packed codes from `world.codes` (see `PropertySchema`),
so a projection is `code & mask` for the OR of the set's field masks.
While few properties vary among the candidates, the smallest such set is
found by cardinality-ordered exhaustive search; beyond that, properties
are added greedily by partition refinement over `world.value_masks`:
the classes of equal projections are entity bitmasks, a property splits
a class into its nonzero ANDs with the property's value masks, and each
step adds the property that splits the classes into the most new ones.
Two candidates need neither: any property they differ on separates them
alone, and both paths would take the first, so it is read off their codes.
"""

from __future__ import annotations

import itertools
from operator import and_, countOf

from refquest.belief import check_mask
from refquest.world import World

EXACT_LIMIT_DEFAULT = 16


def compute_min_set(world: World, mask: int, exact_limit: int = EXACT_LIMIT_DEFAULT) -> list[str]:
    """Minimum property set sufficient to tell the candidates in `mask`
    apart, in schema order.

    A single candidate (or none) needs no disambiguation and yields [].
    Two candidates yield the first property they differ on, which both
    paths below would return, at any `exact_limit`. Exact while at most
    `exact_limit` properties vary among the candidates: the first
    injective subset in cardinality order, then combinations order over
    the schema. Greedy beyond that: repeatedly add
    the property that most increases the number of distinct projections,
    ties going to the earlier schema property. A mask with bits beyond the
    world's entities is refused with ValueError.
    """
    check_mask(world, mask)
    rest = mask & (mask - 1)
    if not rest:
        return []
    schema = world.schema
    names, masks = schema.names, schema.masks
    if not rest & (rest - 1):
        # two candidates: every property they differ on tells them apart
        # alone, so both paths take the first, whose field holds the lowest
        # bit where their codes differ
        codes = world.codes
        differ = codes[(mask ^ rest).bit_length() - 1] ^ codes[rest.bit_length() - 1]
        return [names[((differ & -differ).bit_length() - 1) // masks[0].bit_length()]]
    bits = bin(mask)[:1:-1]  # least significant first
    codes = list(itertools.compress(world.codes, map("1".__eq__, bits)))
    # a property varies exactly where some code's field differs from the first's
    differ, first = 0, codes[0]
    for code in codes:
        differ |= code ^ first
    varying = [i for i, m in enumerate(masks) if differ & m]

    if len(varying) <= exact_limit:
        for r in range(1, len(varying) + 1):
            subset_masks = map(sum, itertools.combinations([masks[i] for i in varying], r))
            for subset, field_mask in zip(itertools.combinations(varying, r), subset_masks):
                # most subsets repeat a projection within the first few dozen rows
                seen: set[int] = set()
                add_seen = seen.add
                for code in codes:
                    projection = code & field_mask
                    if projection in seen:
                        break
                    add_seen(projection)
                else:
                    return [names[i] for i in subset]
        raise AssertionError("all varying properties together separate distinct codes")

    # each varying property's parts: the candidates with each of its values
    value_masks = world.value_masks
    parts = {i: [p for m in value_masks[names[i]].values() if (p := mask & m)] for i in varying}
    classes, chosen = [mask], []  # only classes of two or more candidates

    def splits(i: int) -> int:
        """The nonzero class & part intersections of property i: the number
        of distinct projections it gives, less the fixed count of singletons."""
        pairs = itertools.product(classes, parts[i])
        return len(classes) * len(parts[i]) - countOf(itertools.starmap(and_, pairs), 0)

    while classes:
        # parts is schema-ordered, so max() breaks ties toward the earlier property
        pick = max(parts, key=splits)
        chosen.append(pick)
        pairs = itertools.product(classes, parts.pop(pick))
        classes = [c for c in itertools.starmap(and_, pairs) if c & (c - 1)]
    return [names[i] for i in sorted(chosen)]
