"""The one source of generated worlds for the tests' hypothesis checks."""

import math
import random

from hypothesis import strategies as st

from refquest.minset import EXACT_LIMIT_DEFAULT
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import RandomWorldSpec

# domain sizes on both sides of each field-width step of a packed code
# (1 | 2-3 | 4-7 | 8-15 values)
DOMAIN_SIZES = (1, 2, 3, 4, 7, 8, 9)
# compute_min_set's exact_limit: always greedy, greedy past 3 varying, the default
EXACT_LIMITS = (0, 3, EXACT_LIMIT_DEFAULT)
KINDS = ("small", "large", "wide")


@st.composite
def worlds(draw, kinds=KINDS):
    """A World of one of `kinds`, by its free properties (those whose value
    is drawn per entity) and entities:
    - small: 1-6 free properties, 1-24 entities;
    - large: 4-6 free properties of 4 or more values, 65-130 entities,
      past one machine word;
    - wide: 17-20 free properties, 8-24 entities, past EXACT_LIMIT_DEFAULT.

    Domain sizes come from DOMAIN_SIZES, each property its own. Up to two
    constant decoys are added, and a property named color, free or
    constant, or none. Properties stand in shuffled schema order, and
    names are numbered in shuffled order, so sorted property and value
    names differ from schema and domain order. Entities stand in the order
    their rows were drawn, ids numbered in shuffled order, each under one
    of 1-4 labels drawn per entity: label groups interleave, and their
    sizes run from 1 to n.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "small":
        free = draw(st.lists(st.sampled_from(DOMAIN_SIZES), min_size=1, max_size=6))
        n_entities = draw(st.integers(1, 24))
    elif kind == "large":
        free = draw(st.lists(st.sampled_from(DOMAIN_SIZES[3:]), min_size=4, max_size=6))
        n_entities = draw(st.integers(65, 130))
    else:
        free = draw(st.lists(st.sampled_from(DOMAIN_SIZES[1:3]), min_size=17, max_size=20))
        n_entities = draw(st.integers(8, 24))
    decoys = draw(st.lists(st.sampled_from(DOMAIN_SIZES), max_size=2))
    color = draw(st.sampled_from((None, "free", "constant")))
    if color == "constant" and not decoys:
        decoys = [draw(st.sampled_from(DOMAIN_SIZES))]
    n_labels = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))

    # (domain size, None for a free property or the index of the value held)
    specs = [(n, None) for n in free] + [(n, rng.randrange(n)) for n in decoys]
    colored = {"free": 0, "constant": len(free), None: None}[color]
    names = [f"p{i}" for i in rng.sample(range(len(specs)), len(specs))]
    if colored is not None:
        names[colored] = "color"
    props = [(name, tuple(f"v{j}" for j in rng.sample(range(n), n)), held)
             for name, (n, held) in zip(names, specs)]
    rng.shuffle(props)
    schema = PropertySchema(tuple((name, domain) for name, domain, _ in props))

    rows: dict[tuple, None] = {}
    while len(rows) < min(n_entities, math.prod(free)):
        rows.setdefault(tuple(
            domain[rng.randrange(len(domain)) if held is None else held]
            for _, domain, held in props
        ))
    ids = rng.sample(range(len(rows)), len(rows))
    entities = [
        Entity(f"e{i}", f"l{rng.randrange(n_labels)}", "t", dict(zip(schema.names, row)))
        for i, row in zip(ids, rows)
    ]
    return World(schema, tuple(entities))


@st.composite
def random_world_specs(draw, refused=True):
    """A RandomWorldSpec: 1-8 properties, n_varying of them from 0 up, 1-5
    values per property, groups of 1-8 and up to 30 entities. A spec the
    generator accepts has at least twice as many value combinations as
    entities, or one entity, so drawing unique rows takes few redraws.
    With `refused`, about one spec in four may also vary one property too
    many or a negative number of them, or have no entities, groups of none,
    or too few combinations for its entities, or a negative seed, all of
    which the generator refuses."""
    refuse = refused and draw(st.integers(0, 3)) == 0
    least = 0 if refuse else 1
    n_properties = draw(st.integers(1, 8))
    n_varying = draw(st.integers(-2 * refuse, n_properties + refuse))
    values = draw(st.integers(1, 5))
    n_entities = draw(st.integers(least, 30))
    combinations = values ** max(n_varying, 0)
    # too few combinations to draw unique rows quickly: a refused spec keeps
    # too few for its entities, and any other takes half as many entities
    if n_entities > 1 and combinations < 2 * n_entities and not (refuse and combinations < n_entities):
        n_entities = max(1, combinations // 2)
    return RandomWorldSpec(
        n_entities=n_entities, n_properties=n_properties, n_varying=n_varying,
        values_per_property=values, group_size=draw(st.integers(least, 8)),
        seed=draw(st.integers(-2**63 if refuse else 0, 2**64)),
    )
