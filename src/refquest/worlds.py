"""World providers: the shipped spacecraft layout and random generators.

A random world's entities differ on its first `n_varying` properties;
the rest are constant decoys. The benchmark's low-variance regime varies
a few properties and its high-variance regime all of them. Entities are
grouped under shared instruction labels, which is what creates the
ambiguity each episode must resolve.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources

from refquest.world import Entity, PropertySchema, World, load_world


class InfeasibleSpecError(Exception):
    """The spec cannot produce the requested number of unique entities."""


@dataclass(frozen=True)
class RandomWorldSpec:
    n_entities: int = 20
    n_properties: int = 7
    n_varying: int = 3
    values_per_property: int = 4
    group_size: int = 7  # entities per shared instruction label
    seed: int = 0

    def validate(self):
        if self.n_varying > self.n_properties:
            raise InfeasibleSpecError("n_varying exceeds n_properties")
        if self.values_per_property ** self.n_varying < self.n_entities:
            raise InfeasibleSpecError(
                f"{self.values_per_property}^{self.n_varying} < {self.n_entities}: "
                "not enough combinations for unique entities"
            )
        if min(self.n_entities, self.n_properties, self.values_per_property, self.group_size) < 1:
            raise InfeasibleSpecError("all counts must be at least 1")


@functools.lru_cache(maxsize=16)
def _schema(n_properties: int, values_per_property: int) -> PropertySchema:
    """The one schema of a shape, shared by every world generated in it."""
    return PropertySchema(tuple(
        (name, tuple(f"{name}_v{j + 1}" for j in range(values_per_property)))
        for name in (f"prop{i + 1}" for i in range(n_properties))
    ))


def generate_random_world(spec: RandomWorldSpec) -> World:
    """Deterministic random world for a spec.

    The first `n_varying` properties get values sampled independently
    per entity; the rest are constant across all entities. Full
    assignments are resampled on collision until unique.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    schema = _schema(spec.n_properties, spec.values_per_property)
    prop_names = schema.names
    varying = prop_names[: spec.n_varying]
    constant = {
        name: rng.choice(schema.domain(name)) for name in prop_names[spec.n_varying:]
    }

    entities = []
    seen = set()
    for i in range(spec.n_entities):
        while True:
            assignment = {name: rng.choice(schema.domain(name)) for name in varying}
            assignment.update(constant)
            key = tuple(assignment[p] for p in prop_names)
            if key not in seen:
                seen.add(key)
                break
        group = i // spec.group_size
        entities.append(
            Entity(
                id=f"e{i + 1:02d}",
                label=f"type{group + 1} widget",
                type_name=f"type{group + 1}",
                assignment=assignment,
            )
        )
    return World(schema=schema, entities=tuple(entities))


@functools.cache
def spacecraft_world() -> World:
    """The shipped 18-tool spacecraft layout: 6 tool types, 3 instances each."""
    text = resources.files("refquest.data").joinpath("spacecraft.yaml").read_text("utf-8")
    return load_world(text)
