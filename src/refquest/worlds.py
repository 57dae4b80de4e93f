"""World providers: the shipped spacecraft layout and random generators.

A random world's entities differ on its first `n_varying` properties;
the rest are constant decoys. The benchmark's low-variance regime varies
a few properties and its high-variance regime all of them. Entities are
grouped under shared instruction labels, which is what creates the
ambiguity each episode must resolve. The generator only draws each
entity's value slots and takes its shape's names; `world._unchecked_world`
builds the World and its tables from them, as the checked constructor would.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from importlib import resources

from refquest.world import PropertySchema, World, _unchecked_world, load_world


class InfeasibleSpecError(Exception):
    """The spec cannot produce the requested number of unique entities."""


def check_seed(seed: int, error: type[Exception] = ValueError) -> None:
    """Refuse a negative seed with `error`, in the one message every entry
    point gives: `random.Random` seeds from abs(seed), so seed -3 would
    silently draw what seed 3 draws."""
    if seed < 0:
        raise error(f"seed must be 0 or more, got {seed}")


@dataclass(frozen=True)
class RandomWorldSpec:
    n_entities: int = 20
    n_properties: int = 7
    n_varying: int = 3
    values_per_property: int = 4
    group_size: int = 7  # entities per shared instruction label
    seed: int = 0

    def validate(self):
        check_seed(self.seed, InfeasibleSpecError)
        if min(self.n_entities, self.n_properties, self.values_per_property, self.group_size) < 1:
            raise InfeasibleSpecError("all counts must be at least 1")
        if self.n_varying < 0:
            raise InfeasibleSpecError(f"n_varying must be 0 or more, got {self.n_varying}")
        if self.n_varying > self.n_properties:
            raise InfeasibleSpecError("n_varying exceeds n_properties")
        if self.values_per_property ** self.n_varying < self.n_entities:
            raise InfeasibleSpecError(
                f"{self.values_per_property}^{self.n_varying} < {self.n_entities}: "
                "not enough combinations for unique entities"
            )


@functools.lru_cache(maxsize=16)
def _schema(n_properties: int, values_per_property: int) -> PropertySchema:
    """The one schema of a shape, shared by every world generated in it."""
    return PropertySchema(tuple(
        (name, tuple(f"{name}_v{j + 1}" for j in range(values_per_property)))
        for name in (f"prop{i + 1}" for i in range(n_properties))
    ))


@functools.lru_cache(maxsize=16)
def _names(n_entities: int, group_size: int) -> tuple[tuple[str, str, str], ...]:
    """Each entity's (id, label, type name) in a shape's worlds, shared by
    every world generated in it."""
    types = [f"type{n // group_size + 1}" for n in range(n_entities)]
    return tuple((f"e{n + 1:02d}", t + " widget", t) for n, t in enumerate(types))


def generate_random_world(spec: RandomWorldSpec) -> World:
    """Deterministic random world for a spec.

    The first `n_varying` properties get values sampled independently
    per entity; the rest are constant across all entities. Full
    assignments are resampled on collision until unique. Each value is
    drawn as its domain index, from the bits `Random.choice` would use on
    the domain, and kept as its value slot. The entities' slots and their
    shape's names go to `_unchecked_world`: they are drawn unique and
    complete, so the World's checks are skipped.
    """
    spec.validate()
    getrandbits = random.Random(spec.seed).getrandbits
    schema = _schema(spec.n_properties, spec.values_per_property)
    k, varying = spec.values_per_property, range(spec.n_varying)
    bits = k.bit_length()  # Random._randbelow(k) draws this many bits until they read below k

    def draw(properties) -> tuple[int, ...]:  # one value slot per property
        slots = []
        for i in properties:
            j = getrandbits(bits)
            while j >= k:
                j = getrandbits(bits)
            slots.append(i * k + j)
        return tuple(slots)

    # a value's slot is its index in schema.fields: property i's j-th value is i * k + j
    constant = draw(range(spec.n_varying, spec.n_properties))
    seen, rows = set(), []  # the varying slots drawn; each entity's slots
    for _ in range(spec.n_entities):
        slots = draw(varying)
        while slots in seen:
            slots = draw(varying)
        seen.add(slots)
        rows.append(slots + constant)
    return _unchecked_world(schema, _names(spec.n_entities, spec.group_size), rows)


@functools.cache
def spacecraft_world() -> World:
    """The shipped 18-tool spacecraft layout: 6 tool types, 3 instances each."""
    text = resources.files("refquest.data").joinpath("spacecraft.yaml").read_text("utf-8")
    return load_world(text)
