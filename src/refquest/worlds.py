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
from types import MappingProxyType

from refquest.world import Entity, PropertySchema, World, _prebuilt, _value_rows, load_world

_new, setattr_ = object.__new__, object.__setattr__


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
    assignments are resampled on collision until unique. Each value is
    drawn as its domain index, from the bits `Random.choice` would use on
    the domain, and the World's tables are built as the values are drawn:
    they equal what `World(schema, entities)` would build, so its checks
    are skipped.
    """
    spec.validate()
    getrandbits = random.Random(spec.seed).getrandbits
    schema = _schema(spec.n_properties, spec.values_per_property)
    k, varying = spec.values_per_property, range(spec.n_varying)
    bits = k.bit_length()  # Random._randbelow(k) draws this many bits until they read below k

    def draw(properties) -> list[int]:  # one value slot per property
        slots = []
        for i in properties:
            j = getrandbits(bits)
            while j >= k:
                j = getrandbits(bits)
            slots.append(i * k + j)
        return slots

    # a value's slot is its index in schema.fields: property i's j-th value is i * k + j
    keys, field_codes = tuple(schema.fields), tuple(schema.fields.values())
    constant = draw(range(spec.n_varying, spec.n_properties))
    constant_code = sum(map(field_codes.__getitem__, constant))
    slot_masks = [0] * len(keys)
    by_id, label_masks = {}, {}  # by_id holds the entities in order
    codes: dict[int, None] = {}  # the drawn codes, in entity order
    for n in range(spec.n_entities):
        while True:
            slots = draw(varying)
            code = constant_code + sum(map(field_codes.__getitem__, slots))
            if code not in codes:
                codes[code] = None
                break
        bit = 1 << n
        for slot in slots:
            slot_masks[slot] |= bit
        type_name = f"type{n // spec.group_size + 1}"
        label = type_name + " widget"
        label_masks[label] = label_masks.get(label, 0) | bit
        entity_id = f"e{n + 1:02d}"
        entity = by_id[entity_id] = _new(Entity)
        setattr_(entity, "id", entity_id)
        setattr_(entity, "label", label)
        setattr_(entity, "type_name", type_name)
        setattr_(entity, "assignment",
                 MappingProxyType(dict(map(keys.__getitem__, slots + constant))))
    for slot in constant:
        slot_masks[slot] = (1 << spec.n_entities) - 1
    value_masks = dict(zip(keys, slot_masks))
    return _prebuilt(
        World, schema=schema, entities=tuple(by_id.values()), min_sets={}, model_questions={},
        codes=tuple(codes), value_masks=MappingProxyType(value_masks),
        value_rows=_value_rows(schema, value_masks),
        label_masks=MappingProxyType(label_masks), _by_id=by_id,
    )


@functools.cache
def spacecraft_world() -> World:
    """The shipped 18-tool spacecraft layout: 6 tool types, 3 instances each."""
    text = resources.files("refquest.data").joinpath("spacecraft.yaml").read_text("utf-8")
    return load_world(text)
