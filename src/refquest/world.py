"""Symbolic task worlds: entities with property/value assignments.

A world is a property schema (ordered properties, each with an ordered
value domain) plus a list of entities. Property values are opaque string
tokens; only equality matters. Several entities may share a `label` (the
instruction-facing name) -- that is what creates referential ambiguity --
but every entity's full assignment must be unique. A World checks this
when it is constructed, whether it is built by hand, generated or loaded
from a config document.
"""

from __future__ import annotations

import re
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType

import yaml

class WorldFormatError(Exception):
    """A world config or entity is malformed or fails validation."""


# libyaml's parser when PyYAML was built with it; both resolve the same types
class _Loader(yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader):
    """The safe loader, except that a mapping may not repeat a key (YAML's
    own loaders keep the last value), numbers and dates load as the text
    written, and other tags are refused. A merge key (<<) may be overridden."""

    def construct_mapping(self, node, deep=False):
        # flatten_mapping deletes merge keys from this list and puts any merged
        # pairs first in a new one, so `written` keeps the keys as written
        written = node.value
        mapping = yaml.constructor.SafeConstructor.construct_mapping(self, node, deep=deep)
        if len(mapping) != len(node.value):  # a repeated key or an overridden merged one
            seen = set()
            for key_node, _ in written:
                key = self.construct_object(key_node)
                if key in seen:
                    raise WorldFormatError(
                        f"duplicate key {key!r} on line {key_node.start_mark.line + 1}"
                    )
                seen.add(key)
        return mapping

    def construct_yaml_bool(self, node):
        # an explicit !!bool may tag any text, such as !!bool ~
        if self.construct_scalar(node).lower() not in self.bool_values:
            raise WorldFormatError(f"!!bool {node.value!r} on line {node.start_mark.line + 1}"
                                   " is not a boolean")
        return yaml.constructor.SafeConstructor.construct_yaml_bool(self, node)

    def refuse_tag(self, node):
        raise WorldFormatError(f"tag {node.tag!r} on line {node.start_mark.line + 1} is not allowed")


# numbers and dates load as written (parsed, 1:2 would read 62 and 010 read 8),
# booleans and nulls as parsed for _text to refuse; other tags such as !!binary
# are refused
_YAML = "tag:yaml.org,2002:"
_Loader.yaml_constructors = {
    None: _Loader.refuse_tag,
    **{_YAML + t: _Loader.construct_scalar for t in ("str", "int", "float", "timestamp")},
    **{_YAML + t: yaml.SafeLoader.yaml_constructors[_YAML + t] for t in ("seq", "map", "null")},
    _YAML + "bool": _Loader.construct_yaml_bool,
}


# Deepest collection nesting a world config may have. libyaml's composer
# recurses in C and overflows the stack near 30,000 levels; the pure-Python
# one spends two frames of the interpreter's recursion limit a level.
_MAX_DEPTH = 256


def _refuse_deep_nesting(text: str) -> None:
    """Raise WorldFormatError if the document's collections nest deeper than
    _MAX_DEPTH, before any recursive code reads it.

    Every flow collection opens with [ or {. A block collection starts at a
    column that only spaces, tabs, byte-order marks and the indicators - ? :
    reach from its line's start, and one column holds at most two levels
    of a chain (a mapping and a sequence written at its indent). So a
    document with few brackets and no long run of those characters is
    shallow enough without parsing; any other has its events counted.
    """
    columns = (_MAX_DEPTH - text.count("[") - text.count("{")) // 2
    if columns > 0 and not re.search(f"[ \t\ufeff?:-]{{{columns}}}", text):
        return
    depth = 0
    for event in yaml.parse(text, Loader=_Loader):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise WorldFormatError(
                    f"world config nests deeper than {_MAX_DEPTH} levels"
                    f" on line {event.start_mark.line + 1}"
                )
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


@dataclass(frozen=True)
class Question:
    """A WH question about `property` when `value` is None ("What color is
    it?"), else a confirm question about that value ("Is it red?"). A
    schema tables one of each for its whole alphabet (`questions`)."""

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
class PropertySchema:
    """Ordered list of (property name, ordered value domain).

    Ordering is stable and significant: it drives deterministic
    tie-breaking throughout the question-selection pipeline. Names and
    domains are tabled once at construction.

    An entity packs into one int, its code: the sum of `fields[prop,
    value]` over its assignment. Property i owns the bit field of w bits
    starting at bit i * w, w wide enough for the largest domain, which
    holds the value's domain index + 1, or 0 where the entity has no value.
    `masks[i]` selects that field, so two entities agree on a property set
    exactly when their codes agree under the OR of its masks. A schema
    holds no per-entity state; each World packs and tables its entities'
    codes.

    `questions` tables the question alphabet: the one Question under
    (prop, None) for each property's WH question and under (prop, value)
    for each confirm, so a turn looks its question up instead of building it.
    """

    properties: tuple[tuple[str, tuple[str, ...]], ...]
    names: tuple[str, ...] = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    fields: Mapping[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    questions: Mapping[tuple[str, str | None], Question] = field(
        init=False, repr=False, compare=False
    )
    _domains: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = tuple(name for name, _ in self.properties)
        if len(set(names)) != len(names):
            raise WorldFormatError(f"duplicate property names in schema: {list(names)}")
        for name, values in self.properties:
            if not values:
                raise WorldFormatError(f"property {name!r} has an empty domain")
            if len(set(values)) != len(values):
                raise WorldFormatError(f"property {name!r} has duplicate values")
        width = max((len(values) for _, values in self.properties), default=0).bit_length()
        object.__setattr__(self, "names", names)
        object.__setattr__(
            self, "masks", tuple(((1 << width) - 1) << (i * width) for i in range(len(names)))
        )
        object.__setattr__(self, "fields", MappingProxyType({
            (name, value): (j + 1) << (i * width)
            for i, (name, values) in enumerate(self.properties)
            for j, value in enumerate(values)
        }))
        object.__setattr__(self, "questions", MappingProxyType({
            (name, value): Question(name, value)
            for name, values in self.properties
            for value in (None, *values)
        }))
        object.__setattr__(self, "_domains", dict(self.properties))

    def domain(self, name: str) -> tuple[str, ...]:
        return self._domains[name]


@dataclass(frozen=True)
class Entity:
    """One object in the world, with a total property assignment. The
    assignment is a read-only copy, so a World's tables built from it
    cannot go stale."""

    id: str
    label: str
    type_name: str
    assignment: Mapping[str, str] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def value(self, prop: str) -> str:
        return self.assignment[prop]


@dataclass(frozen=True)
class World:
    """A schema and its entities, checked at construction: ids are unique,
    every entity assigns each property one value of its domain, and no two
    entities share an assignment. Otherwise WorldFormatError lists every
    violation.

    A checked World tables its entities by id, their packed schema codes
    as `codes` (a tuple aligned with `entities`), and entity bitmasks, bit
    i standing for `entities[i]`: `value_masks` holds one per (property,
    value) of the schema, 0 where no entity has the value, and
    `label_masks` one per label. All these tables are read-only. The one
    mutable part, a memo of pure functions of the world freed with it, is
    `min_sets` by candidate mask and `model_questions` by (policy, mask)."""

    schema: PropertySchema
    entities: tuple[Entity, ...]
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    value_masks: Mapping[tuple[str, str], int] = field(init=False, repr=False, compare=False)
    label_masks: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, Entity] = field(init=False, repr=False, compare=False)
    min_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    model_questions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        violations = []
        by_id: dict[str, Entity] = {}
        fields = self.schema.fields
        value_masks = dict.fromkeys(fields, 0)
        label_masks: dict[str, int] = {}
        groups: dict[int, list[int]] = {}  # code -> entity indices, world order
        codes = []
        for i, e in enumerate(self.entities):
            if e.id in by_id:
                violations.append(f"duplicate entity id {e.id!r}")
            by_id[e.id] = e
            bit = 1 << i
            label_masks[e.label] = label_masks.get(e.label, 0) | bit
            missing = [p for p in self.schema.names if p not in e.assignment]
            if missing:
                violations.append(f"entity {e.id!r}: incomplete assignment, missing {missing}")
            code = 0
            for key in e.assignment.items():
                try:
                    code += fields[key]
                except KeyError:
                    prop, value = key
                    violations.append(f"entity {e.id!r}: " + (
                        f"value {value!r} not in domain of property {prop!r}"
                        if prop in self.schema.names
                        else f"unknown property {prop!r} (value {value!r})"
                    ))
                    break
                value_masks[key] |= bit
            else:
                codes.append(code)
                groups.setdefault(code, []).append(i)
        # every identical pair, in (earlier, later) world order
        for i, j in sorted(pair for group in groups.values() for pair in combinations(group, 2)):
            a, b = self.entities[i].id, self.entities[j].id
            violations.append(f"entities {a!r} and {b!r} share an identical assignment")
        if violations:
            raise WorldFormatError("invalid world: " + "; ".join(violations))
        object.__setattr__(self, "codes", tuple(codes))
        object.__setattr__(self, "value_masks", MappingProxyType(value_masks))
        object.__setattr__(self, "label_masks", MappingProxyType(label_masks))
        object.__setattr__(self, "_by_id", by_id)

    def by_id(self, entity_id: str) -> Entity:
        return self._by_id[entity_id]


def _text(value, where: str) -> str:
    """A world name or value as its string token; YAML booleans and nulls are
    refused because their spelling (yes, no, on, ~) is lost once parsed, and
    lists and mappings because they are not one token; _Loader loads any
    other value as the text written."""
    if value is None or isinstance(value, bool):
        raise WorldFormatError(
            f"{where}: parsed as {value!r}; quote it to keep it as text (e.g. 'yes')"
        )
    if isinstance(value, (list, dict)):
        raise WorldFormatError(f"{where}: expected a single value, got {reprlib.repr(value)}")
    return value


def load_world(text: str) -> World:
    """Parse a world-config document (YAML) into a checked World.

    Top-level keys: `schema` (list of {name, values}) and `entities`
    (list of {id, label, type, assignment}).
    """
    try:
        _refuse_deep_nesting(text)
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise WorldFormatError(f"world config does not parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise WorldFormatError("world config must be a key/value tree")
    for key in ("schema", "entities"):
        if key not in doc:
            raise WorldFormatError(f"world config missing top-level key {key!r}")
        if not isinstance(doc[key], list):
            raise WorldFormatError(
                f"world config key {key!r} must be a list, got {reprlib.repr(doc[key])}"
            )

    props = []
    for item in doc["schema"]:
        try:
            name, values = _text(item["name"], "property name"), item["values"]
        except (TypeError, KeyError) as exc:
            raise WorldFormatError(
                f"bad schema entry {reprlib.repr(item)}: needs name/values"
            ) from exc
        if not isinstance(values, list):
            raise WorldFormatError(
                f"property {name!r}: values must be a list, got {reprlib.repr(values)}"
            )
        props.append((name, tuple(_text(v, f"property {name!r}") for v in values)))
    schema = PropertySchema(tuple(props))

    if not doc["entities"]:
        raise WorldFormatError("world config has an empty entity list")
    entities = []
    for item in doc["entities"]:
        try:
            entity_id = _text(item["id"], "entity id")
            where = f"entity {entity_id!r}"
            entities.append(
                Entity(
                    id=entity_id,
                    label=_text(item["label"], f"{where} label"),
                    type_name=_text(item["type"], f"{where} type"),
                    assignment={
                        _text(k, f"{where} property name"): _text(v, f"{where}, property {k!r}")
                        for k, v in item["assignment"].items()
                    },
                )
            )
        except (TypeError, KeyError, AttributeError) as exc:
            raise WorldFormatError(
                f"bad entity entry {reprlib.repr(item)}: needs id/label/type/assignment"
            ) from exc

    return World(schema=schema, entities=tuple(entities))


def serialize_world(world: World) -> str:
    """Render a World back into the config-document format (round-trips)."""
    doc = {
        "schema": [
            {"name": name, "values": list(values)}
            for name, values in world.schema.properties
        ],
        "entities": [
            {
                "id": e.id,
                "label": e.label,
                "type": e.type_name,
                "assignment": {p: e.assignment[p] for p in world.schema.names},
            }
            for e in world.entities
        ],
    }
    # non-ASCII characters are written as escapes: written raw, a NEL
    # (U+0085) inside a single-quoted scalar would read back as a space
    return yaml.safe_dump(doc, sort_keys=False)
