"""Symbolic task worlds: entities with property/value assignments.

A world is a property schema (ordered properties, each with an ordered
value domain) plus a list of entities. Property values are opaque string
tokens; only equality matters. Several entities may share a `label` (the
instruction-facing name) -- that is what creates referential ambiguity --
but every entity's full assignment must be unique. A World checks this
when it is constructed, whether it is built by hand or loaded from a
config document. The random generator draws unique assignments from a
schema it built, so `_unchecked_world` skips the checks for it; either
way `_table` builds the World's tables from each entity's value slots.
"""

from __future__ import annotations

import reprlib
from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import merge
from itertools import combinations, islice
from math import comb
from types import MappingProxyType

import yaml

class WorldFormatError(Exception):
    """A world config or entity is malformed or fails validation."""


# libyaml's parser when PyYAML was built with it, else the pure-Python one;
# both emit the same events, and _read builds the document from them
_Loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
# the plain scalars YAML 1.1 reads as other than text, each refused with its
# line: its nulls and booleans, whose spelling is lost once parsed, and its
# merge (<<) and "value" (=) keys, refused as the tags they resolve to. Any
# other plain scalar, numbers and dates among them, is the text written.
_NOT_TEXT = {
    word: f"plain {word!r} on line {{}} is not allowed; quote it to keep it as text"
    for word in ("", "~", *(case(word) for word in "null yes no true false on off".split()
                            for case in (str.lower, str.capitalize, str.upper)))
}
_NOT_TEXT["<<"] = "tag 'tag:yaml.org,2002:merge' on line {} is not allowed"
_NOT_TEXT["="] = "tag 'tag:yaml.org,2002:value' on line {} is not allowed"
_NO_KEY = object()  # a mapping awaiting a key

# Deepest collection nesting a world config may have. _read needs no
# recursion, but no world needs more than a few levels, and a document
# nested deeper is refused at its first level too deep, unread beyond it.
_MAX_DEPTH = 256


def _read(text: str):
    """The value of the one YAML document in `text`, or None if it has none,
    read in one pass over the parser's events: no node tree is composed.

    The document is a plain tree of plain or quoted scalars, each loaded as
    the text written, so its value holds only str, list and dict. Every
    anchor (&), alias (*) and tag (!), every list or mapping used as a key,
    every second document and every plain scalar in _NOT_TEXT (yes, ~, <<)
    is refused with its line, wherever it stands. No mapping may repeat a key.
    """
    # the open collections, outermost first: the stream's list of documents,
    # then each collection with the key its mapping awaits
    documents = container = []
    key = _NO_KEY
    stack = []  # the enclosing collections' (container, key)
    events = yaml.parse(text, Loader=_Loader)
    for event in events:
        kind = event.__class__
        if kind is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _property_refused(event)
            value = event.value
            if event.implicit[0] and value in _NOT_TEXT:  # plain
                if not value:
                    # the parser gives a missing value before the fault after
                    # it, as in "{a": a parse error at the next event wins
                    next(events, None)
                raise WorldFormatError(_NOT_TEXT[value].format(event.start_mark.line + 1))
        elif kind is yaml.AliasEvent:
            raise _not_allowed(f"alias *{event.anchor}", event)
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if event.anchor is not None or event.tag is not None:
                raise _property_refused(event)
            if len(stack) == _MAX_DEPTH:
                raise WorldFormatError(f"world config nests deeper than {_MAX_DEPTH} levels"
                                       f" on line {event.start_mark.line + 1}")
            if key is _NO_KEY and container.__class__ is dict:
                raise _not_allowed("list or mapping as a key", event)
            stack.append((container, key))
            container = {} if kind is yaml.MappingStartEvent else []
            key = _NO_KEY
            continue
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            value = container
            container, key = stack.pop()
        elif kind is yaml.DocumentStartEvent and documents:
            raise _not_allowed("second document", event)
        else:  # the stream's start and end, a document's start and end
            continue
        if key is _NO_KEY:
            if container.__class__ is dict:
                if value in container:
                    raise WorldFormatError(
                        f"duplicate key {value!r} on line {event.start_mark.line + 1}")
                key = value
            else:
                container.append(value)
        else:
            container[key] = value
            key = _NO_KEY
    return documents[0] if documents else None


def _not_allowed(what: str, event) -> WorldFormatError:
    """The refusal of `what`, which starts where `event` does."""
    return WorldFormatError(f"{what} on line {event.start_mark.line + 1} is not allowed")


def _property_refused(event) -> WorldFormatError:
    """The refusal of a node event's anchor, or else of its tag."""
    if event.anchor is not None:
        return _not_allowed(f"anchor &{event.anchor}", event)
    return _not_allowed(f"tag {event.tag!r}", event)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PropertySchema:
    """Ordered list of (property name, ordered value domain).

    Ordering is stable and significant: it drives deterministic
    tie-breaking throughout the question-selection pipeline. Names are
    tabled once at construction.

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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class World:
    """A schema and its entities, checked at construction: ids are unique,
    every entity assigns each property one value of its domain, and no two
    entities share an assignment. Otherwise WorldFormatError lists every
    violation, counting the identical pairs beyond the first _PAIRS_SHOWN.

    A checked World tables its entities by id, their packed schema codes
    as `codes` (a tuple aligned with `entities`), and entity bitmasks, bit
    i standing for `entities[i]`: `value_masks[prop][value]` holds one per
    (property, value) of the schema, properties in schema order and each
    one's values in domain order, 0 where no entity has the value, and
    `label_masks` one per label. All these tables, both levels of
    `value_masks` among them, are read-only. The one mutable part, a memo
    of pure functions of the world freed with it, is `min_sets` by
    candidate mask and `model_questions` by (policy, mask).

    This constructor checks each entity and looks up its value slots;
    `_unchecked_world` takes the random generator's, drawn unique. Both
    hand them to `_table`, which sets every table."""

    schema: PropertySchema
    entities: tuple[Entity, ...]
    codes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    value_masks: Mapping[str, Mapping[str, int]] = field(init=False, repr=False, compare=False)
    label_masks: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _by_id: dict[str, Entity] = field(init=False, repr=False, compare=False)
    min_sets: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    model_questions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        violations = []
        ids = set()
        slots = {key: slot for slot, key in enumerate(self.schema.fields)}
        rows = []  # each entity's value slots
        groups: dict[frozenset, list[int]] = {}  # slot set -> entity indices, world order
        for i, e in enumerate(self.entities):
            if e.id in ids:
                violations.append(f"duplicate entity id {e.id!r}")
            ids.add(e.id)
            missing = [p for p in self.schema.names if p not in e.assignment]
            if missing:
                violations.append(f"entity {e.id!r}: incomplete assignment, missing {missing}")
            row = []
            for key in e.assignment.items():
                try:
                    row.append(slots[key])
                except KeyError:
                    prop, value = key
                    violations.append(f"entity {e.id!r}: " + (
                        f"value {value!r} not in domain of property {prop!r}"
                        if prop in self.schema.names
                        else f"unknown property {prop!r} (value {value!r})"
                    ))
                    break
            else:
                rows.append(row)
                groups.setdefault(frozenset(row), []).append(i)
        if len(groups) < len(rows):  # some entities share an assignment
            # each group's pairs come in world order, so merging lists only the first
            pairs = merge(*(combinations(g, 2) for g in groups.values() if len(g) > 1))
            for i, j in islice(pairs, _PAIRS_SHOWN):
                a, b = self.entities[i].id, self.entities[j].id
                violations.append(f"entities {a!r} and {b!r} share an identical assignment")
            more = sum(comb(len(g), 2) for g in groups.values()) - _PAIRS_SHOWN
            if more > 0:
                violations.append(f"and {more} more identical pair{'s' * (more > 1)}")
        if violations:
            raise WorldFormatError("invalid world: " + "; ".join(violations))
        _table(self, rows)

    def by_id(self, entity_id: str) -> Entity:
        return self._by_id[entity_id]


def _table(world: World, rows) -> None:
    """Set `world`'s tables from its entities' value slots, `rows[i]` holding
    those of `entities[i]`, a slot being an index into `schema.fields`. The
    checked constructor and `_unchecked_world` both table through here, so
    a World's tables are the same however it was built."""
    schema, setattr_ = world.schema, object.__setattr__
    field_codes = tuple(schema.fields.values())
    slot_masks, label_masks, codes, bit = [0] * len(field_codes), {}, [], 1
    for e, row in zip(world.entities, rows):
        code = 0
        for slot in row:
            slot_masks[slot] |= bit
            code += field_codes[slot]
        codes.append(code)
        label_masks[e.label] = label_masks.get(e.label, 0) | bit
        bit <<= 1
    masks = iter(slot_masks)  # schema.fields' order: by property, then by value
    setattr_(world, "codes", tuple(codes))
    setattr_(world, "value_masks", MappingProxyType({
        name: MappingProxyType(dict(zip(values, masks))) for name, values in schema.properties
    }))
    setattr_(world, "label_masks", MappingProxyType(label_masks))
    setattr_(world, "_by_id", {e.id: e for e in world.entities})


def _unchecked_world(schema: PropertySchema, names, rows) -> World:
    """The World of entities named `names[i]`, an (id, label, type name), with
    the value slots `rows[i]`, drawn over `schema` with unique ids and rows:
    what the checked constructors would build, without their checks."""
    new, setattr_, keys = object.__new__, object.__setattr__, tuple(schema.fields)
    entities = []
    for (entity_id, label, type_name), row in zip(names, rows):
        e = new(Entity)
        setattr_(e, "id", entity_id)
        setattr_(e, "label", label)
        setattr_(e, "type_name", type_name)
        setattr_(e, "assignment", MappingProxyType(dict(map(keys.__getitem__, row))))
        entities.append(e)
    world = new(World)
    setattr_(world, "schema", schema)
    setattr_(world, "entities", tuple(entities))
    setattr_(world, "min_sets", {})
    setattr_(world, "model_questions", {})
    _table(world, rows)
    return world


# Most characters of a refused value that a message shows. reprlib.repr
# limits depth (6), items per level (6) and text (30 characters) but not
# the total, so a long or deep value still shows long: six-wide lists four
# deep of 40-character texts show as 41,988 characters.
_SHOWN_MAX = 200
# Most identical pairs an invalid World's message names: n twins make n(n - 1)/2.
_PAIRS_SHOWN = 10


def _shown(value) -> str:
    """A refused value as a message shows it: reprlib's abbreviation, cut
    to at most _SHOWN_MAX characters, the last three of them "..."."""
    text = reprlib.repr(value)
    return text if len(text) <= _SHOWN_MAX else text[:_SHOWN_MAX - 3] + "..."


def _text(value, where: str, *names) -> str:
    """A world name or value as its string token; lists and mappings are
    refused because they are not one token, and _read loads any other value
    as the text written. A refusal says where the value stands, `where`
    formatted with `names`: a config holds thousands of values, and only a
    refused one needs that text."""
    if isinstance(value, (list, dict)):
        raise WorldFormatError(f"{where.format(*names)}: expected a single value,"
                               f" got {_shown(value)}")
    return value


def load_world(text: str) -> World:
    """Parse a world-config document (YAML) into a checked World.

    Top-level keys: `schema` (list of {name, values}) and `entities`
    (list of {id, label, type, assignment}).
    """
    try:
        doc = _read(text)
    except yaml.YAMLError as exc:
        raise WorldFormatError(f"world config does not parse: {exc}") from exc
    return _world_from_tree(doc)


def _world_from_tree(doc) -> World:
    """The checked World of a loaded world-config document."""
    if not isinstance(doc, dict):
        raise WorldFormatError("world config must be a key/value tree")
    for key in ("schema", "entities"):
        if key not in doc:
            raise WorldFormatError(f"world config missing top-level key {key!r}")
        if not isinstance(doc[key], list):
            raise WorldFormatError(
                f"world config key {key!r} must be a list, got {_shown(doc[key])}"
            )

    props = []
    for item in doc["schema"]:
        try:
            name, values = _text(item["name"], "property name"), item["values"]
        except (TypeError, KeyError) as exc:
            raise WorldFormatError(f"bad schema entry {_shown(item)}: needs name/values") from exc
        if not isinstance(values, list):
            raise WorldFormatError(f"property {name!r}: values must be a list,"
                                   f" got {_shown(values)}")
        props.append((name, tuple(_text(v, "property {!r}", name) for v in values)))
    schema = PropertySchema(tuple(props))

    if not doc["entities"]:
        raise WorldFormatError("world config has an empty entity list")
    entities = []
    for item in doc["entities"]:
        try:
            entity_id = _text(item["id"], "entity id")
            entities.append(
                Entity(
                    id=entity_id,
                    label=_text(item["label"], "entity {!r} label", entity_id),
                    type_name=_text(item["type"], "entity {!r} type", entity_id),
                    assignment={
                        _text(k, "entity {!r} property name", entity_id):
                            _text(v, "entity {!r}, property {!r}", entity_id, k)
                        for k, v in item["assignment"].items()
                    },
                )
            )
        except (TypeError, KeyError, AttributeError) as exc:
            raise WorldFormatError(
                f"bad entity entry {_shown(item)}: needs id/label/type/assignment"
            ) from exc

    return World(schema=schema, entities=tuple(entities))


def _document(world: World) -> dict:
    """A World as the config document's plain dicts and lists."""
    return {
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


def serialize_world(world: World) -> str:
    """Render a World back into the config-document format (round-trips)."""
    # non-ASCII characters are written as escapes: written raw, a NEL
    # (U+0085) inside a single-quoted scalar would read back as a space
    return yaml.safe_dump(_document(world), sort_keys=False)
