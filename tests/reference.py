"""Obviously correct references for differential tests.

The reference engine plays whole episodes from a World's plain data: the
schema's (property, domain) tuples and each entity's id, label and
assignment. It has no masks, codes, memos or beliefs: the candidates are
a list that each answer filters, and each min-set is searched afresh over
their rows. However the engine represents and caches its work, its
transcripts must equal `transcript`'s.

The reference loader, `load_world`, reads a world config with PyYAML's
composer and a strict subclass of its safe constructor, which is how
refquest read one before it read documents in one pass over the parser's
events. As refquest does, it refuses with its line every anchor, alias
and tag, every list or mapping used as a key, every second document and
YAML 1.1's merge (<<) and "value" (=) keys. Both must give the same
World, or both refuse the document.

The reference generator, `random_world`, draws a random world with
`Random.choice` and builds it with the checked `Entity` and `World`
constructors, which is how refquest generated one before it tabled
worlds as it drew them. Both must give equal Worlds, table for table.
"""

import itertools
import math
import random
import re

import yaml

from refquest.minset import EXACT_LIMIT_DEFAULT
from refquest.world import _MAX_DEPTH, Entity, World, WorldFormatError, _world_from_tree
from refquest.worlds import RandomWorldSpec, _schema


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


def referent(belief) -> str | None:
    """The id of a belief's one candidate left, read off its candidate ids,
    or None while it has more than one."""
    ids = belief.candidate_ids
    return ids[0] if len(ids) == 1 else None


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


class StrictConstructor:
    """The safe constructor, except that a mapping may not repeat a key (YAML's
    own loaders keep the last value) or have a list or mapping as a key,
    numbers and dates load as the text written, and other implicit tags are
    refused, among them the merge (<<) and "value" (=) keys. Explicit tags
    never reach it: refuse_before_composing refuses them."""

    def flatten_mapping(self, node):
        # refuse a collection key, which PyYAML would find unhashable, and a
        # merge or "value" key, before PyYAML's own flatten_mapping would
        # merge the one or read the other as text
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.CollectionNode):
                raise WorldFormatError("list or mapping as a key on line"
                                       f" {key_node.start_mark.line + 1} is not allowed")
            if key_node.tag in (_YAML + "merge", _YAML + "value"):
                self.refuse_tag(key_node)
        yaml.constructor.SafeConstructor.flatten_mapping(self, node)

    def construct_mapping(self, node, deep=False):
        mapping = yaml.constructor.SafeConstructor.construct_mapping(self, node, deep=deep)
        if len(mapping) != len(node.value):  # a repeated key
            seen = set()
            for key_node, _ in node.value:
                key = self.construct_object(key_node)
                if key in seen:
                    raise WorldFormatError(
                        f"duplicate key {key!r} on line {key_node.start_mark.line + 1}"
                    )
                seen.add(key)
        return mapping

    def refuse_tag(self, node):
        raise WorldFormatError(f"tag {node.tag!r} on line {node.start_mark.line + 1} is not allowed")


# numbers and dates load as written, booleans and nulls as parsed for the
# World's checks to refuse; other implicit tags are refused
_YAML = "tag:yaml.org,2002:"
StrictConstructor.yaml_constructors = {
    None: StrictConstructor.refuse_tag,
    **{_YAML + t: yaml.constructor.BaseConstructor.construct_scalar
       for t in ("str", "int", "float", "timestamp")},
    **{_YAML + t: yaml.SafeLoader.yaml_constructors[_YAML + t]
       for t in ("seq", "map", "null", "bool")},
}


def refuse_before_composing(text: str, parser) -> None:
    """Raise WorldFormatError at the document's first anchor, alias or tag,
    at its second document, or where its collections nest deeper than
    _MAX_DEPTH, before the recursive composer reads it.

    Every anchor is written with &, every alias with * and every tag with
    !, and a second document starts with --- (after ... or not). Every
    flow collection opens with [ or {. A block collection starts at a
    column that only spaces, tabs, byte-order marks and the indicators
    - ? : reach from its line's start, and one column holds at most two
    levels of a chain (a mapping and a sequence written at its indent).
    So a document with none of & * ! --- ..., few brackets and no long run
    of those characters is one plain, shallow enough tree without parsing;
    any other has its events read.
    """
    columns = (_MAX_DEPTH - text.count("[") - text.count("{")) // 2
    if (not any(mark in text for mark in ("&", "*", "!", "---", "...")) and columns > 0
            and not re.search(f"[ \t\ufeff?:-]{{{columns}}}", text)):
        return
    depth = documents = 0
    for event in yaml.parse(text, Loader=parser):
        line = event.start_mark.line + 1
        if isinstance(event, yaml.NodeEvent) and event.anchor is not None:
            what = "alias *" if isinstance(event, yaml.AliasEvent) else "anchor &"
            raise WorldFormatError(f"{what}{event.anchor} on line {line} is not allowed")
        if (isinstance(event, (yaml.ScalarEvent, yaml.CollectionStartEvent))
                and event.tag is not None):
            raise WorldFormatError(f"tag {event.tag!r} on line {line} is not allowed")
        if isinstance(event, yaml.DocumentStartEvent):
            documents += 1
            if documents > 1:
                raise WorldFormatError(f"second document on line {line} is not allowed")
        elif isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > _MAX_DEPTH:
                raise WorldFormatError(
                    f"world config nests deeper than {_MAX_DEPTH} levels on line {line}"
                )
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1


def load_world(text: str, parser):
    """The World in `text`, composed and constructed by PyYAML over `parser`
    (yaml.SafeLoader or yaml.CSafeLoader) with StrictConstructor's rules."""
    loader = type(parser.__name__, (StrictConstructor, parser), {})
    try:
        refuse_before_composing(text, parser)
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise WorldFormatError(f"world config does not parse: {exc}") from exc
    return _world_from_tree(doc)


def random_world(spec: RandomWorldSpec) -> World:
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
