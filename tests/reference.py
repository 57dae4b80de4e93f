"""Obviously correct references for differential tests.

The reference engine plays whole episodes from a World's plain data: the
schema's (property, domain) tuples and each entity's id, label and
assignment. It has no masks, codes, memos or beliefs: the candidates are
a list that each answer filters, and each min-set is searched afresh over
their rows. However the engine represents and caches its work, its
transcripts must equal `transcript`'s.

The reference loader, `load_world`, reads a world config with a strict
subclass of PyYAML's composer, whose resolver tags each plain scalar, and
its safe constructor, which is how refquest read one before it read
documents in one pass over the parser's events. As refquest does, it
refuses with its line every anchor, alias and tag, every list or mapping
used as a key, every repeated key, every second document and every plain
scalar YAML 1.1 reads as a null, a boolean, its merge (<<) key or its
"value" (=) key, the first in the document, as it composes. Both must
give the same World, or refuse the document in the same words.

The reference generator, `random_world`, draws a random world with
`Random.choice` and builds it with the checked `Entity` and `World`
constructors, which is how refquest generated one before it tabled
worlds as it drew them. Both must give equal Worlds, whose assignments
list their properties in the same order.

The exact baseline, `exact_baseline_moments`, makes no draw: it gives the
mean and variance of a baseline episode's question count over every draw
the baseline could make, which any uniform stream must reproduce.

The exact sample variance, `sample_variance`, reads each mean as the
rational it holds and sums its squared deviations in Fractions, two
passes and no common denominator, unlike the report's integer SD.
"""

import itertools
import math
import random
from fractions import Fraction

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
    confirm, one over the values the candidates carry. `start` opens an
    episode with nothing learned; the stream runs on across episodes."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.start()

    def start(self):
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


def transcript(world, target_id, system, seed=0,
               baseline=None) -> list[tuple[str, str | None, str]]:
    """(property, confirmed value or None, word said) for each turn of a
    `system` episode on `target_id`. The baseline is `baseline`, which
    opens a new episode and draws on from where its last one stopped, or
    else a fresh Baseline(seed)."""
    properties = world.schema.properties
    target = next(e for e in world.entities if e.id == target_id)
    candidates = [e for e in world.entities if e.label == target.label]
    if baseline is None:
        baseline = Baseline(seed)
    baseline.start()
    turns = []
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


def sample_variance(means) -> Fraction:
    """The sample variance of `means` (floats, ints or Fractions), exactly:
    the squared deviations from their mean, summed over n - 1."""
    xs = [Fraction(m) for m in means]
    mean = sum(xs) / len(xs)
    return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def exact_baseline_moments(world, target_id) -> tuple[float, float]:
    """The mean and variance of the number of questions the baseline asks to
    resolve `target_id`, exactly, over its random draws: a dynamic program
    over (candidates, unlearned properties). A turn asks each of the 2k
    (WH, confirm) options of the k unlearned properties with equal chance,
    a confirm each value the candidates carry with equal chance, and the
    property asked is learned once the candidates left all carry one value
    of it. No draw is made, so the moments hold for any uniform stream."""
    domains = dict(world.schema.properties)
    target = next(e for e in world.entities if e.id == target_id)
    memo = {}

    def moments(candidates, unknown) -> tuple[float, float]:
        """E[N] and E[N^2] for the questions N still to ask."""
        if len(candidates) == 1:
            return 0.0, 0.0
        key = (tuple(e.id for e in candidates), unknown)
        if key not in memo:
            outcomes = []  # (chance, candidates left, unlearned properties left)
            chance = 1 / (2 * len(unknown))
            for p in unknown:
                learned = tuple(u for u in unknown if u != p)
                # a WH question, or a confirm of the target's value answered
                # yes, keeps the candidates that carry the target's value
                actual = target.assignment[p]
                same = [e for e in candidates if e.assignment[p] == actual]
                outcomes.append((chance, same, learned))
                carried = {e.assignment[p] for e in candidates}
                values = [v for v in domains[p] if v in carried]
                for v in values:
                    # a confirm of any other value is answered no
                    left = same if v == actual else [e for e in candidates
                                                    if e.assignment[p] != v]
                    constant = len({e.assignment[p] for e in left}) == 1
                    outcomes.append((chance / len(values), left,
                                     learned if constant else unknown))
            # N = 1 + N', so E[N] = 1 + E[N'] and E[N^2] = 1 + 2 E[N'] + E[N'^2]
            m1 = m2 = 0.0
            for chance, left, rest in outcomes:
                n1, n2 = moments(left, rest)
                m1 += chance * n1
                m2 += chance * n2
            memo[key] = 1 + m1, 1 + 2 * m1 + m2
        return memo[key]

    candidates = [e for e in world.entities if e.label == target.label]
    mean, square = moments(candidates, tuple(domains))
    return mean, square - mean * mean


class StrictComposer(yaml.composer.Composer):
    """PyYAML's composer, refusing as it composes, so in document order:
    every anchor, alias and tag, every collection nested deeper than
    _MAX_DEPTH, every list or mapping used as a key, every key its mapping
    repeats (YAML's own loaders keep the last value), every plain scalar
    the resolver reads as a null, a boolean, the merge (<<) key or the
    "value" (=) key, and a second document. Each node is checked as it
    starts, before its children or its mapping's later entries are read."""

    depth = 0  # collections open around the node being composed

    def compose_document(self):
        node = yaml.composer.Composer.compose_document(self)
        if self.check_event(yaml.DocumentStartEvent):
            raise _refused("second document", self.peek_event())
        return node

    def compose_node(self, parent, index):
        # a mapping's value is composed with its key as `index`, while the
        # mapping holds only the entries before it
        if isinstance(index, yaml.ScalarNode) and index.value in [k.value for k, _ in parent.value]:
            raise WorldFormatError(
                f"duplicate key {index.value!r} on line {index.start_mark.line + 1}")
        event = self.peek_event()
        if isinstance(event, yaml.AliasEvent):
            raise _refused(f"alias *{event.anchor}", event)
        if event.anchor is not None:
            raise _refused(f"anchor &{event.anchor}", event)
        if event.tag is not None:
            raise _refused(f"tag {event.tag!r}", event)
        if isinstance(event, yaml.ScalarEvent):
            node = yaml.composer.Composer.compose_node(self, parent, index)
            if node.tag in (_YAML + "null", _YAML + "bool"):
                if not node.value:  # a parse error at the next event wins, as in refquest
                    self.peek_event()
                raise WorldFormatError(f"plain {node.value!r} on line {node.start_mark.line + 1}"
                                       " is not allowed; quote it to keep it as text")
            if node.tag in (_YAML + "merge", _YAML + "value"):
                raise _refused(f"tag {node.tag!r}", node)
            return node
        if self.depth == _MAX_DEPTH:
            raise WorldFormatError(f"world config nests deeper than {_MAX_DEPTH} levels"
                                   f" on line {event.start_mark.line + 1}")
        if isinstance(parent, yaml.MappingNode) and index is None:
            raise _refused("list or mapping as a key", event)
        self.depth += 1
        node = yaml.composer.Composer.compose_node(self, parent, index)
        self.depth -= 1
        return node


def _refused(what, event_or_node) -> WorldFormatError:
    return WorldFormatError(f"{what} on line {event_or_node.start_mark.line + 1} is not allowed")


class StrictConstructor:
    """The safe constructor, except that numbers and dates load as the text
    written. StrictComposer has refused every other tag a node can carry."""


_YAML = "tag:yaml.org,2002:"
StrictConstructor.yaml_constructors = {
    **{_YAML + t: yaml.constructor.BaseConstructor.construct_scalar
       for t in ("str", "int", "float", "timestamp")},
    **{_YAML + t: yaml.SafeLoader.yaml_constructors[_YAML + t] for t in ("seq", "map")},
}


def load_world(text: str, parser):
    """The World in `text`, composed by StrictComposer over `parser`
    (yaml.SafeLoader or yaml.CSafeLoader) and constructed by PyYAML with
    StrictConstructor's rules. StrictComposer comes before the parser, so
    it composes over libyaml's events too, in place of its C composer, and
    the parser's __init__ is kept, as Composer's takes no stream."""
    loader = type(parser.__name__, (StrictComposer, StrictConstructor, parser),
                  {"__init__": parser.__init__})
    try:
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
    domains = dict(schema.properties)
    constant = {name: rng.choice(domains[name]) for name in prop_names[spec.n_varying:]}

    entities = []
    seen = set()
    for i in range(spec.n_entities):
        while True:
            assignment = {name: rng.choice(domains[name]) for name in varying}
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
