import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import refquest.world
from refquest.belief import init_belief
from refquest.dialogue import ModelAgent, run_episode
from refquest.world import (
    Entity,
    PropertySchema,
    Question,
    World,
    WorldFormatError,
    load_world,
    serialize_world,
)
from refquest.worlds import spacecraft_world

import reference
from strategies import worlds

SCHEMA = PropertySchema((("color", ("red", "blue")), ("shape", ("tall", "short"))))


def ent(id, color, shape, label="widget"):
    return Entity(id=id, label=label, type_name="widget",
                  assignment={"color": color, "shape": shape})


def test_valid_world_passes():
    w = World(SCHEMA, (ent("a", "red", "tall"), ent("b", "blue", "tall")))
    assert w.by_id("b") is w.entities[1]
    assert w.label_masks == {"widget": 0b11}  # no entry for "gadget"
    assert init_belief(w, "widget").candidate_ids == ("a", "b")
    assert w.value_masks == {("color", "red"): 0b01, ("color", "blue"): 0b10,
                             ("shape", "tall"): 0b11, ("shape", "short"): 0}
    with pytest.raises(TypeError):
        w.label_masks["widget"] = 0b01
    with pytest.raises(TypeError):
        w.value_masks["color", "red"] = 0b11
    with pytest.raises(KeyError):
        w.by_id("z")


def test_world_codes_align_with_entities():
    w = spacecraft_world()
    assert w.codes == tuple(sum(map(w.schema.fields.__getitem__, e.assignment.items()))
                            for e in w.entities)
    # one schema object, two Worlds: each tables the codes of its own
    # entities, and the same id may stand for different assignments
    first = World(SCHEMA, (ent("a", "red", "tall"), ent("b", "blue", "tall")))
    second = World(SCHEMA, (ent("b", "red", "short"), ent("a", "blue", "short")))
    for world in (first, second):
        assert len(world.codes) == len(world.entities)
        for i, e in enumerate(world.entities):
            assert world.codes[i] == sum(map(SCHEMA.fields.__getitem__, e.assignment.items()))
    assert len(set(first.codes + second.codes)) == 4


def test_entity_assignment_is_a_read_only_copy():
    given = {"color": "red", "shape": "tall"}
    e = Entity("a", "widget", "widget", given)
    with pytest.raises(TypeError):
        e.assignment["color"] = "blue"
    given["color"] = "blue"
    assert e.value("color") == "red"
    # a cached world's entity cannot be edited into a twin of another
    with pytest.raises(TypeError):
        spacecraft_world().by_id("emitter_2").assignment["size"] = "large"


def test_same_entity_listed_twice_is_refused():
    a = ent("a", "red", "tall")
    with pytest.raises(WorldFormatError, match="duplicate entity id 'a'"):
        World(SCHEMA, (a, ent("b", "blue", "tall"), a))


def test_duplicate_assignment_names_both_ids():
    with pytest.raises(WorldFormatError,
                       match="^invalid world: entities 'a' and 'b' share an identical assignment$"):
        World(SCHEMA, (ent("a", "red", "tall"), ent("b", "red", "tall")))


def test_duplicate_assignments_reported_pairwise_in_world_order():
    # a, c and e are identical, b and d are identical, f is unique
    with pytest.raises(WorldFormatError) as exc:
        World(SCHEMA, (ent("a", "red", "tall"), ent("b", "blue", "tall"),
                       ent("c", "red", "tall"), ent("d", "blue", "tall"),
                       ent("e", "red", "tall"), ent("f", "red", "short")))
    assert str(exc.value) == "invalid world: " + "; ".join([
        f"entities {x!r} and {y!r} share an identical assignment"
        for x, y in (("a", "c"), ("a", "e"), ("b", "d"), ("c", "e"))
    ])


@pytest.mark.parametrize("assignments, pairs, more", [
    # a, c, e and g are identical, as are b, d, f and h: 12 pairs
    ("rt bt rt bt rt bt rt bt", [("a", "c"), ("a", "e"), ("a", "g"), ("b", "d"), ("b", "f"),
                                 ("b", "h"), ("c", "e"), ("c", "g"), ("d", "f"), ("d", "h")],
     "and 2 more identical pairs"),
    # a, c, e, g and h are identical, as are b and f: 11 pairs
    ("rt bt rt bs rt bt rt rt", [("a", "c"), ("a", "e"), ("a", "g"), ("a", "h"), ("b", "f"),
                                 ("c", "e"), ("c", "g"), ("c", "h"), ("e", "g"), ("e", "h")],
     "and 1 more identical pair"),
], ids=["two-more", "one-more"])
def test_identical_pairs_beyond_the_first_ten_are_counted(assignments, pairs, more):
    color, shape = {"r": "red", "b": "blue"}, {"t": "tall", "s": "short"}
    with pytest.raises(WorldFormatError) as exc:
        World(SCHEMA, tuple(ent(id, color[c], shape[s])
                            for id, (c, s) in zip("abcdefgh", assignments.split())))
    assert str(exc.value) == "invalid world: " + "; ".join(
        [f"entities {x!r} and {y!r} share an identical assignment" for x, y in pairs] + [more])


def test_a_world_of_many_identical_entities_is_refused_at_once():
    # 2000 twins make 1,999,000 pairs; naming each took quadratic time and space
    doc = ("schema: [{name: p, values: [x]}]\nentities:\n"
           + "".join(f"- {{id: e{i:04d}, label: w, type: w, assignment: {{p: x}}}}\n"
                     for i in range(2000)))
    began = time.perf_counter()
    with pytest.raises(WorldFormatError) as exc:
        load_world(doc)
    assert time.perf_counter() - began < 1
    message = str(exc.value)
    assert len(message) < 2000
    assert message.startswith("invalid world: entities 'e0000' and 'e0001' share")
    assert message.endswith("entities 'e0000' and 'e0010' share an identical assignment;"
                            " and 1998990 more identical pairs")


def test_violations_listed_by_entity_then_identical_pairs():
    # each entity reports its duplicate id, its missing properties and its
    # first value the schema does not know; identical pairs come last
    with pytest.raises(WorldFormatError) as exc:
        World(SCHEMA, (ent("a", "red", "tall"), ent("a", "blue", "tall"),
                       Entity("b", "w", "w", {"shape": "tall", "size": "big"}),
                       ent("c", "mauve", "round"), ent("d", "red", "tall")))
    assert str(exc.value) == "invalid world: " + "; ".join([
        "duplicate entity id 'a'",
        "entity 'b': incomplete assignment, missing ['color']",
        "entity 'b': unknown property 'size' (value 'big')",
        "entity 'c': value 'mauve' not in domain of property 'color'",
        "entities 'a' and 'd' share an identical assignment",
    ])


def test_entity_missing_a_property_is_refused_at_construction():
    # b has no color, which every episode on this world would need to read
    entities = (ent("a", "red", "tall"), Entity("b", "widget", "widget", {"shape": "short"}),
                ent("c", "blue", "short"))
    with pytest.raises(WorldFormatError,
                       match=r"entity 'b': incomplete assignment, missing \['color'\]"):
        run_episode(World(SCHEMA, entities), "a", ModelAgent())


def test_importing_world_loads_no_other_refquest_module():
    code = ("import sys, refquest.world; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'refquest'))")
    src = Path(refquest.world.__file__).parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "['refquest', 'refquest.world']"


def test_schema_lookups():
    assert SCHEMA.names == ("color", "shape")
    assert SCHEMA.domain("color") == ("red", "blue")
    with pytest.raises(KeyError):
        SCHEMA.domain("size")
    # a missing property differs from every domain value; equal assignments
    # give equal codes, whatever the entity
    def code(e):
        return sum(map(SCHEMA.fields.__getitem__, e.assignment.items()))

    color = SCHEMA.masks[SCHEMA.names.index("color")]
    no_color = code(Entity("b", "w", "w", {"shape": "short"}))
    assert all(code(ent(c, c, "short")) & color != no_color & color
               for c in ("red", "blue"))
    assert code(ent("a", "blue", "tall")) == code(ent("z", "blue", "tall", "gadget"))
    assert code(ent("a", "blue", "tall")) != code(ent("a", "red", "tall"))


@settings(max_examples=50, deadline=None)
@given(worlds())
def test_the_schema_tables_one_question_per_word_of_its_alphabet(w):
    schema = w.schema
    assert set(schema.questions) == (
        {(p, None) for p in schema.names}
        | {(p, v) for p, values in schema.properties for v in values}
    )
    assert all(q == Question(*key) for key, q in schema.questions.items())
    with pytest.raises(TypeError):
        schema.questions[schema.names[0], None] = Question(schema.names[0])


def test_incomplete_assignment_flagged():
    e = Entity(id="a", label="w", type_name="w", assignment={"color": "red"})
    with pytest.raises(WorldFormatError, match="incomplete"):
        World(SCHEMA, (e, ent("b", "blue", "tall")))


def test_unknown_value_flagged():
    with pytest.raises(WorldFormatError, match="'green'.*'color'"):
        World(SCHEMA, (ent("a", "green", "tall"), ent("b", "blue", "tall")))


def test_schema_rejects_duplicate_properties():
    with pytest.raises(WorldFormatError):
        PropertySchema((("color", ("red",)), ("color", ("blue",))))


def test_schema_rejects_empty_domain():
    with pytest.raises(WorldFormatError):
        PropertySchema((("color", ()),))


def test_load_world_round_trip():
    w = spacecraft_world()
    text = serialize_world(w)
    assert load_world(text) == w


def test_load_world_rejects_empty_entities():
    with pytest.raises(WorldFormatError, match="empty entity list"):
        load_world("schema:\n  - {name: color, values: [red]}\nentities: []\n")


def test_load_world_rejects_bad_value():
    doc = """
schema:
  - {name: color, values: [red, blue]}
entities:
  - {id: a, label: w, type: w, assignment: {color: mauve}}
  - {id: b, label: w, type: w, assignment: {color: red}}
"""
    with pytest.raises(WorldFormatError, match="color"):
        load_world(doc)


def test_load_world_rejects_non_yaml():
    with pytest.raises(WorldFormatError):
        load_world("{unbalanced")


def test_load_world_rejects_scalar_values():
    with pytest.raises(WorldFormatError, match="must be a list"):
        load_world("schema:\n  - {name: color, values: red}\n"
                   "entities:\n  - {id: a, label: w, type: w, assignment: {color: red}}\n")


@pytest.mark.parametrize("doc, message", [
    ("schema: 5\nentities: []\n", "'schema' must be a list, got '5'"),
    ("schema: []\nentities: abc\n", "'entities' must be a list, got 'abc'"),
], ids=["schema", "entities"])
def test_load_world_rejects_non_list_sections(doc, message):
    with pytest.raises(WorldFormatError, match=message):
        load_world(doc)


def test_load_world_rejects_nested_values():
    with pytest.raises(WorldFormatError, match=r"expected a single value, got \['x'\]"):
        load_world("schema:\n  - {name: color, values: [r, [x]]}\n"
                   "entities:\n  - {id: a, label: w, type: w, assignment: {color: r}}\n")
    with pytest.raises(WorldFormatError, match="entity 'a' label: expected a single value"):
        load_world("schema:\n  - {name: color, values: [r]}\n"
                   "entities:\n  - {id: a, label: {w: 1}, type: w, assignment: {color: r}}\n")


@pytest.mark.parametrize("schema_values, assigned", [
    ("[yes, no]", "yes"),
    ("['yes', 'no']", "no"),
    ("['on', ~]", "'on'"),
])
def test_load_world_rejects_unquoted_booleans_and_nulls(schema_values, assigned):
    doc = (f"schema:\n  - {{name: lit, values: {schema_values}}}\n"
           f"entities:\n  - {{id: a, label: w, type: w, assignment: {{lit: {assigned}}}}}\n")
    with pytest.raises(WorldFormatError, match="quote it"):
        load_world(doc)
    quoted = load_world("schema:\n  - {name: lit, values: ['yes', 'no']}\n"
                        "entities:\n  - {id: a, label: w, type: w, assignment: {lit: 'yes'}}\n")
    assert quoted.schema.domain("lit") == ("yes", "no")


def _one_entity_doc(name="lit", id="a", label="w", type="w", key=None):
    return (f"schema:\n  - {{name: {name}, values: [x, y]}}\n"
            f"entities:\n  - {{id: {id}, label: {label}, type: {type}, "
            f"assignment: {{{key or name}: x}}}}\n")


@pytest.mark.parametrize("field, fields", [
    ("^property name", {"name": "on", "key": "'on'"}),
    ("^entity id", {"id": "no"}),
    ("entity 'a' label", {"label": "yes"}),
    ("entity 'a' type", {"type": "~"}),
    ("entity 'a' property name", {"key": "on", "name": "'on'"}),
], ids=["name", "id", "label", "type", "key"])
def test_load_world_rejects_unquoted_booleans_and_nulls_in_names(field, fields):
    with pytest.raises(WorldFormatError, match=f"{field}: parsed as .*quote it"):
        load_world(_one_entity_doc(**fields))


def test_load_world_keeps_quoted_names_as_text():
    w = load_world(_one_entity_doc(name="'on'", id="'no'", label="'yes'", type="'~'"))
    assert w.schema.names == ("on",)
    e = w.entities[0]
    assert (e.id, e.label, e.type_name, e.assignment) == ("no", "yes", "~", {"on": "x"})
    assert load_world(serialize_world(w)) == w


@pytest.fixture(params=["SafeLoader", "CSafeLoader"])
def yaml_parser(request, monkeypatch):
    """Load worlds with the pure-Python parser, then with libyaml's."""
    parser = getattr(yaml, request.param, None)
    if parser is None:
        pytest.skip("PyYAML was built without libyaml")
    monkeypatch.setattr(refquest.world, "_Loader", parser)
    return parser


TWO_ENTITY_SCHEMA = ("schema:\n  - {name: color, values: [red, blue]}\n"
                     "  - {name: shape, values: [tall, short]}\n")


@pytest.mark.parametrize("doc, message", [
    (TWO_ENTITY_SCHEMA
     + "entities:\n  - {id: a, label: w, type: w, assignment: {color: red, shape: tall}}\n"
     + "entities:\n  - {id: b, label: w, type: w, assignment: {color: blue, shape: tall}}\n",
     "duplicate key 'entities' on line 6"),
    (TWO_ENTITY_SCHEMA
     + "entities:\n  - {id: a, label: w, type: w,\n"
     + "     assignment: {color: red, shape: tall, color: blue}}\n",
     "duplicate key 'color' on line 6"),
], ids=["section", "assignment"])
def test_load_world_rejects_repeated_keys(yaml_parser, doc, message):
    with pytest.raises(WorldFormatError, match=message):
        load_world(doc)


def test_load_world_refuses_a_merge_key(yaml_parser):
    # YAML 1.1's merge key, which YAML 1.2 dropped, is refused with its line
    # whatever it merges, as << written as a value is; the reference agrees
    for assignment in ("{<<: {color: red, shape: tall}, color: blue}",
                       "{<<: [{color: red, shape: tall}], color: blue}",
                       "{color: <<, shape: tall}"):
        doc = (TWO_ENTITY_SCHEMA + "entities:\n"
               + "  - {id: a, label: w, type: w, assignment: {color: red, shape: tall}}\n"
               + f"  - {{id: b, label: w, type: w, assignment: {assignment}}}\n")
        for load in (load_world, lambda doc: reference.load_world(doc, yaml_parser)):
            with pytest.raises(WorldFormatError) as exc:
                load(doc)
            assert str(exc.value) == "tag 'tag:yaml.org,2002:merge' on line 6 is not allowed"


def test_spacecraft_config_shape():
    w = spacecraft_world()
    assert len(w.entities) == 18
    assert len(w.schema.names) == 6
    types = {e.type_name for e in w.entities}
    assert len(types) == 6
    for t in types:
        instances = [e for e in w.entities if e.type_name == t]
        assert len(instances) == 3
        varying = {
            p for p in w.schema.names
            if len({e.value(p) for e in instances}) > 1
        }
        assert len(varying) == 3, (t, varying)


def test_spacecraft_fixed_feature_assignments():
    w = spacecraft_world()

    def varying(type_name):
        instances = [e for e in w.entities if e.type_name == type_name]
        return {p for p in w.schema.names if len({e.value(p) for e in instances}) > 1}

    assert varying("module") == {"pattern", "shape", "symbol"}
    assert varying("synthesizer") == {"color", "size", "shape"}
    # exactly half of the tool types vary by color
    color_types = [t for t in ("optimizer", "calibrator", "module",
                               "synthesizer", "capacitor", "emitter")
                   if "color" in varying(t)]
    assert len(color_types) == 3


def test_valid_world_is_pairwise_distinguishable():
    w = spacecraft_world()
    for i, a in enumerate(w.entities):
        for b in w.entities[i + 1:]:
            assert any(a.value(p) != b.value(p) for p in w.schema.names)


def test_load_world_keeps_numbers_and_dates_as_written(yaml_parser):
    # parsed, these would read 62, 16, 8, 1.5 and a date, and 007 would
    # read 7 and collide with the id 7
    w = load_world("schema:\n  - {name: ratio, values: [1:2, 0x10, 010, 1.50, 2001-12-14]}\n"
                   "entities:\n  - {id: 007, label: w, type: w, assignment: {ratio: 1:2}}\n"
                   "  - {id: 7, label: w, type: w, assignment: {ratio: 010}}\n")
    assert w.schema.domain("ratio") == ("1:2", "0x10", "010", "1.50", "2001-12-14")
    assert [(e.id, e.assignment["ratio"]) for e in w.entities] == [("007", "1:2"), ("7", "010")]
    assert load_world(serialize_world(w)) == w


@pytest.mark.parametrize("value, tag", [
    ("!!binary aGk=", "binary"),  # parsed, would read "b'hi'"
    ("!!set {x: null}", "set"),  # parsed, would read "{'x'}"
], ids=["binary", "set"])
def test_load_world_refuses_other_tags(yaml_parser, value, tag):
    doc = ("schema:\n  - {name: p, values: [x, y]}\n"
           f"entities:\n  - id: a\n    label: w\n    type: w\n    assignment: {{p: {value}}}\n")
    with pytest.raises(WorldFormatError) as exc:
        load_world(doc)
    assert str(exc.value) == f"tag 'tag:yaml.org,2002:{tag}' on line 7 is not allowed"


@pytest.mark.parametrize("build, message", [
    (lambda: load_world("- schema\n- entities\n"), "world config must be a key/value tree"),
    (lambda: load_world("schema: []\n"), "world config missing top-level key 'entities'"),
    (lambda: load_world("schema: [{name: color}]\nentities: []\n"),
     "bad schema entry {'name': 'color'}: needs name/values"),
    (lambda: load_world("schema: [{name: color, values: [red]}]\n"
                        "entities: [{id: a, label: w, type: w}]\n"),
     "bad entity entry {'id': 'a', 'label': 'w', 'type': 'w'}: needs id/label/type/assignment"),
    (lambda: PropertySchema((("color", ("red", "blue", "red")),)),
     "property 'color' has duplicate values"),
], ids=["not-a-mapping", "missing-key", "schema-entry", "entity-entry", "duplicate-values"])
def test_malformed_worlds_are_refused_by_name(build, message):
    with pytest.raises(WorldFormatError) as exc:
        build()
    assert str(exc.value) == message


def test_empty_schema_with_one_entity_resolves_at_once():
    w = load_world("schema: []\nentities:\n  - {id: a, label: w, type: w, assignment: {}}\n")
    assert w.schema.names == ()
    assert run_episode(w, "a", ModelAgent()).question_count == 0


def test_nel_round_trips_in_ids_names_and_values(yaml_parser):
    # written raw inside a single-quoted scalar, a NEL (U+0085) reads back as a space
    nel = "a\x85b"
    w = World(PropertySchema(((nel, (nel, "c")),)), (Entity(nel, "w", "w", {nel: nel}),))
    assert load_world(serialize_world(w)) == w


@pytest.mark.parametrize("word", ["<<", "="])
def test_a_world_spelled_as_a_yaml_key_word_round_trips(yaml_parser, word):
    # read plain, << is the refused merge key and = the "value" key; saved,
    # each is quoted and loads back as its text
    w = World(PropertySchema(((word, (word, "x")),)),
              (Entity(word, word, word, {word: word}), Entity("b", word, word, {word: "x"})))
    saved = serialize_world(w)
    assert f"'{word}': '{word}'" in saved
    assert load_world(saved) == w


def _nested_value_doc(depth):
    """A one-property world whose second value is a list `depth` deep; the
    document itself nests 4 + depth deep."""
    return ("schema:\n  - {name: p, values: [x, " + "[" * depth + "]" * depth + "]}\n"
            "entities:\n  - {id: a, label: w, type: w, assignment: {p: x}}\n")


@pytest.mark.parametrize("depth, message", [
    (252, "property 'p': expected a single value, got [[[[[[[...]]]]]]]"),
    (253, "world config nests deeper than 256 levels on line 2"),
    (1000, "world config nests deeper than 256 levels on line 2"),
])
def test_load_world_refuses_deep_nesting_before_composing(yaml_parser, depth, message):
    with pytest.raises(WorldFormatError) as exc:
        load_world(_nested_value_doc(depth))
    assert str(exc.value) == message


def test_load_world_refuses_deep_flow_mapping_nesting(yaml_parser):
    # braces open levels just as brackets do
    doc = "schema: " + "{a: " * 300 + "x" + "}" * 300 + "\nentities: []\n"
    with pytest.raises(WorldFormatError) as exc:
        load_world(doc)
    assert str(exc.value) == "world config nests deeper than 256 levels on line 1"


def test_load_world_refuses_deep_block_nesting_on_short_lines(yaml_parser):
    # a mapping and the sequence written at its own indent share a column,
    # so 200 columns hold 400 levels with no bracket in the document
    lines = ["-"]
    for i in range(1, 200):
        lines += [" " * i + "a:", " " * i + "-"]
    with pytest.raises(WorldFormatError, match="nests deeper than 256 levels on line 257$"):
        load_world("\n".join(lines) + "\n" + " " * 200 + "x\n")


# text that YAML reads specially: indicators, reserved words, numbers and
# dates, line breaks (among them NEL and U+2028), and control characters
_AWKWARD_WORDS = ("yes", "No", "on", "~", "null", "true", "010", "0x1F", "1:2", "1.50",
                  ".inf", "2001-12-14", "<<", "=", "-", "? a", "a: b", "#c", "&a", "*a",
                  "!t", "|", ">", "%", "@", "`", "[", "}", ",", "'", '"')
_AWKWARD_CHARS = ("ab -?:,[]{}#&*!|>'\"%@`\\\t\r\n\x00\x07\x1b\x7f\x85\x9f\xa0"
                  "\u2028\u2029\ufeff\xe9\U0001f600")
_texts = st.sampled_from(_AWKWARD_WORDS) | st.text(st.sampled_from(_AWKWARD_CHARS), max_size=6)
_PROPERTIES = ("!!str ", "!!int ", "!!bool ", "!!null ", "!!binary ", "!!timestamp ",
               "!!float ", "!!set ", "!foo ", "! ", "&a ", "&b ")
_STYLES = (
    lambda t: '"' + "".join(  # double-quoted, escaping all but printable ASCII
        c if " " <= c <= "~" and c not in '"\\'
        else f"\\u{ord(c):04X}" if ord(c) <= 0xFFFF else f"\\U{ord(c):08X}"
        for c in t
    ) + '"',
    lambda t: "'" + t.replace("'", "''") + "'",
    str,
)


@st.composite
def _scalars(draw, text=_texts, noise=3):
    """`text` as a double-quoted scalar; with odds of `noise` in 10 each it
    is instead single-quoted or plain, tagged or anchored, or an alias."""
    def noisy():
        return draw(st.integers(0, 9)) < noise

    if noisy():
        return draw(st.sampled_from(("*a", "*b")))
    tag = draw(st.sampled_from(_PROPERTIES)) if noisy() else ""
    return tag + (draw(st.sampled_from(_STYLES)) if noisy() else _STYLES[0])(draw(text))


def _flow_seq(items):
    return "[" + ", ".join(items) + "]"


def _flow_map(pairs):
    return "{" + ", ".join(f"{k}: {v}" for k, v in pairs) + "}"


def _trees(noise):
    """Flow trees of lists, mappings and `_scalars`; with any noise, a key
    may also be the merge key (<<) or the "value" key (=), which both
    loaders refuse, or repeat in its mapping."""
    keys = _scalars(noise=noise) | st.sampled_from(("<<", "=")) if noise else _scalars(noise=0)
    unique_keys = None if noise else (lambda pair: pair[0])
    return st.recursive(_scalars(noise=noise), lambda inner: (
        st.lists(inner, max_size=3).map(_flow_seq)
        | st.lists(st.tuples(keys, inner), max_size=3, unique_by=unique_keys).map(_flow_map)
    ), max_leaves=6)


@st.composite
def world_documents(draw, noise=st.integers(0, 3)):
    """A world config from drawn names, values and ids, in flow style under
    a block mapping, and with it, at noise 0, the texts drawn: (names,
    domains, ids, labels, types, rows), else None. At a drawn noise level,
    the mapping may first anchor two drawn trees, any node may be another
    tree, any scalar quoted otherwise, tagged, anchored or an alias, and
    the first entity's assignment may be anchored and a later one's hold a
    merge key naming it. Both loaders refuse every anchor, alias, tag and
    merge key, so a noiseless document holds none."""
    noise = draw(noise)
    trees = _trees(noise)

    def rarely():
        return draw(st.integers(0, 39)) < noise

    def maybe(rendered):
        return draw(trees) if rarely() else rendered

    def scalar(text):
        return maybe(draw(_scalars(st.just(text), noise)))

    names = draw(st.lists(_texts, max_size=3, unique=True))
    domains = [draw(st.lists(_texts, min_size=1, max_size=3, unique=True)) for _ in names]
    schema = [_flow_map([("name", scalar(name)), ("values", maybe(_flow_seq(map(scalar, domain))))])
              for name, domain in zip(names, domains)]
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, domains)), min_size=1, max_size=4,
                         unique=True))
    ids = draw(st.lists(_texts, min_size=len(rows), max_size=len(rows), unique=True))
    labels = [draw(_texts) for _ in rows]
    types = [draw(_texts) for _ in rows]
    entities = []
    for i, (entity_id, label, type_name, row) in enumerate(zip(ids, labels, types, rows)):
        pairs = [(scalar(name), scalar(value)) for name, value in zip(names, row)]
        if i and draw(st.integers(0, 9)) < noise:
            pairs.insert(draw(st.integers(0, len(pairs))), ("<<", "*m"))
        assignment = ("&m " if i == 0 and rarely() else "") + _flow_map(pairs)
        entities.append(_flow_map([("id", scalar(entity_id)), ("label", scalar(label)),
                                   ("type", scalar(type_name)), ("assignment", maybe(assignment))]))
    doc = ((f"anchors: [&a {draw(trees)}, &b {draw(trees)}]\n" if rarely() else "")
           + f"schema: {maybe(_flow_seq(schema))}\nentities: {maybe(_flow_seq(entities))}\n")
    return doc, (names, domains, ids, labels, types, rows) if noise == 0 else None


def assert_loads_as_reference(doc, parser):
    """The World `doc` loads as, which must equal the reference loader's
    over the same parser, or None when both loaders refuse it."""
    try:
        w = load_world(doc)
    except WorldFormatError:
        with pytest.raises(WorldFormatError):
            reference.load_world(doc, parser)
        return None
    assert reference.load_world(doc, parser) == w
    return w


def _one_property_doc(assignment, anchors="[]"):
    """A world of one entity, whose assignment is written `assignment`,
    after a top-level key `anchors` written `anchors`; p and q both take
    the values x and y."""
    return (f"anchors: {anchors}\n"
            "schema: [{name: p, values: [x, y]}, {name: q, values: [x, y]}]\n"
            f"entities: [{{id: a, label: w, type: w, assignment: {assignment}}}]\n")


_AB = "[&a {p: x}, &b {p: y, q: y}]"


@pytest.mark.parametrize("doc, assignment", [
    ("schema: []\nentities: [{id: a, label: w, type: w, assignment: &m {<<: *m}}]\n", None),
    (_one_property_doc("*i", "&t {p: x, q: &i {<<: *t, q: y}}"), None),
    (_one_property_doc("{p: x, q: x}", "&a [{<<: *a}, x]"), None),
    (_one_property_doc("{<<: [*a, *b]}", _AB), None),
    (_one_property_doc("{<<: *a, <<: *b}", _AB), None),
    (_one_property_doc("{<<: *b, <<: *a}", _AB), None),
    (_one_property_doc("{q: x, <<: [*a, *b]}", _AB), None),
    (_one_property_doc("{<<: {p: x, p: y}, q: x}"), None),
    (_one_property_doc("{<<: [{p: x, p: y}], q: x}"), None),
    (_one_property_doc("{<<: {p: x, q: {q: x, q: y}}}"), None),
    (_one_property_doc("{[p]: x, q: x}"), None),
    ("schema: [{name: '=', values: [x]}]\n"
     "entities: [{id: a, label: w, type: w, assignment: {=: x}}]\n", None),
    (_one_property_doc("{p: =, q: x}"), None),
    (_one_property_doc("{p: <<, q: x}"), None),
    (_one_property_doc("{p: x, q: x}", "&a [*a, {k: *a}]"), None),
    ("schema: [{name: p, values: &v [x, *v]}]\n"
     "entities: [{id: a, label: w, type: w, assignment: {p: x}}]\n", None),
    (_one_property_doc("{p: x, q: *u}"), None),
    (_one_property_doc("{p: &x x, q: &x y}"), None),
    (_one_property_doc("{p: x, q: x}") + "---\n" + _one_property_doc("{p: y, q: y}"), None),
    ("", None),
    ("# only a comment\n", None),
], ids=["self-merge", "merge-enclosing", "merge-open-list-of-non-mappings", "merge-list-order",
        "two-merge-keys", "two-merge-keys-reversed", "own-key-beats-merged",
        "merge-source-repeats-a-key", "merge-list-source-repeats-a-key",
        "merged-value-repeats-a-key", "collection-key", "value-key",
        "value-as-value", "merge-key-as-value", "recursive-alias", "recursive-values",
        "undefined-alias", "repeated-anchor", "two-documents", "empty", "comment-only"])
def test_corner_documents_load_as_the_reference_loads_them(yaml_parser, doc, assignment):
    # None: both loaders refuse the document
    w = assert_loads_as_reference(doc, yaml_parser)
    assert (w and dict(w.entities[0].assignment)) == assignment


def test_loading_builds_no_node_and_runs_no_constructor(yaml_parser, monkeypatch):
    crowd = World(PropertySchema(tuple((f"p{i}", ("x", "y")) for i in range(8))), tuple(
        Entity(f"e{n:03d}", "crowd item", "item",
               {f"p{i}": "xy"[n >> i & 1] for i in range(8)})
        for n in range(200)
    ))
    flow = yaml.safe_dump(yaml.safe_load(serialize_world(crowd)), default_flow_style=True,
                          sort_keys=False, width=80)
    spacecraft = resources.files("refquest.data").joinpath("spacecraft.yaml").read_text("utf-8")

    def refuse(*args, **kwargs):
        raise AssertionError("loading a world built a node or ran a constructor")

    for cls in (yaml.nodes.Node, yaml.nodes.ScalarNode, yaml.nodes.CollectionNode):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(yaml.constructor.BaseConstructor, "construct_object", refuse)
    assert load_world(flow) == crowd
    assert load_world(spacecraft) == spacecraft_world()


_DOUBLING = ("a0: &a0 [x]\n"
             + "".join(f"a{i}: &a{i} [*a{i - 1}, *a{i - 1}]\n" for i in range(1, 41))
             + "schema:\n  - name: p\n    values: *a40\nentities: []\n")


def _refused_by_both_loaders(doc, yaml_parser):
    messages = []
    for load in (load_world, lambda doc: reference.load_world(doc, yaml_parser)):
        with pytest.raises(WorldFormatError) as exc:
            load(doc)
        messages.append(str(exc.value))
    return messages


def test_an_alias_blow_up_is_refused_at_once(yaml_parser):
    # a40 would stand for 2**40 leaves, but the document is refused at its
    # first anchor, before any alias is read
    assert _refused_by_both_loaders(_DOUBLING, yaml_parser) == [
        "anchor &a0 on line 1 is not allowed"] * 2


def test_values_nested_through_aliases_are_refused_briefly(yaml_parser):
    # each alias would add a level without nesting the document, 1,200 lists
    # deep; the chain is refused at its first anchor, as briefly
    chain = "".join(f"a{i}: &a{i}\n- *a{i - 1}\n" for i in range(1, 1200))
    doc = "a0: &a0 [x]\n" + chain + "schema:\n  - name: p\n    values: *a1199\nentities: []\n"
    assert _refused_by_both_loaders(doc, yaml_parser) == [
        "anchor &a0 on line 1 is not allowed"] * 2


@pytest.mark.parametrize("doc, message", [
    (_one_property_doc("{p: x, q: *u}"), "alias *u on line 3 is not allowed"),
    (_one_property_doc("{p: &x x, q: &x y}"), "anchor &x on line 3 is not allowed"),
    (_one_property_doc("{p: x, q: &s x}"), "anchor &s on line 3 is not allowed"),
    (_one_property_doc("&f {p: x, q: x}"), "anchor &f on line 3 is not allowed"),
    ("schema: &b\n- {name: p, values: [x]}\n"
     "entities: [{id: a, label: w, type: w, assignment: {p: x}}]\n",
     "anchor &b on line 1 is not allowed"),
    (_one_property_doc("{*p: x, q: x}"), "alias *p on line 3 is not allowed"),
    (_one_property_doc("{p: x, =: x}"), "tag 'tag:yaml.org,2002:value' on line 3 is not allowed"),
    (_one_property_doc("{p: !!str x, q: x}"),
     "tag 'tag:yaml.org,2002:str' on line 3 is not allowed"),
    (_one_property_doc("{p: ! x, q: x}"), "tag '!' on line 3 is not allowed"),
    (_one_property_doc("!!map {p: x, q: x}"),
     "tag 'tag:yaml.org,2002:map' on line 3 is not allowed"),
    ("schema: !!seq\n- {name: p, values: [x]}\n"
     "entities: [{id: a, label: w, type: w, assignment: {p: x}}]\n",
     "tag 'tag:yaml.org,2002:seq' on line 1 is not allowed"),
    (_one_property_doc("{p: !!bool ~, q: x}"),
     "tag 'tag:yaml.org,2002:bool' on line 3 is not allowed"),
    (_one_property_doc("{[p]: x, q: x}"), "list or mapping as a key on line 3 is not allowed"),
    (_one_property_doc("{{p: x}: y, q: x}"), "list or mapping as a key on line 3 is not allowed"),
    ("schema: [{name: p, values: [x]}]\n"
     "entities:\n- id: a\n  label: w\n  type: w\n  assignment:\n    ? - p\n    : x\n",
     "list or mapping as a key on line 7 is not allowed"),
    (_one_property_doc("{p: x, q: x}") + "---\n" + _one_property_doc("{p: y, q: y}"),
     "second document on line 4 is not allowed"),
    (_one_property_doc("{p: x, q: x}") + "...\n---\n" + _one_property_doc("{p: y, q: y}"),
     "second document on line 5 is not allowed"),
], ids=["undefined-alias", "repeated-anchor", "anchor-on-scalar",
        "anchor-on-flow-collection", "anchor-on-block-collection", "alias-as-key", "value-key",
        "str-tag", "non-specific-tag", "map-tag-on-flow-mapping", "seq-tag-on-block-sequence",
        "bool-tag-on-null", "list-key", "mapping-key", "block-list-key",
        "second-document", "second-document-after-end"])
def test_anchors_aliases_and_value_keys_are_refused_with_their_line(yaml_parser, doc, message):
    # a world config is one plain tree of untagged scalars: every anchor,
    # alias, tag, list or mapping key and second document is refused
    assert _refused_by_both_loaders(doc, yaml_parser) == [message] * 2


def test_a_value_branching_through_aliases_is_shown_briefly(yaml_parser):
    # six-wide lists three deep reach reprlib's six items at every level:
    # shown in full, the 216 leaves take 1,164 characters
    value = "x"
    for _ in range(3):
        value = "[" + ", ".join([value] * 6) + "]"
    doc = "schema:\n  - name: p\n    values: [" + value + "]\nentities: []\n"
    with pytest.raises(WorldFormatError) as exc:
        load_world(doc)
    prefix = "property 'p': expected a single value, got "
    shown = str(exc.value).removeprefix(prefix)
    assert shown != str(exc.value)
    assert len(shown) == refquest.world._SHOWN_MAX
    assert shown.startswith("[[['x', 'x', 'x', 'x', 'x', 'x'], ['x', 'x', 'x', 'x', 'x', 'x'],")
    assert shown.endswith("...")


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=world_documents())
def test_every_document_loads_as_written_or_is_refused(yaml_parser, drawn):
    doc, _ = drawn
    w = assert_loads_as_reference(doc, yaml_parser)
    if w is not None:
        assert load_world(serialize_world(w)) == w


_TAGS = tuple(p for p in _PROPERTIES if p.startswith("!"))  # the tags, without the anchors


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=world_documents(noise=st.just(0)), tag=st.sampled_from(_TAGS), data=st.data())
def test_a_tag_on_any_scalar_is_refused_with_its_line(yaml_parser, drawn, tag, data):
    # a noiseless document loads, and each of its double-quoted scalars
    # escapes every " it holds, so every other " opens one: tag that one
    doc, _ = drawn
    openings = [i for i, c in enumerate(doc) if c == '"'][::2]
    at = data.draw(st.sampled_from(openings))
    name = tag.strip()
    name = "tag:yaml.org,2002:" + name[2:] if name.startswith("!!") else name
    line = doc.count("\n", 0, at) + 1
    message = f"tag {name!r} on line {line} is not allowed"
    assert _refused_by_both_loaders(doc[:at] + tag + doc[at:], yaml_parser) == [message] * 2


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=world_documents(noise=st.just(0)))
def test_a_noiseless_document_loads_spelled_as_drawn(yaml_parser, drawn):
    # every scalar double-quoted, untagged and unaliased: each loaded text
    # is the one drawn, character for character, and saved it loads back
    doc, (names, domains, ids, labels, types, rows) = drawn
    w = load_world(doc)
    assert load_world(serialize_world(w)) == w
    assert w.schema.properties == tuple(zip(names, map(tuple, domains)))
    assert [(e.id, e.label, e.type_name, tuple(e.assignment.items())) for e in w.entities] == [
        (entity_id, label, type_name, tuple(zip(names, row)))
        for entity_id, label, type_name, row in zip(ids, labels, types, rows)
    ]
