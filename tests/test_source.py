"""Checks over the package's own source text."""

import ast
from pathlib import Path

import refquest

SOURCES = sorted(Path(refquest.__file__).parent.glob("*.py"))


def test_no_source_reads_or_writes_an_instance_dict():
    # every engine object is built by its constructor, or, for a derived
    # Belief, by assigning its slots; a __dict__ would be a way round both.
    # A docstring naming __dict__ is a string, not an attribute, and passes
    assert {"belief.py", "dialogue.py", "dnet.py", "world.py", "worlds.py"} <= {
        path.name for path in SOURCES}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
    assert found == []


def test_worlds_imports_only_the_unchecked_entry_point_of_world():
    # the generator draws slots and names entities; world.py builds and
    # tables its Worlds, so no other private name of world.py is reached
    module = ast.parse((Path(refquest.__file__).parent / "worlds.py").read_text("utf-8"))
    imported = [alias.name for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
                and node.module == "refquest.world" for alias in node.names]
    assert [name for name in imported if name.startswith("_")] == ["_unchecked_world"]
    assert not [node for node in ast.walk(module) if isinstance(node, ast.Import)
                and any(alias.name == "refquest.world" for alias in node.names)]


def test_only_world_py_calls_object_setattr():
    # frozen engine objects are built in world.py alone: by their
    # constructors, or by _unchecked_world for a generated World
    found = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "world.py"
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"]
    assert found == []


def test_only_dnet_py_calls_compute_min_set():
    # the tracer's min-set probe wraps refquest.dnet.compute_min_set, so a
    # solve started from any other module would run unseen
    called = {path.name for path in SOURCES
              for node in ast.walk(ast.parse(path.read_text("utf-8")))
              if isinstance(node, ast.Call) and "compute_min_set" in (
                  getattr(node.func, "id", None), getattr(node.func, "attr", None))}
    assert called == {"dnet.py"}
