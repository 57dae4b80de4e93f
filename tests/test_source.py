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
