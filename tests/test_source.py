"""Checks over the package's own source text."""

import ast
import dataclasses
import importlib
from pathlib import Path

import refquest

SOURCES = sorted(Path(refquest.__file__).parent.glob("*.py"))


def test_no_source_reads_or_writes_an_instance_dict():
    # every engine value is a slotted dataclass, frozen for the world types,
    # and the agents and oracles are plain classes: a __dict__ read or written
    # would be a way round their constructors. A docstring naming __dict__
    # is a string, not an attribute, and passes
    assert {"belief.py", "dialogue.py", "dnet.py", "world.py", "worlds.py"} <= {
        path.name for path in SOURCES}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "__dict__"]
    assert found == []


def test_every_dataclass_but_the_two_specs_is_slotted():
    # the CLI and BenchmarkSpec.trials read the specs' defaults off their
    # classes, where slots would leave a member descriptor instead
    classes = {name: cls for path in SOURCES if path.stem != "__init__"
               for name, cls in vars(importlib.import_module(f"refquest.{path.stem}")).items()
               if dataclasses.is_dataclass(cls) and cls.__module__ == f"refquest.{path.stem}"}
    assert {"World", "Entity", "PropertySchema", "Question", "Belief"} <= set(classes)
    assert sorted(name for name, cls in classes.items()
                  if "__slots__" not in vars(cls)) == ["BenchmarkSpec", "RandomWorldSpec"]


def test_no_source_calls_a_statistics_spread():
    # the last bit of statistics.stdev and its kin differs between Python
    # 3.10 and 3.11, and the report's SD is pinned to the byte
    spreads = {"stdev", "pstdev", "variance", "pvariance"}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in spreads
             and getattr(node.value, "id", None) == "statistics"
             or isinstance(node, ast.ImportFrom) and node.module == "statistics"
             and spreads & {alias.name for alias in node.names}]
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


# the public names that no src or perfbench code calls, each under the
# acceptance criterion that calls it: tests/test_acceptance.py keeps them
CALLED_BY_A_CRITERION = {"yn_expected_entropy": 7}


def _public_definitions(module):
    """Each public function and class at the top of `module`, and each
    public method of its public classes: (qualified name, name)."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def test_every_public_name_has_a_caller_in_src_or_perfbench():
    # no API that only a test calls: a name counts as used where src or
    # perfbench reads it as a name or an attribute, which its definition, an
    # import or a docstring does not. An allowlisted name must be one the
    # check would flag, and its criterion must call it
    perfbench = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    assert perfbench
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for path in SOURCES + perfbench
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = [qualified for path in SOURCES
                for qualified, name in _public_definitions(ast.parse(path.read_text("utf-8")))
                if name not in used]
    assert sorted(uncalled) == sorted(CALLED_BY_A_CRITERION)
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text("utf-8"))
    for name, n in CALLED_BY_A_CRITERION.items():
        (criterion,) = [node for node in acceptance.body if isinstance(node, ast.FunctionDef)
                        and node.name.startswith(f"test_criterion_{n}_")]
        assert name in {node.id for node in ast.walk(criterion) if isinstance(node, ast.Name)}
