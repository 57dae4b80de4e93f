"""The checks that several test modules share, each stated once: how a
World is tabled, how an engine object is built, how a refusal is worded,
how a worked example is tabled, how a child interpreter is started, and
a recorder of the calls a test watches. A change to a table's shape, a
constructor or a probe point edits the one helper here, not every test
that relies on it.
Every engine object built as a value is a slotted dataclass, frozen for
the world types (World, Entity, PropertySchema, Question), so none holds
a __dict__."""

import dataclasses
import os
import re
import subprocess
import sys
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType

import pytest

import refquest
from refquest.world import Entity


def assert_tabled(world):
    """`world`'s tables are what its own schema and entities give, each
    derived here with plain loops:
    - `codes`, a tuple aligned with `entities`: property i's bit field,
      w bits from bit i * w with w wide enough for the largest domain,
      holds the entity's value's domain index + 1;
    - `value_masks[p][v]`, bit i set when `entities[i]` carries v and 0
      where none does, properties in schema order and each row's values
      in domain order;
    - `label_masks`, each label's entities as bits, labels in order of
      first appearance;
    - `by_id`, each entity under its id.
    Both levels of `value_masks` and `label_masks` refuse writes, and the
    tables hold only ints, Entities and rows of value masks: never a
    Question."""
    schema, entities = world.schema, world.entities
    width = max((len(domain) for _, domain in schema.properties), default=0).bit_length()
    codes, labels = [], {}
    masks = {p: dict.fromkeys(domain, 0) for p, domain in schema.properties}
    for i, e in enumerate(entities):
        labels[e.label] = labels.get(e.label, 0) | 1 << i
        code = 0
        for j, (p, domain) in enumerate(schema.properties):
            v = e.assignment[p]
            code += (domain.index(v) + 1) << (j * width)
            masks[p][v] |= 1 << i
        codes.append(code)
    assert world.codes == tuple(codes)
    assert list(world.value_masks) == list(schema.names)
    for p, domain in schema.properties:
        row = world.value_masks[p]
        assert list(row.items()) == list(masks[p].items())
        with pytest.raises(TypeError):
            row[domain[0]] = row[domain[0]]
        with pytest.raises(TypeError):
            world.value_masks[p] = row

    assert list(world.label_masks.items()) == list(labels.items())
    for label, mask in labels.items():
        with pytest.raises(TypeError):
            world.label_masks[label] = mask

    assert list(world._by_id.items()) == [(e.id, e) for e in entities]
    assert all(world.by_id(e.id) is e for e in entities)

    rows = list(world.value_masks.values())
    held = [*world.codes, *rows, *(m for row in rows for m in row.values()),
            *world.label_masks.values(), *world._by_id.values()]
    assert all(type(x) in (int, Entity, MappingProxyType) for x in held)


def _hashes(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def assert_built_as_constructed(obj):
    """An object the engine builds holds the fields, in the order, that the
    public constructor gives it, equals and prints as that one, and takes
    no attribute beyond its fields: its slots are its fields, and it holds
    no __dict__. A frozen type refuses assignment to each field too. It
    hashes as that one when every field its hash would read hashes;
    otherwise its type declares no hash."""
    fields = dataclasses.fields(obj)
    built = type(obj)(**{f.name: getattr(obj, f.name) for f in fields})
    assert type(obj).__slots__ == tuple(f.name for f in fields)
    assert not hasattr(obj, "__dict__") and not hasattr(built, "__dict__")
    assert ([(f.name, getattr(obj, f.name)) for f in fields]
            == [(f.name, getattr(built, f.name)) for f in fields])
    if type(obj).__dataclass_params__.frozen:
        for f in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, None)
    # up to CPython 3.11 a frozen slotted type raises TypeError here: the
    # super() in its generated __setattr__ names the class before slots
    with pytest.raises((AttributeError, TypeError)):
        obj.undeclared = None
    assert obj == built
    hashed = [f for f in fields if (f.compare if f.hash is None else f.hash)]
    if all(_hashes(getattr(obj, f.name)) for f in hashed):
        assert hash(obj) == hash(built)
    else:  # a type that holds a dict declares no hash
        assert type(obj).__hash__ is None
        with pytest.raises(TypeError):
            hash(obj)
    assert repr(obj) == repr(built)


def refusals(rows):
    """Parametrize a test over `rows`, {id: (call, error type, message)},
    each case under its id: one refusal table per layer. An id that starts
    with test_ names the one-case test the row was first written as, so
    `pytest -k` on that name still selects it."""
    return pytest.mark.parametrize("call, error, message", list(rows.values()), ids=list(rows))


def examples(rows):
    """Parametrize a test over `rows`, {id: (call, expected)}, ids as
    `refusals` names them: one worked-example table per layer, each row
    pinned to the whole value its call returns."""
    return pytest.mark.parametrize("call, expected", list(rows.values()), ids=list(rows))


def bits(x):
    """An entropy of `x` bits to 1e-9: it equals each float that close,
    wherever it stands in a value compared with ==."""
    return pytest.approx(x, abs=1e-9)


def assert_refused(call, error, message):
    """`call()` raises `error` itself, not a subclass, with the one argument
    `message`, compared whole: equal to it when a str, else a compiled
    pattern it matches whole, for words that PyYAML writes after
    refquest's own prefix."""
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    (said,) = exc.value.args
    if isinstance(message, re.Pattern):
        assert message.fullmatch(said), said
    else:
        assert said == message


def run_python(*args, timeout=None):
    """Run `sys.executable` on `args` with this package's source put in
    front of the caller's PYTHONPATH, so that the child imports this
    refquest and still finds whatever else the caller's path holds;
    return the finished process, its output captured as text."""
    path = os.pathsep.join(filter(None, [str(Path(refquest.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env={**os.environ, "PYTHONPATH": path})


# one call that returned: its arguments as passed, and its result
Call = namedtuple("Call", "args kwargs result")


@contextmanager
def recorded_calls(points):
    """Wrap the function or method at each (owner, name) of `points`, as
    its callers look it up and as perfbench/tracer.py wraps it, so that
    each call runs as before and, once it returns, appends its Call to
    `calls[owner, name]`; yield `calls`, and put every original back after."""
    calls, saved = {}, []
    try:
        for owner, name in points:
            fn, log = vars(owner)[name], calls.setdefault((owner, name), [])

            def recorded(*args, _fn=fn, _log=log, **kwargs):
                result = _fn(*args, **kwargs)
                _log.append(Call(args, kwargs, result))
                return result

            saved.append((owner, name, fn))
            setattr(owner, name, recorded)
        yield calls
    finally:
        for owner, name, fn in reversed(saved):
            setattr(owner, name, fn)
