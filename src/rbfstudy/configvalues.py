"""The JSON format of study configs and kernel files, declared once, with
``key``, on the dataclass fields that hold it.

``read`` walks a JSON object into such a dataclass and ``write`` turns it
back into nested JSON. ``check``, run from ``__post_init__``, holds a
config built in Python to the same rules. A check ``check(name, value)``
returns the value to store, or raises a ValueError that names the key; a
value of the wrong type is refused, not coerced as ``float("0.1")`` or
``float(True)`` would. Numbers are checked by kind, so numpy scalars pass.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from enum import Enum


def key(path: str, check, default=dataclasses.MISSING, *, null: bool = False, init: bool = True):
    """A field at the dotted ``path`` of the JSON format. None is JSON null
    for a ``null`` key; for another key whose default is None it means the
    key is absent, and ``write`` leaves it out. A field with ``init=False``
    is a constant of the format, which the constructor does not take.
    """
    return dataclasses.field(default=default, init=init,
                             metadata={"key": path, "check": check, "null": null})


def _join(prefix: str, path: str) -> str:
    return f"{prefix}.{path}" if prefix and path else prefix or path


def check(obj, prefix: str = "") -> None:
    """Store each field of the frozen dataclass ``obj`` (at ``prefix``) as its check returns it."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if value is not None or not (field.metadata["null"] or field.default is None):
            value = field.metadata["check"](_join(prefix, field.metadata["key"]), value)
            object.__setattr__(obj, field.name, value)


def json_object(name: str, value, required, optional=()) -> dict:
    """``value``, refused unless it is a JSON object that holds every key
    of ``required`` and no key outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name or 'the config'} must be an object, got {value!r}")
    for problem, keys in (("unknown", sorted(set(value) - {*required, *optional})),
                          ("missing", [k for k in required if k not in value])):
        if keys:
            raise ValueError(f"{problem} config key {', '.join(_join(name, k) for k in keys)}")
    return value


def read(cls, d, prefix: str = ""):
    """The dataclass ``cls`` read from the JSON object ``d`` found at
    ``prefix``; an absent key takes its field's default."""
    # each object of the format, parents first, with its required and optional keys
    objects: dict[str, tuple[list, list]] = {}
    for field in dataclasses.fields(cls):
        *parents, leaf = field.metadata["key"].split(".")
        for i, part in enumerate(parents):
            objects.setdefault(".".join(parents[:i]), ([], []))[1].append(part)
        required = field.default is dataclasses.MISSING
        objects.setdefault(".".join(parents), ([], []))[0 if required else 1].append(leaf)
    found = {}
    for path, (required, optional) in objects.items():
        parent, _, leaf = path.rpartition(".")
        value = found[parent].get(leaf, {}) if path else d
        found[path] = json_object(_join(prefix, path), value, required, optional)
    values = {}
    for field in dataclasses.fields(cls):
        path, _, leaf = field.metadata["key"].rpartition(".")
        value = found[path].get(leaf, field.default)
        if field.init:
            values[field.name] = value
        else:
            field.metadata["check"](_join(prefix, field.metadata["key"]), value)
    return cls(**values)


def write(obj) -> dict:
    """The fields of the dataclass ``obj`` as nested JSON."""
    out: dict = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if value is not None or field.metadata["null"]:
            *parents, leaf = field.metadata["key"].split(".")
            node = out
            for part in parents:
                node = node.setdefault(part, {})
            node[leaf] = _json(value)
    return out


def _json(value):
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, Enum):
        return value.value
    return value.to_dict() if hasattr(value, "to_dict") else value


def nested(cls):
    """A check that takes an instance of ``cls`` or reads one with ``cls.from_dict``."""
    return lambda name, value: value if isinstance(value, cls) else cls.from_dict(value)


def number(name: str, value) -> float:
    """``value`` as a float; refuse anything but a finite real number, and bools."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer past double's range
        out = math.inf
    if not math.isfinite(out):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return out


def flag(name: str, value) -> bool:
    """``value``; refuse anything but a bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def integer(minimum: int):
    """A check that takes an integer >= ``minimum``, not a bool, as an int."""
    def check_integer(name: str, value) -> int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
        return int(value)
    return check_integer


def list_of(check_entry):
    """A check that takes a list or tuple as a tuple of checked entries."""
    def check_list(name: str, value) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} must be a list, got {value!r}")
        entry = name if name.startswith("an entry of ") else f"an entry of {name}"
        return tuple(check_entry(entry, v) for v in value)
    return check_list


def choice(*options):
    """A check that takes one of ``options`` (a str enum member equals its
    value) and stores that option."""
    def check_choice(name: str, value):
        if isinstance(value, bool) or value not in options:
            shown = " or ".join(repr(getattr(o, "value", o)) for o in options)
            raise ValueError(f"{name} must be {shown}, got {value!r}")
        return options[options.index(value)]
    return check_choice
