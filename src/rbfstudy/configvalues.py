"""Checks for the values read from JSON study configs and kernel files.

A value of the wrong JSON type is refused with its key named rather than
coerced into another: ``float("0.1")`` and ``float(True)`` would read a
string and a boolean as numbers.
"""

from __future__ import annotations


def number(key: str, value) -> float:
    """``value`` as a float; refuse anything but an int or a float, and bools."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def flag(key: str, value) -> bool:
    """``value``; refuse anything but a bool."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value
