"""The one rule for a number read from a config, network or forecast."""

from __future__ import annotations

import math
import numbers
from dataclasses import fields

_KINDS = {"int": int, "float": float}  # a field's declared type, as the string annotation names it


def number_problem(value, integer: bool = False) -> str | None:
    """None if ``value`` is a finite number (an integer if ``integer``), else
    the end of an error message.  A bool is not a number, and an int too
    large for a float is not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return f"must be {'an integer' if integer else 'a number'}, got {value!r}"
    try:
        finite = math.isfinite(value)
    except OverflowError:
        return "must be finite, got a number too large for a float"
    return None if finite else f"must be finite, got {value!r}"


def python_numbers(settings) -> None:
    """Check each field that the frozen dataclass ``settings`` declares
    ``int`` or ``float`` and store it as a Python int or float (numpy and
    other numbers included).  Raises ValueError("<field> <problem>")."""
    for f in fields(settings):
        kind = _KINDS.get(f.type)
        if kind is None:
            continue
        value = getattr(settings, f.name)
        problem = number_problem(value, integer=kind is int)
        if problem:
            raise ValueError(f"{f.name} {problem}")
        if type(value) is not kind:
            object.__setattr__(settings, f.name, kind(value))
