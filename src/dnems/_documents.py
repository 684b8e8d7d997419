"""The one boundary for a config, network or forecast document: how a file is
read, how a JSON object maps onto a frozen dataclass, and what counts as a
number."""

from __future__ import annotations

import json
import math
import numbers
import reprlib
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path

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


def read_document(path, kind: str, build, error: type[ValueError] = ValueError):
    """``build`` applied to the JSON value of the file at ``path``.

    A file that cannot be read (the reason is its ``OSError``'s), is not
    UTF-8 text or is not JSON, and an ``error`` that ``build`` raises, all
    raise ``error("<kind> <path>: <reason>")``: every message names the
    document once, and only here."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text: {exc}"
    except (ValueError, RecursionError) as exc:  # malformed, an integer literal too long or arrays nested too deep
        reason = f"invalid JSON: {exc}"
    else:
        try:
            return build(doc)
        except error as exc:
            reason = str(exc)
    raise error(f"{kind} {path}: {reason}") from None


@cache
def _field_names(cls) -> tuple[frozenset[str], tuple[str, ...]]:
    """The dataclass ``cls``'s field names, and those without a default."""
    every = fields(cls)
    required = tuple(f.name for f in every if f.default is MISSING and f.default_factory is MISSING)
    return frozenset(f.name for f in every), required


def object_fields(cls, value, place: str = "") -> dict:
    """``value`` itself, once it is a JSON object whose keys are fields of
    the dataclass ``cls``, every field without a default among them.
    ValueError naming ``place`` (the document itself if empty) otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{place or 'the document'} must be an object, got {reprlib.repr(value)}")
    names, required = _field_names(cls)
    at = f"{place}: " if place else ""
    if not names.issuperset(value):
        raise ValueError(f"{at}unknown keys {sorted(value.keys() - names)}")
    for name in required:
        if name not in value:
            raise ValueError(f"{at}missing key {name!r}")
    return value
