"""The package's JSON form: one writer and one reader for every record.

Writer: ``plain(record)`` is a dataclass record's fields, in order, as JSON
values.  A nested record goes through its own ``to_dict``, an enum becomes
its value, a tuple becomes a list, and the values of a dict are converted
alike.  A record whose form is its fields sets ``to_dict = plain``.

Reader: ``read_object`` checks that a value is a JSON object with no unknown
and no missing key, naming the key.  ``read_number`` holds the number rule:
a number is a JSON int or float, not a boolean, inside the float range.  A
numeric string, a boolean, null, a list, an object or an integer past the
float range (about 1.8e308) is refused.  Every refusal is a ``SchemaError``,
a configuration error on the command line (exit 2).
"""

from __future__ import annotations

import dataclasses
from enum import Enum

from .errors import SchemaError


def _plain(value):
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def plain(record) -> dict:
    """The record's fields in order, as JSON values."""
    return {f.name: _plain(getattr(record, f.name)) for f in dataclasses.fields(record)}


def read_object(obj, what: str, keys: tuple[str, ...], required: tuple[str, ...] | None = None) -> dict:
    """``obj``, checked to be an object whose keys are among ``keys`` and
    hold every key of ``required`` (by default all of ``keys``)."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be an object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} in {what}")
    for key in keys if required is None else required:
        if key not in obj:
            raise SchemaError(f"{what} missing key {key!r}")
    return obj


def read_number(value, what: str) -> float:
    """``value`` as a float, under the number rule of the module docstring."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{what} holds an integer past the float range") from None
