"""Decoders of the JSON values in configs and transcript headers.

An integer is a JSON integer or a decimal string (``Transcript.serialize``
writes every parameter as one): a float is not truncated and a bool is
not read as 0 or 1.  A flag is a JSON boolean: "no" is not true.  The
ring, the topology and every protocol decode their fields here, so this
module imports nothing of the package.
"""

from __future__ import annotations

_REQUIRED = object()


def json_list(raw) -> list:
    """``raw`` if it is a JSON list: a string would be read by digit, an object by key."""
    if not isinstance(raw, list):
        raise TypeError(f"expected a JSON list, not {type(raw).__name__}")
    return raw


def json_object(raw) -> dict:
    """``raw`` if it is a JSON object: a list or a string has no fields to read."""
    if not isinstance(raw, dict):
        raise TypeError(f"expected a JSON object, not {type(raw).__name__}")
    return raw


def json_int(raw) -> int:
    """``raw`` as an int if it is a JSON integer or a decimal string: a float or a bool is not."""
    if type(raw) is not int and not isinstance(raw, str):
        raise TypeError(f"{raw!r} is not an integer or a decimal string")
    return int(raw)


def json_ints(raw) -> tuple:
    """A JSON list of integers as a tuple of ints."""
    return tuple(map(json_int, json_list(raw)))


def json_bool(raw) -> bool:
    """``raw`` if it is a JSON boolean."""
    if type(raw) is not bool:
        raise TypeError(f"{raw!r} is not a JSON boolean")
    return raw


def json_field(obj: dict, key: str, decode=json_int, default=_REQUIRED):
    """``decode(obj[key])``, or ``default`` if the field is absent or null and has one.

    An absent required field is a KeyError; a fault in the value is a
    ValueError that names the field.
    """
    raw = obj.get(key)
    if raw is None:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    try:
        return decode(raw)
    except (IndexError, ValueError, TypeError, AttributeError) as e:
        raise ValueError(f"{key!r}: {e}") from None
