"""The one JSON codec for configs and artifacts: `decode` and its inverse `encode`.

`decode(hint, value)` reads `value` as the annotation `hint` says: bool, int,
str and dict exactly; float as a finite number; `Literal[...]` as one of its
values; `list[X]` and `tuple[X, ...]` item by item; `Optional`/`Union` by the
first arm that reads; `np.ndarray` as a rectangular array of numbers; a
dataclass from a mapping of its fields; a class carrying a `name` tag (or a
union of them: windows, isometries) from a mapping whose "kind" is that tag.
Faults raise FieldError with the dotted path of the offending entry; callers
re-root it as their own error.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from numbers import Integral, Real

import numpy as np

from .errors import FieldError

_SCALARS = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string",
            dict: "a mapping"}


def require(ok, field: str, reason: str) -> None:
    """Raise FieldError(field, reason) unless `ok`."""
    if not ok:
        raise FieldError(field, reason)


def require_count(value, field: str, least: int = 1) -> int:
    """`value` as an int if it is an integer (numpy's too, not bool) >= `least`."""
    require(isinstance(value, Integral) and not isinstance(value, bool) and value >= least,
            field, f"expected an integer >= {least}")
    return int(value)


def is_real(value) -> bool:
    """Whether `value` is a real number, numpy's too, but not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def require_tolerance(value, field: str) -> float:
    """`value` as a float if it is a real number, finite and > 0."""
    require(is_real(value) and 0 < value < np.inf, field, "expected a finite number > 0")
    return float(value)


def require_finite(value, field: str) -> float:
    """`value` as a float if it is a real number and finite."""
    require(is_real(value) and abs(value) < np.inf, field, "expected a finite number")
    return float(value)


def as_floats(value):
    """`value` as a float array, or None where it is ragged or not numbers:
    `decode`'s rule for arrays, so numeric text ("0.5") is not a number."""
    try:
        values = np.asarray(value)
    except ValueError:
        return None
    return values.astype(float, copy=False) if values.dtype.kind in "biuf" else None


def require_indices(value, field: str) -> None:
    """Raise FieldError unless the array `value` is empty or holds integers >= 0."""
    value = np.asarray(value)
    require(value.size == 0 or value.dtype.kind in "iu" and value.min() >= 0, field,
            "expected integers >= 0")


def as_indices(values, field: str) -> np.ndarray:
    """The floats `values`, a column read from a table, as integer indices
    under `require_indices`'s rule: each integer-valued and >= 0, and below
    2**53, past which floats no longer hold every integer.  Checked before
    the cast, so that no value wraps or warns."""
    values = np.asarray(values, dtype=float)
    require(np.all((values >= 0) & (values < 2.0 ** 53) & (values == np.floor(values))),
            field, "expected integers >= 0")
    return values.astype(np.intp)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _tagged(hint) -> bool:
    return dataclasses.is_dataclass(hint) and isinstance(vars(hint).get("name"), str)


def payload_fields(cls) -> list:
    """The fields of dataclass `cls` in its JSON form: all but "in_memory" ones."""
    return [f for f in dataclasses.fields(cls) if not f.metadata.get("in_memory")]


def encode(value):
    """The JSON value that `decode` reads back as `value`: a dataclass as its
    payload fields, led by "kind" when its class carries a `name` tag;
    arrays and numpy scalars through `tolist`; tuples and lists item by item."""
    if dataclasses.is_dataclass(value):
        tag = {"kind": value.name} if _tagged(type(value)) else {}
        return tag | {f.name: encode(getattr(value, f.name))
                      for f in payload_fields(type(value))}
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def from_mapping(cls, mapping, path: str = ""):
    """Dataclass `cls` from a mapping holding each field without a default,
    and no other key; FieldErrors of the class's own checks are re-rooted."""
    label = repr(cls.name) if _tagged(cls) else cls.__name__
    if not isinstance(mapping, dict):
        raise FieldError(path, f"expected the fields of a {label}, "
                               f"found {type(mapping).__name__}")
    fields = payload_fields(cls)
    unknown = min(set(mapping) - {f.name for f in fields}, default=None)
    require(unknown is None, _join(path, str(unknown)), f"unknown field of {label}")
    hints, args = typing.get_type_hints(cls), {}
    for f in fields:
        if f.name in mapping:
            args[f.name] = decode(hints[f.name], mapping[f.name], _join(path, f.name))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise FieldError(_join(path, f.name), "missing required field")
    try:
        return cls(**args)
    except FieldError as exc:
        raise FieldError(_join(path, exc.field), exc.reason) from None


def _decode_union(arms: list, value, path: str):
    if all(_tagged(arm) for arm in arms):
        if not isinstance(value, dict):
            raise FieldError(path, f"expected a mapping with a 'kind', found {value!r}")
        kind = value.get("kind")
        cls = next((arm for arm in arms if arm.name == kind), None)
        require(cls, _join(path, "kind"), f"expected one of {[a.name for a in arms]}, found {kind!r}")
        return from_mapping(cls, {k: v for k, v in value.items() if k != "kind"}, path)
    errors = []
    for arm in arms:
        try:
            return decode(arm, value, path)
        except FieldError as exc:
            errors.append(exc)
    # the arm that read furthest into the value explains best; the last on ties
    raise max(reversed(errors), key=lambda exc: len(exc.field))


def decode(hint, value, path: str = ""):
    """`value`, a parsed JSON value, read as the annotation `hint` says."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        if value is None and type(None) in args:
            return None
        return _decode_union([a for a in args if a is not type(None)], value, path)
    if _tagged(hint):
        return _decode_union([hint], value, path)
    if dataclasses.is_dataclass(hint):
        return from_mapping(hint, value, path)
    if origin is typing.Literal:
        if value not in args:
            raise FieldError(path, f"expected one of {list(args)}, found {value!r}")
        return value
    if hint is np.ndarray:
        try:
            arr = np.asarray(value)  # JSON keeps int, float and bool apart
        except ValueError:
            raise FieldError(path, "not a rectangular array") from None
        require(arr.dtype.kind in "biuf", path, "expected an array of numbers")
        return arr
    if origin in (list, tuple):
        if not isinstance(value, list):  # the message is built only on failure: values can be large
            raise FieldError(path, f"expected a list, found {value!r}")
        items = [decode(args[0], v, f"{path}[{i}]") for i, v in enumerate(value)]
        return items if origin is list else tuple(items)
    if hint is float:  # exact comparison: rejects nan, inf and ints beyond float range
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    else:
        ok = isinstance(value, hint) and not (hint is int and isinstance(value, bool))
    if not ok:
        raise FieldError(path, f"expected {_SCALARS[hint]}, found {value!r}")
    return float(value) if hint is float else value
