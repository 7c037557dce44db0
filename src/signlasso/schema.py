"""The frozen dataclasses are the JSON schema, read in both directions.

``from_json`` builds a dataclass from parsed JSON using its field types, and
``jsonable`` turns any dataclass back into plain JSON values.  Every error
names the offending field path (``design.scale``, ``n_grid[2]``).

Loadable types: bool, int (a JSON bool is not an int), float (finite; an int
literal is stored as float), str, ``tuple[T, ...]`` from a list, ``X | None``,
``CoefVector`` from a list of numbers, and nested dataclasses.  A field whose
metadata sets ``omit_if_none`` is left out of the JSON when it is None.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, SignLassoError
from .model import CoefVector


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _build(cls, kwargs: dict, path: str):
    """cls(**kwargs), with its validation errors moved under ``path``."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(_join(path, exc.field), exc.message) from exc
    except (ValueError, SignLassoError) as exc:
        raise ConfigError(path or cls.__name__, str(exc)) from exc


def from_json(cls, raw, path: str = ""):
    """Build dataclass ``cls`` from a parsed JSON object found at ``path``."""
    if not isinstance(raw, dict):
        raise ConfigError(path or cls.__name__, "must be an object")
    hints = typing.get_type_hints(cls)
    loadable = {f.name: f for f in fields(cls) if f.init}
    for key in raw:
        if key not in loadable:
            raise ConfigError(_join(path, key), "is not a recognized field")
    kwargs = {}
    for name, f in loadable.items():
        if name in raw:
            kwargs[name] = _load(hints[name], raw[name], _join(path, name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(_join(path, name), "is required")
    return _build(cls, kwargs, path)


def _load(tp, raw, path: str):
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if raw is None and type(None) in args:
            return None
        (inner,) = [arg for arg in args if arg is not type(None)]
        return _load(inner, raw, path)
    if typing.get_origin(tp) is tuple:
        if not isinstance(raw, list):
            raise ConfigError(path, "must be a list")
        return tuple(_load(args[0], item, f"{path}[{k}]") for k, item in enumerate(raw))
    if tp is CoefVector:
        return _build(CoefVector, {"values": np.array(_load(tuple[float, ...], raw, path))}, path)
    if is_dataclass(tp):
        return from_json(tp, raw, path)
    if tp is bool:
        if not isinstance(raw, bool):
            raise ConfigError(path, "must be true or false")
        return raw
    if tp is int:
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ConfigError(path, "must be an integer")
        return raw
    if tp is float:
        if not isinstance(raw, (int, float)) or isinstance(raw, bool):
            raise ConfigError(path, "must be a number")
        try:
            value = float(raw)
        except OverflowError:
            value = math.inf  # an int literal beyond the largest float
        if not math.isfinite(value):
            raise ConfigError(path, "must be a finite number")
        return value
    if tp is str:
        if not isinstance(raw, str):
            raise ConfigError(path, "must be a string")
        return raw
    raise TypeError(f"{path}: no JSON loader for type {tp!r}")


def jsonable(value):
    """Plain JSON value of ``value``; non-finite floats become None (null).

    Dataclass fields keep their declaration order, a ``CoefVector`` is its
    list of values, and arrays and tuples become lists.
    """
    if isinstance(value, CoefVector):
        return jsonable(value.values)
    if is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in fields(value):
            item = getattr(value, f.name)
            if item is None and f.metadata.get("omit_if_none"):
                continue
            out[f.name] = jsonable(item)
        return out
    if isinstance(value, dict):
        return {key: jsonable(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def read_json(path):
    """Parse a UTF-8 JSON file; bad bytes or invalid JSON are a ConfigError naming the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(str(path), f"not valid JSON ({exc})") from exc


def write_json(path, value) -> None:
    """Write ``jsonable(value)`` as strict, indented JSON."""
    Path(path).write_text(json.dumps(jsonable(value), indent=2, allow_nan=False) + "\n")
