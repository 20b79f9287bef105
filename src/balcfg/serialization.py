"""Configuration files and deterministic JSON.

The on-disk format is {"mode": "exact"|"float", "vectors": [[x, y], ...]}
with exact coordinates as strings "p/q" (or "p") and float coordinates as
JSON numbers; the mode must match the lexical form, checked column by column
in C-level passes. Emission is canonical (keys sorted, floats at 17 digits,
newline terminated, a vector list in one join): equal values, equal bytes.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from typing import Union

from .errors import ConfigFileError
from .geometry import EXACT, FLOAT, Configuration


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value}")
    text = format(value, ".17g")
    # canonical zero: never emit the sign of -0.0
    return "0" if text == "-0" else text


def dumps_canonical(obj) -> str:
    """Deterministic JSON text for dicts/lists/str/int/float/Fraction/bool/None."""
    return _dumps(obj)


def _dumps(obj) -> str:
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            items.append(f"{json.dumps(key)}: {_dumps(obj[key])}")
        return "{%s}" % ", ".join(items)
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))  # only floats or only ints: one pass
        item = format_float if kinds == {float} else repr if kinds == {int} else _dumps
        return "[%s]" % ", ".join(map(item, obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def serialize_config(c: Configuration) -> str:
    """dumps_canonical's text of {"mode": ..., "vectors": [[x, y], ...]}, and a newline."""
    if c.mode == EXACT:
        vectors = map('["%s", "%s"]'.__mod__, zip(c.xs, c.ys))
    else:
        # format_float's "%.17g" of the finite columns, where + 0.0 turns -0.0 into 0.0
        vectors = ["[%.17g, %.17g]" % (x + 0.0, y + 0.0) for x, y in zip(c.xs, c.ys)]
    return '{"mode": "%s", "vectors": [%s]}\n' % (c.mode, ", ".join(vectors))


def _parse_exact(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ConfigFileError(f"{where}: exact mode needs string rationals, got {raw!r}")
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigFileError(f"{where}: not a rational: {raw!r} ({exc})") from exc


def _parse_float(raw, where: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigFileError(f"{where}: float mode needs numbers, got {raw!r}")
    try:
        value = float(raw)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigFileError(f"{where}: coordinate {raw!r} is not a finite number")
    return value


def _columns(vectors: list, mode: str):
    """vectors' columns, in C-level passes; None if an entry's shape or
    lexical type is malformed. Member values are Configuration's to test."""
    if set(map(type, vectors)) != {list} or set(map(len, vectors)) != {2}:
        return None
    xs, ys = zip(*vectors)
    if not set(map(type, xs)).union(map(type, ys)) <= ({str} if mode == EXACT else {float, int}):
        return None
    try:
        return [list(map(Fraction if mode == EXACT else float, col)) for col in (xs, ys)]
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def parse_config(text: str, source: str = "<string>") -> Configuration:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigFileError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigFileError(f"{source}: top level must be an object")
    mode = data.get("mode")
    if mode not in (EXACT, FLOAT):
        raise ConfigFileError(f"{source}: mode must be 'exact' or 'float', got {mode!r}")
    vectors = data.get("vectors")
    if not isinstance(vectors, list) or not vectors:
        raise ConfigFileError(f"{source}: vectors must be a nonempty list")
    columns = _columns(vectors, mode)
    if columns is not None:
        try:
            return Configuration(*columns)
        except ValueError:
            pass
    # some entry is malformed: parse entry by entry to name the first one
    parse = _parse_exact if mode == EXACT else _parse_float
    members = []
    for i, entry in enumerate(vectors):
        where = f"{source}: vectors[{i}]"
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigFileError(f"{where}: expected [x, y]")
        x, y = parse(entry[0], where), parse(entry[1], where)
        if x == 0 and y == 0:
            raise ConfigFileError(f"{where}: zero vector not allowed")
        members.append((x, y))
    return Configuration(members)


def load_config(path: Union[str, os.PathLike]) -> Configuration:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigFileError(f"cannot read {path}: {exc}") from exc
    return parse_config(text, source=os.path.basename(str(path)))


def save_config(c: Configuration, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_config(c))
