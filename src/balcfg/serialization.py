"""Configuration files and deterministic JSON.

The on-disk format is {"mode": "exact"|"float", "vectors": [[x, y], ...]}
with exact coordinates as strings "p/q" (or "p") and float coordinates as
JSON numbers; the mode must match the lexical form. Emission is canonical:
keys sorted, floats at 17 significant digits (round-trip exact), newline
terminated, so equal values always produce equal bytes.
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
    pieces: list = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list) -> None:
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, Fraction):
        out.append(json.dumps(str(obj)))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            if pos:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def config_to_jsonable(c: Configuration) -> dict:
    # _emit quotes an exact coordinate as its "p/q" string
    return {"mode": c.mode, "vectors": list(zip(c.xs, c.ys))}


def serialize_config(c: Configuration) -> str:
    return dumps_canonical(config_to_jsonable(c)) + "\n"


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
