"""Configuration files and deterministic JSON.

The on-disk format is {"mode": "exact"|"float", "vectors": [[x, y], ...]}
with exact coordinates as strings that fractions.Fraction reads ("p/q" and
"p" through two ints, see _rational) and float coordinates as JSON numbers;
the mode must match the lexical form, checked column by column in C-level
passes. Emission is canonical (keys sorted, floats at 17 digits,
newline terminated, a vector list in one join): equal values, equal bytes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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


# recursive under its own name, so bench/tracing.py's wrapper counts documents
def _dumps(obj) -> str:
    # json.dumps's own str encoder (ensure_ascii) and its three literals
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    # float and int before Fraction, whose isinstance runs the numbers ABC hook
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)  # an IntEnum's repr is not JSON
    if isinstance(obj, Fraction):
        try:  # a witness or step constant, a product of coordinates, may pass the limit
            return '"%s"' % obj
        except ValueError:
            raise ValueError(f"report value past the {sys.get_int_max_str_digits()}-digit limit")
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_dumps(obj[key])}")
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


def _rational(text: str) -> Fraction:
    """Fraction(text): ASCII -?[0-9]+(/[0-9]+)? by two ints, other text by
    Fraction, its exponent and value within the int-string limit that str obeys."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if text.isascii() and digits.isdecimal() and (den.isdecimal() or not slash):
        return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    # Fraction builds 10**|e| first, so |e| of a text it reads (checked with
    # e's digits set to 0) must be within the limit; 0 means no limit
    mantissa, _, e = text.upper().rpartition("E")
    try:
        Fraction(mantissa + "E" + "".join("0" if ch.isdecimal() else ch for ch in e))
        exponent = abs(int(e))
    except ValueError:  # no exponent, or a text that Fraction refuses
        exponent = 0
    limit = getattr(sys, "get_int_max_str_digits", int)()  # none before Python 3.10.7
    if 0 < limit < exponent:
        raise ValueError(f"exponent {exponent} exceeds the limit of {limit} digits")
    value = Fraction(text)
    if 0 < limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ValueError(f"the value exceeds the limit of {limit} digits")
    return value


def _parse_exact(raw, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ConfigFileError(f"{where}: exact mode needs string rationals, got {raw!r}")
    try:
        return _rational(raw)
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
        return [list(map(_rational if mode == EXACT else float, col)) for col in (xs, ys)]
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def parse_config(text: str, source: str = "<string>") -> Configuration:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigFileError(
            f"{source}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # past the interpreter's digit or depth limit
        raise ConfigFileError(f"{source}: {exc}") from exc
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
