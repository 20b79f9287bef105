import fractions
import json
import math
import sys
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from balcfg.errors import ConfigFileError
from balcfg.geometry import Configuration
from balcfg.serialization import (
    _rational,
    dumps_canonical,
    format_float,
    load_config,
    parse_config,
    serialize_config,
)


def test_format_float_frozen():
    assert format_float(1.0) == "1"
    assert format_float(-0.0) == "0"
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-1.618033988749895) == "-1.6180339887498949"


def test_format_float_rejects_non_finite():
    with pytest.raises(ValueError):
        format_float(math.inf)
    with pytest.raises(ValueError):
        format_float(math.nan)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == (0.0 if x == 0 else x)


def test_dumps_canonical_sorts_keys():
    text = dumps_canonical({"b": 1, "a": [1.5, "x"], "c": {"z": None, "y": True}})
    assert text == '{"a": [1.5, "x"], "b": 1, "c": {"y": true, "z": null}}'


def test_dumps_canonical_quotes_fractions():
    assert dumps_canonical({"v": Fraction(-1, 3)}) == '{"v": "-1/3"}'


class Level(IntEnum):
    LOW = 1


def test_dumps_canonical_writes_an_int_subclass_as_its_int():
    # repr(Level.LOW) is "<Level.LOW: 1>"; a list of exact ints alone takes
    # the list's fast path
    obj = {"a": Level.LOW, "b": [Level.LOW, 2], "c": [Level.LOW]}
    assert json.loads(dumps_canonical(obj)) == json.loads(json.dumps(obj))


def test_exact_round_trip_is_bit_exact():
    c = Configuration([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(0), Fraction(1))])
    text = serialize_config(c)
    again = parse_config(text)
    assert again.mode == "exact"
    assert [tuple(v) for v in again] == [tuple(v) for v in c]
    assert serialize_config(again) == text


def test_float_round_trip_is_bit_exact():
    c = Configuration([(0.1, -0.2), (1.0, 2.5e-17)])
    text = serialize_config(c)
    again = parse_config(text)
    assert again.mode == "float"
    assert [tuple(v) for v in again] == [tuple(v) for v in c]
    assert serialize_config(again) == text


def test_serialized_form_is_newline_terminated():
    c = Configuration([(1, 0), (0, 1), (-1, -1)])
    assert serialize_config(c).endswith("\n")


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigFileError) as info:
        parse_config('{"mode": "float", "vectors": [[1, 2],]}')
    assert "line" in str(info.value)


def test_parse_rejects_wrong_shape():
    with pytest.raises(ConfigFileError):
        parse_config('{"vectors": [[1, 0]]}')
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "float", "vectors": [[1, 0, 3]]}')
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "half", "vectors": [[1, 0]]}')
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "float", "vectors": []}')
    for literal in ("NaN", "Infinity", "1e400", "1" + "0" * 400):
        with pytest.raises(ConfigFileError):
            parse_config('{"mode": "float", "vectors": [[1, 0], [%s, 1]]}' % literal)


def test_parse_enforces_lexical_mode():
    # exact entries must be rational strings, float entries must be numbers
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "exact", "vectors": [[0.5, "1/2"]]}')
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "float", "vectors": [["1/2", 0.5]]}')
    parsed = parse_config('{"mode": "exact", "vectors": [["1/2", "-3/7"], ["1", "0"]]}')
    assert tuple(parsed[0]) == (Fraction(1, 2), Fraction(-3, 7))


def test_parse_rejects_zero_vector():
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "float", "vectors": [[1.0, 0.0], [0.0, 0.0]]}')


def test_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    c = Configuration([(Fraction(2, 3), Fraction(-1)), (Fraction(1), Fraction(4, 9))])
    path.write_text(serialize_config(c))
    again = load_config(path)
    assert [tuple(v) for v in again] == [tuple(v) for v in c]
    assert path.read_bytes().endswith(b"\n")


# The emitter that serialize_config and dumps_canonical replaced, kept as the
# reference both are compared with: one recursive call per value.
def _ref_emit(obj, out: list) -> None:
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
            _ref_emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(", ")
            _ref_emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _ref_dumps_canonical(obj) -> str:
    pieces: list = []
    _ref_emit(obj, pieces)
    return "".join(pieces)


def _ref_serialize_config(c: Configuration) -> str:
    # dumps_canonical(config_to_jsonable(c)) + "\n"
    return _ref_dumps_canonical({"mode": c.mode, "vectors": list(zip(c.xs, c.ys))}) + "\n"


EXTREME_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.618033988749895,
]
any_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_FLOATS)
big_fraction = st.builds(
    Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**60)
) | st.fractions()


def _nonzero_members(pairs):
    return [(x, y) for x, y in pairs if x or y]


@given(st.lists(st.tuples(any_float, any_float), min_size=1, max_size=40))
@example([(-0.0, -0.0), (-0.0, 5e-324), (1.7976931348623157e308, -1.7976931348623157e308)])
def test_serialize_float_config_matches_reference(pairs):
    members = _nonzero_members(pairs)
    if not members:
        return
    c = Configuration(members)
    text = serialize_config(c)
    assert text == _ref_serialize_config(c)
    assert parse_config(text) == Configuration([(x + 0.0, y + 0.0) for x, y in members])


@given(st.lists(st.tuples(big_fraction, big_fraction), min_size=1, max_size=20))
@example([(Fraction(10**400 + 1, 3), Fraction(-(10**300), 10**60 - 1)), (Fraction(0), -1)])
def test_serialize_exact_config_matches_reference(pairs):
    members = _nonzero_members(pairs)
    if not members:
        return
    c = Configuration(members)
    text = serialize_config(c)
    assert text == _ref_serialize_config(c)
    assert parse_config(text) == c


json_leaves = (
    st.none() | st.booleans() | st.integers() | any_float | big_fraction | st.text(max_size=5)
)
json_trees = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@given(json_trees)
def test_dumps_canonical_matches_reference(obj):
    assert dumps_canonical(obj) == _ref_dumps_canonical(obj)


# every code point, lone surrogates and control characters included
any_text = st.text(st.characters(exclude_categories=()))


@given(any_text, any_text)
@example('"\\', "\x00\x1f\x7f")
@example("\u00e9\u4e2d", "\U0001f600")
@example("\ud800", "\udfff")
def test_dumps_canonical_writes_a_str_as_json_dumps_does(key, value):
    assert dumps_canonical(value) == json.dumps(value)
    assert dumps_canonical({key: value}) == json.dumps({key: value})


def _element_path(obj) -> str:
    # the element path: every element through dumps_canonical's whole dispatch
    return "[%s]" % ", ".join(map(dumps_canonical, obj))


number_lists = (
    st.lists(any_float)
    | st.lists(st.integers() | st.integers(-(2**200), 2**200))
    | st.lists(st.booleans())
    | st.lists(st.integers() | any_float | st.booleans() | big_fraction)
)


@given(number_lists, st.booleans())
@example([-0.0, 0.0, 5e-324, -1.7976931348623157e308], False)
@example([2**64, -(2**64) - 1, 0, -1], True)
@example([True, False], False)
@example([1, 1.0, True, Fraction(1, 3)], True)
@example([], False)
def test_dumps_canonical_formats_a_number_list_as_element_by_element(items, as_tuple):
    obj = tuple(items) if as_tuple else items
    assert dumps_canonical(obj) == _element_path(obj) == _ref_dumps_canonical(obj)


@pytest.mark.parametrize("obj", [[1.0, math.nan], [math.inf], (-math.inf, 2.0)])
def test_dumps_canonical_refuses_a_non_finite_float_in_a_list(obj):
    bad = next(x for x in obj if not math.isfinite(x))
    with pytest.raises(ValueError, match=f"^cannot serialize non-finite float {bad}$"):
        dumps_canonical(obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"a": {2: "b"}}, "JSON object keys must be str, got int"),
        ([1, {"a": b"x"}], "cannot serialize bytes"),
    ],
)
def test_dumps_canonical_refuses_what_json_cannot_hold(obj, message):
    for dumps in (dumps_canonical, _ref_dumps_canonical):
        with pytest.raises(TypeError, match=f"^{message}$"):
            dumps(obj)


FLOAT_FILE = '{"mode": "float", "vectors": [[1.5, 0.5], %s, [0.25, -1.0]]}'
EXACT_FILE = '{"mode": "exact", "vectors": [["1/2", "1"], %s, ["-1", "3"]]}'
HUGE_INT = "9" * 400

# parse_config's messages for entry 1 of a file, as the per-entry parser
# words them
MALFORMED = [
    (FLOAT_FILE % "[true, 1.0]", "float mode needs numbers, got True"),
    (FLOAT_FILE % '["1/2", 1.0]', "float mode needs numbers, got '1/2'"),
    (FLOAT_FILE % "[null, 1.0]", "float mode needs numbers, got None"),
    (EXACT_FILE % '[0.5, "1"]', "exact mode needs string rationals, got 0.5"),
    (EXACT_FILE % '["1", 2]', "exact mode needs string rationals, got 2"),
    (EXACT_FILE % '["1", true]', "exact mode needs string rationals, got True"),
    (FLOAT_FILE % "[NaN, 1.0]", "coordinate nan is not a finite number"),
    (FLOAT_FILE % "[1.0, Infinity]", "coordinate inf is not a finite number"),
    (FLOAT_FILE % "[-Infinity, 1.0]", "coordinate -inf is not a finite number"),
    (FLOAT_FILE % "[1e400, 1.0]", "coordinate inf is not a finite number"),
    (FLOAT_FILE % f"[1.0, {HUGE_INT}]", f"coordinate {HUGE_INT} is not a finite number"),
    (EXACT_FILE % '["1/0", "1"]', "not a rational: '1/0' (Fraction(1, 0))"),
    (EXACT_FILE % '["abc", "1"]', "not a rational: 'abc' (Invalid literal for Fraction: 'abc')"),
    (FLOAT_FILE % "[1.0]", "expected [x, y]"),
    (FLOAT_FILE % "[1.0, 2.0, 3.0]", "expected [x, y]"),
    (FLOAT_FILE % '{"x": 1.0}', "expected [x, y]"),
    (FLOAT_FILE % "7", "expected [x, y]"),
    (FLOAT_FILE % "[0, -0.0]", "zero vector not allowed"),
    (EXACT_FILE % '["0", "-0/5"]', "zero vector not allowed"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_parse_names_the_first_malformed_entry(text, message):
    with pytest.raises(ConfigFileError) as info:
        parse_config(text, "f.json")
    assert str(info.value) == f"f.json: vectors[1]: {message}"


def test_parse_names_the_first_entry_in_file_order():
    # entry 0 is a zero vector and entry 1 does not fit a float: entry 0 is named
    text = '{"mode": "float", "vectors": [[0.0, 0.0], [1e400, 1.0]]}'
    with pytest.raises(ConfigFileError, match=r"^f.json: vectors\[0\]: zero vector not allowed$"):
        parse_config(text, "f.json")


def test_parse_reads_ints_in_float_mode_as_floats():
    c = parse_config('{"mode": "float", "vectors": [[1, 0], [0, -2], [3, 4]]}')
    assert c.mode == "float"
    assert c.xs == (1.0, 0.0, 3.0) and c.ys == (0.0, -2.0, 4.0)
    assert all(type(v) is float for v in c.xs + c.ys)


def _outcome(parse, text):
    """The value and its type, or the exception's type and text."""
    try:
        value = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


LONG_DIGITS = "7" * 5000  # past the default int-string limit of 4300 digits
digit_runs = st.text("0123456789", min_size=1, max_size=30)
signs = st.sampled_from(["", "-", "+", "--", " ", "-_"])
# the documented forms "p" and "p/q", and what Fraction also reads or refuses
# near them: signs, whitespace, "_", ".", "e", non-ASCII digits, empty parts
rational_texts = st.one_of(
    st.builds("{}{}".format, signs, digit_runs),
    st.builds("{}{}/{}{}".format, signs, digit_runs, signs, digit_runs),
    st.lists(
        st.sampled_from(["0", "1", "12", "-", "+", "/", " ", "\t", "_", ".", "e", "E", "\u0663"]),
        max_size=8,
    ).map("".join),
)


@given(rational_texts)
@example("-")
@example("")
@example("/")
@example("1/")
@example("/1")
@example("1/0")
@example("-1/0")
@example("-0/0")
@example("--1")
@example("+1")
@example(" 1 ")
@example("1_0")
@example("1_0/1_0")
@example("0.5")
@example("-1e0")
@example("1e-3")
@example("\u0663")
@example("1/\u0663")
@example("1/2/3")
@example(LONG_DIGITS)
@example("-" + LONG_DIGITS)
@example("1/" + LONG_DIGITS)
@example(LONG_DIGITS + "/0")
@example("2.5e3")
@example("1e-5")
@example("1.5")
@example("1e4300")
@example("1e4299")
@example("-1E-4300")
@example("1e-4299")
@example("1.5e4299")
@example("0.5e-4299")
@example("1" * 4000 + ".5e3000")
@example("-1E-4301")
@example("1e4_301")
@example("1e 4301")
@example("1/1e4301")
@example("..1e4301")
@example("E4301")
def test_rational_reads_a_string_as_fraction_does(text):
    # where Fraction would first build 10**|e| with |e| past the int-string
    # limit, _rational refuses the text at once; Fraction's own grammar says
    # where. A value that str cannot write back, its numerator or denominator
    # past the limit (as 10**4300 is, or the mantissa's digits times 10**e),
    # is refused too; every value that _rational returns, str writes
    limit = sys.get_int_max_str_digits()
    match = fractions._RATIONAL_FORMAT.match(text)
    exponent = abs(int(match["exp"])) if match and match["exp"] else 0
    if exponent > limit:
        message = f"exponent {exponent} exceeds the limit of {limit} digits"
        assert _outcome(_rational, text) == (ValueError, message)
        return
    expected = _outcome(Fraction, text)
    if expected[0] is Fraction:
        try:
            str(expected[1])
        except ValueError:
            expected = (ValueError, f"the value exceeds the limit of {limit} digits")
    assert _outcome(_rational, text) == expected
    if expected[0] is Fraction:
        assert Fraction(str(_rational(text))) == expected[1]


def test_json_nested_past_the_recursion_limit_is_a_config_file_error():
    # json.loads raises RecursionError, which would escape as an internal error
    config = '{"mode": "float", "vectors": %s%s}' % ("[" * 100_000, "]" * 100_000)
    with pytest.raises(ConfigFileError, match=r"^cfg\.json: maximum recursion depth exceeded"):
        parse_config(config, "cfg.json")


def test_an_int_past_the_limit_is_a_config_file_error():
    # json.loads refuses it with a bare ValueError, not a JSONDecodeError
    config = '{"mode": "float", "vectors": [[%s, 0]]}' % ("1" * 5000)
    with pytest.raises(ConfigFileError, match=r"^cfg\.json: Exceeds the limit"):
        parse_config(config, "cfg.json")


TWIN = [["1/2", "-3/4"], ["-1", "0"], ["10", "1/8"]]


@pytest.mark.parametrize(
    "vectors",
    [
        [["0.5", "-0.75"], ["-1e0", "0.0"], ["1E1", "125e-3"]],
        [["+1/2", "-3/4"], ["-1", "+0"], ["+10", "+1/8"]],
        [["2/4", " -6/8 "], ["-0001", "-0"], ["10/1", "0.125"]],
        pytest.param(
            [["1/2", "-3_0/4_0"], ["-1", "0"], ["1_0", "1/8"]],
            marks=pytest.mark.skipif(
                sys.version_info < (3, 11), reason="Fraction reads '_' from Python 3.11"
            ),
        ),
    ],
)
def test_load_config_reads_other_fraction_forms_as_their_p_q_twin(tmp_path, vectors):
    twin, other = tmp_path / "twin.json", tmp_path / "other.json"
    twin.write_text(json.dumps({"mode": "exact", "vectors": TWIN}))
    other.write_text(json.dumps({"mode": "exact", "vectors": vectors}))
    assert load_config(other) == load_config(twin)
    assert serialize_config(load_config(other)) == serialize_config(load_config(twin))
