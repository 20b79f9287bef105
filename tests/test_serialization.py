import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balcfg import Configuration, ConfigFileError, load_config, save_config
from balcfg.serialization import (
    dumps_canonical,
    format_float,
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


def test_exact_round_trip_is_bit_exact():
    c = Configuration([(Fraction(1, 3), Fraction(-2, 7)), (Fraction(0), Fraction(1))])
    text = serialize_config(c)
    again = parse_config(text)
    assert again.mode == "exact"
    assert [v.as_tuple() for v in again] == [v.as_tuple() for v in c]
    assert serialize_config(again) == text


def test_float_round_trip_is_bit_exact():
    c = Configuration([(0.1, -0.2), (1.0, 2.5e-17)])
    text = serialize_config(c)
    again = parse_config(text)
    assert again.mode == "float"
    assert [v.as_tuple() for v in again] == [v.as_tuple() for v in c]
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
    assert parsed[0].as_tuple() == (Fraction(1, 2), Fraction(-3, 7))


def test_parse_rejects_zero_vector():
    with pytest.raises(ConfigFileError):
        parse_config('{"mode": "float", "vectors": [[1.0, 0.0], [0.0, 0.0]]}')


def test_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    c = Configuration([(Fraction(2, 3), Fraction(-1)), (Fraction(1), Fraction(4, 9))])
    save_config(c, path)
    again = load_config(path)
    assert [v.as_tuple() for v in again] == [v.as_tuple() for v in c]
    assert path.read_bytes().endswith(b"\n")
