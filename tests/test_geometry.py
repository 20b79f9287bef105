import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balcfg import (
    Configuration,
    DuplicateArgument,
    PlaneVector,
    argument,
    cyclic_index,
    det2,
    label_by_increasing_arguments,
    roots_of_unity,
    unit_vector,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
rationals = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=64
)


def test_det2_frozen_values():
    assert det2(PlaneVector(1.0, 0.0), PlaneVector(0.6, 0.8)) == 0.8
    exact = det2(
        PlaneVector(Fraction(1, 2), Fraction(1, 3)),
        PlaneVector(Fraction(1, 5), Fraction(1, 7)),
    )
    assert exact == Fraction(1, 2) * Fraction(1, 7) - Fraction(1, 3) * Fraction(1, 5)
    assert isinstance(exact, Fraction)


def test_det2_mode_mismatch():
    with pytest.raises(ValueError, match="different modes"):
        det2(PlaneVector(Fraction(1), Fraction(0)), PlaneVector(0.5, 0.5))


def test_int_coordinates_become_exact():
    v = PlaneVector(1, -2)
    assert v.mode == "exact"
    assert v.x == Fraction(1) and v.y == Fraction(-2)
    # any float pulls the whole vector into float mode
    w = PlaneVector(1, 0.5)
    assert w.mode == "float"
    assert isinstance(w.x, float)


@given(finite, finite, finite, finite)
def test_det2_antisymmetry(ax, ay, bx, by):
    a, b = PlaneVector(ax, ay), PlaneVector(bx, by)
    assert det2(a, b) == -det2(b, a)


@given(rationals, rationals, rationals, rationals, rationals)
def test_det2_scaling_exact(ax, ay, bx, by, s):
    a, b = PlaneVector(ax, ay), PlaneVector(bx, by)
    assert det2(a.scale(s), b) == s * det2(a, b)
    assert det2(a, b.scale(s)) == s * det2(a, b)


def test_det_max_reads_no_diagonal_entry():
    # x*y of v_0 overflows, so its diagonal entry x*y - y*x is inf - inf
    for vecs in ([(1e200, 1e200), (0.0, 1.0)], [(1e200, 1e200), (1.0, 0.0)]):
        c = Configuration(vecs)
        assert math.isnan(c.det_table[0][0])
        # in the first, the largest entry is in row 0, after its diagonal
        assert c.det_max == 1e200
    assert repr(Configuration([(1.0, 0.0)]).det_max) == "0.0"
    assert Configuration([(1, 0), (2, 0)]).det_max == Fraction(0)


def test_argument_frozen_values():
    assert argument(PlaneVector(1.0, 0.0)) == 0.0
    assert math.isclose(
        argument(PlaneVector(-0.5, -math.sqrt(3) / 2)), 4 * math.pi / 3
    )
    assert argument(PlaneVector(0.0, 1.0)) == math.pi / 2


def test_argument_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        argument(PlaneVector(0.0, 0.0))


@given(finite, finite)
def test_argument_range(x, y):
    if x == 0 and y == 0:
        return
    a = argument(PlaneVector(x, y))
    assert 0.0 <= a < 2 * math.pi


def test_unit_vector_round_trip():
    for theta in (0.0, 1.0, 2.5, 4.0, 6.0):
        assert math.isclose(argument(unit_vector(theta)), theta, abs_tol=1e-12)


def test_configuration_rejects_zero_vector():
    with pytest.raises(ValueError, match="member 1 is the zero vector"):
        Configuration([PlaneVector(1.0, 0.0), PlaneVector(0.0, 0.0)])


def test_configuration_rejects_mixed_modes():
    with pytest.raises(ValueError, match="mixes exact and float"):
        Configuration([PlaneVector(1.0, 0.0), PlaneVector(Fraction(1), Fraction(1))])


def test_configuration_accepts_raw_pairs():
    c = Configuration([(1, 0), (0, 1), (-1, -1)])
    assert c.m == 3
    assert c.mode == "exact"
    assert c.n == 1


def test_n_requires_odd_size():
    c = Configuration([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert c.m == 4
    with pytest.raises(ValueError):
        c.n


def test_label_by_increasing_arguments_sorts_a_scramble():
    u5 = roots_of_unity(5)
    scrambled = Configuration([u5[3], u5[0], u5[4], u5[1], u5[2]])
    labeled = label_by_increasing_arguments(scrambled)
    args = [argument(v) for v in labeled]
    assert args == sorted(args)
    assert list(labeled) == [scrambled[i] for i in (1, 3, 4, 0, 2)]
    assert list(labeled) == list(u5)


def test_label_rejects_duplicate_direction():
    # same direction at different length still collides in argument
    c = Configuration([(1.0, 0.0), (2.0, 0.0), (0.0, 1.0)])
    with pytest.raises(DuplicateArgument):
        label_by_increasing_arguments(c)


def test_label_duplicate_check_wraps_cyclically():
    c = Configuration([(1.0, 1e-15), (1.0, -1e-15), (-1.0, 0.5)])
    with pytest.raises(DuplicateArgument):
        label_by_increasing_arguments(c)


@given(st.integers(-1000, 1000), st.integers(1, 50))
def test_cyclic_index_wraps(k, m):
    idx = cyclic_index(k, m)
    assert 0 <= idx < m
    assert (idx - k) % m == 0
    assert cyclic_index(k + m, m) == idx


def test_roots_of_unity_frozen_m5():
    u5 = roots_of_unity(5)
    assert u5.m == 5
    for k, v in enumerate(u5):
        assert math.isclose(v.x, math.cos(2 * math.pi * k / 5), abs_tol=1e-15)
        assert math.isclose(v.y, math.sin(2 * math.pi * k / 5), abs_tol=1e-15)
        assert math.isclose(v.norm(), 1.0, abs_tol=1e-15)


def test_roots_of_unity_rejects_even_and_nonpositive():
    with pytest.raises(ValueError):
        roots_of_unity(4)
    with pytest.raises(ValueError):
        roots_of_unity(0)
    assert roots_of_unity(1).m == 1
