import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from balcfg.errors import DuplicateArgument
from balcfg.geometry import (
    Configuration,
    PlaneVector,
    det2,
    label_by_increasing_arguments,
    roots_of_unity,
)
import exact_oracle

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


def test_exact_coordinates_are_plain_fractions():
    class Tagged(Fraction):
        pass

    half = Fraction(1, 2)
    v = PlaneVector(half, Tagged(-3, 4))
    # a Fraction is kept as it is; a subclass becomes a plain Fraction
    assert v.x is half
    assert type(v.y) is Fraction and v.y == Fraction(-3, 4)
    assert type(PlaneVector(2, 0).x) is Fraction
    with pytest.raises(TypeError, match="boolean"):
        PlaneVector(True, 0)
    # the same rules hold for a raw pair in a configuration
    c = Configuration([(half, Tagged(-3, 4)), (Fraction(1), Fraction(0))])
    assert c.xs[0] is half
    assert type(c.ys[0]) is Fraction and c.ys[0] == Fraction(-3, 4)
    with pytest.raises(TypeError, match="boolean"):
        Configuration([(True, 0)])
    # a coordinate of neither kind, such as a string, is refused by name
    with pytest.raises(TypeError, match="unsupported coordinate type str"):
        Configuration([("1", 0.0)])


@given(finite, finite, finite, finite)
def test_det2_antisymmetry(ax, ay, bx, by):
    a, b = PlaneVector(ax, ay), PlaneVector(bx, by)
    assert det2(a, b) == -det2(b, a)


@given(rationals, rationals, rationals, rationals, rationals)
def test_det2_scaling_exact(ax, ay, bx, by, s):
    a, b = PlaneVector(ax, ay), PlaneVector(bx, by)
    assert det2(PlaneVector(s * a.x, s * a.y), b) == s * det2(a, b)
    assert det2(a, PlaneVector(s * b.x, s * b.y)) == s * det2(a, b)


def test_det_row_is_computed_afresh_on_every_call():
    c = Configuration([(Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 5), Fraction(0))])
    row = c.det_row(0)
    # entries at scale D^2 = 30^2: det2(v_0, v_1) = -1/15
    assert row == [0, -60]
    row.sort()
    assert c.det_row(0) == [0, -60] and c.det_row(0) is not c.det_row(0)


@pytest.mark.parametrize(
    "vecs",
    [
        # D is the largest denominator, that of the coordinate with an odd
        # 53-bit mantissa at the least exponent
        [(0.1, 3.0), (-2.5, 0.0010000000000000002)],
        # D = 2^1074, at which 1e300 * D passes the float range
        [(5e-324, 1.0), (1e300, -2.0)],
        [(Fraction(1, 3), 2), (Fraction(-5, 7), Fraction(1, 2))],
    ],
    ids=["float", "float-wide-range", "exact"],
)
def test_det_row_holds_ints_at_one_scale_in_both_modes(vecs):
    c = Configuration(vecs)
    xs, ys, scale = c._det_coords
    assert {type(v) for v in (*xs, *ys, scale)} == {int}
    assert [Fraction(x, 1) ** 2 / scale for x in xs] == [Fraction(x) ** 2 for x, _ in vecs]
    (x0, y0), (x1, y1) = (map(Fraction, v) for v in vecs)
    assert c.det_row(0) == [0, (x0 * y1 - y0 * x1) * scale]


def test_lines_are_the_reduced_directions_of_the_scaled_ints():
    c = Configuration([(2, 4), (Fraction(-1, 3), Fraction(-2, 3)), (0, -5), (-3, 0)])
    assert c.lines == ((1, 2), (1, 2), (0, 1), (1, 0))
    # an exact coordinate with no float copy has its line all the same
    big = Fraction(10**400)
    assert Configuration([(big, -2 * big), (-big / 3, big * 2 / 3)]).lines == ((1, -2),) * 2


def test_take_keeps_the_members_and_shares_their_lines():
    # a line does not depend on the common denominator, so the copy of
    # members 3, 0 and 2 (D = 1, where the whole has D = 3) reads its lines
    # off the whole and builds no scaled ints
    c = Configuration([(2, 4), (Fraction(-1, 3), Fraction(-2, 3)), (0, -5), (-3, 0)])
    alone = c.take((3, 0, 2))
    assert alone == Configuration([c[3], c[0], c[2]])
    assert "lines" not in alone.__dict__
    assert alone.lines == (c.lines[3], c.lines[0], c.lines[2]) == ((1, 0), (1, 2), (0, 1))
    sub = c.take((3, 0, 2))
    assert sub == alone and sub.lines == alone.lines
    assert "_det_coords" not in sub.__dict__
    # a float configuration has no lines to share
    assert roots_of_unity(5).take((4, 2)) == Configuration(list(roots_of_unity(5))[4:1:-2])


nonzero_members = st.one_of(
    st.lists(st.tuples(finite, finite), min_size=1, max_size=8),
    st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8),
).map(lambda pairs: [p for p in pairs if p != (0, 0)] or [(1, 2)])


@given(nonzero_members, st.data(), st.booleans())
def test_take_equals_the_constructor_on_the_same_members(pairs, data, with_lines):
    # take builds its copy without the constructor's tests; it must still
    # be the configuration the constructor builds, lines shared where held
    c = Configuration(pairs)
    if with_lines and c.mode == "exact":
        c.lines
    idx = data.draw(st.lists(st.integers(0, c.m - 1), min_size=1, max_size=10))
    sub = c.take(idx)
    expected = Configuration([c.xs[a] for a in idx], [c.ys[a] for a in idx])
    assert sub == expected and (sub.xs, sub.ys) == (expected.xs, expected.ys)
    assert sub.mode == expected.mode == c.mode
    assert ("lines" in sub.__dict__) == ("lines" in c.__dict__)
    if c.mode == "exact":
        assert sub.lines == expected.lines == tuple(c.lines[a] for a in idx)
    with pytest.raises(ValueError) as caught:
        c.take(())
    with pytest.raises(ValueError) as constructor:
        Configuration((), ())
    assert str(caught.value) == str(constructor.value)


def test_det_max_reads_no_diagonal_entry():
    # x*y of v_0 overflows as a float, but the table holds ints: the
    # diagonal entry is 0 and det_max the largest entry, in table units
    for vecs in ([(1e200, 1e200), (0.0, 1.0)], [(1e200, 1e200), (1.0, 0.0)]):
        c = Configuration(vecs)
        assert c.det_row(0)[0] == 0
        # in the first, the largest entry is in row 0, after its diagonal
        assert type(c.det_max) is int and Fraction(c.det_max, c._det_coords[2]) == 1e200
    assert Configuration([(1.0, 0.0)]).det_max == 0
    assert Configuration([(1, 0), (2, 0)]).det_max == 0


# products of 1e200 overflow as floats, where a diagonal entry would be
# inf - inf = NaN; the table's ints hold them exactly
streamed_coords = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e160, 1e-200]),
)


# rows_computed records across examples, so each example clears it first
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.lists(st.tuples(streamed_coords, streamed_coords), min_size=1, max_size=9).filter(
        lambda vecs: (0, 0) not in vecs
    ),
)
# as floats, row 1 opens with inf - inf, and the table's largest entry is
# det(v_1, v_2) = 2e200
@example([(1e200, 1e160), (1e160, 1e200), (-2.0, 1.0)])
def test_det_max_streams_the_table_maximum(rows_computed, vecs):
    c = Configuration(vecs)
    rows_computed.clear()
    # the exact table's maximum, from each row computed once, in order
    assert c.det_max == exact_oracle.table(c).det_max
    assert rows_computed == [(c.m, i) for i in range(c.m)]


def argument(v):
    """v's polar argument, read off the configuration of v alone."""
    return Configuration([v]).arguments[0]


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


def _ref_argument(x, y):
    """The scalar fold, one member at a time: the reference that
    Configuration.arguments is tested against."""
    theta = math.atan2(float(y), float(x))
    if theta < 0.0:
        theta += 2.0 * math.pi
    # atan2(-tiny, x) + 2*pi can round to 2*pi itself; fold back.
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return theta


# signed zeros, the smallest subnormal (atan2(-5e-324, x) + 2*pi rounds to
# 2*pi itself and folds to 0), and the ends of the float range
edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1.0, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    st.one_of(
        st.lists(st.tuples(edge_floats, edge_floats), min_size=1, max_size=8),
        st.lists(st.tuples(rationals, rationals), min_size=1, max_size=8),
    ).filter(lambda vecs: (0, 0) not in vecs)
)
@example([(1.0, -0.0), (-1.0, -0.0), (1.0, -5e-324), (-0.0, -1.0)])
def test_argument_column_is_bit_identical_to_argument(vecs):
    c = Configuration(vecs)
    assert list(map(repr, c.arguments)) == [repr(_ref_argument(x, y)) for x, y in zip(c.xs, c.ys)]


def test_argument_fold_cases():
    # atan2(-0.0, 1.0) is -0.0, which the fold keeps; atan2(-5e-324, 1.0)
    # + 2*pi rounds to 2*pi, which folds to 0.0
    c = Configuration([(1.0, -0.0), (1.0, -5e-324), (-1.0, -0.0)])
    assert list(map(repr, c.arguments)) == ["-0.0", "0.0", repr(math.pi)]


def test_labeling_is_computed_once_per_member_set():
    c = Configuration([(0.0, 1.0), (1.0, 0.0), (-1.0, -1.0)])
    labeled = label_by_increasing_arguments(c)
    assert label_by_increasing_arguments(c) is labeled
    assert label_by_increasing_arguments(labeled) is labeled


def test_configuration_rejects_zero_vector():
    with pytest.raises(ValueError, match="member 1 is the zero vector"):
        Configuration([PlaneVector(1.0, 0.0), PlaneVector(0.0, 0.0)])
    with pytest.raises(ValueError, match="member 1 is the zero vector"):
        Configuration([(1.0, 0.0), (0.0, 0.0)])


def test_configuration_rejects_mixed_modes():
    with pytest.raises(ValueError, match="mixes exact and float"):
        Configuration([PlaneVector(1.0, 0.0), PlaneVector(Fraction(1), Fraction(1))])
    with pytest.raises(ValueError, match="mixes exact and float"):
        Configuration([(1.0, 0.0), (Fraction(1), Fraction(1))])


def test_configuration_accepts_raw_pairs():
    c = Configuration([(1, 0), (0, 1), (-1, -1)])
    assert c.m == 3
    assert c.mode == "exact"
    assert c.n == 1
    # a pair with one float coordinate is a float pair
    f = Configuration([(1.0, Fraction(1)), (0.5, -2.0)])
    assert f.mode == "float"
    assert all(type(x) is float for x in f.xs + f.ys)
    assert f.xs == (1.0, 0.5) and f.ys == (1.0, -2.0)
    # pairs and PlaneVectors make equal configurations with equal hashes,
    # and the members come back as equal PlaneVectors every way they are read
    vectors = [PlaneVector(1, 0), PlaneVector(0, 1), PlaneVector(-1, -1)]
    assert c == Configuration(vectors) and hash(c) == hash(Configuration(vectors))
    assert list(c.vectors) == list(c) == [c[i] for i in range(c.m)] == vectors


def test_configuration_takes_columns():
    c = Configuration([1.0, 0.0, -1.0], [0.0, 1.0, -1.0])
    assert c == Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)])
    assert c.xs == (1.0, 0.0, -1.0) and c.ys == (0.0, 1.0, -1.0)
    # columns that are not all floats or all Fractions are coerced per member
    e = Configuration([1, Fraction(1, 2)], [0, 3])
    assert e.mode == "exact" and e.xs == (Fraction(1), Fraction(1, 2))
    assert all(type(v) is Fraction for v in e.xs + e.ys)
    f = Configuration([1, 0.5], [0.25, 2])
    assert f.mode == "float" and f.xs == (1.0, 0.5) and f.ys == (0.25, 2.0)
    with pytest.raises(ValueError, match="member 2 is the zero vector"):
        Configuration([1.0, 0.0, -0.0], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="mixes exact and float"):
        Configuration([1.0, Fraction(1)], [0.0, Fraction(1)])
    with pytest.raises(ValueError, match="equal columns"):
        Configuration([1.0, 0.0], [0.0])
    with pytest.raises(ValueError, match="at least one vector"):
        Configuration([], [])
    with pytest.raises(TypeError, match="boolean"):
        Configuration([True, 1.0], [0.0, 1.0])


def _from_plane_vectors(vecs):
    return Configuration([PlaneVector(x, y) for x, y in vecs])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda vecs: Configuration([x for x, _ in vecs], [y for _, y in vecs]),
        Configuration,
        _from_plane_vectors,
    ],
    ids=["columns", "pairs", "plane_vectors"],
)
def test_configuration_refuses_a_coordinate_that_is_not_finite(build, bad):
    # the constructor is the one test of member values: no verdict, render
    # or serialization can be reached with a NaN or an infinite member; a
    # PlaneVector member refuses itself first and names the vector
    for vecs, i, pair in (
        ([(1.0, 0.0), (bad, 0.0), (0.0, 1.0)], 1, f"\\({bad!r}, 0.0\\)"),
        ([(1.0, 0.0), (0.0, 1.0), (-1.0, bad)], 2, f"\\(-1.0, {bad!r}\\)"),
        ([(bad, 2), (0.5, 1)], 0, f"\\({bad!r}, 2.0\\)"),
    ):
        named = f"configuration member {i} {pair}"
        if build is _from_plane_vectors:
            named = f"vector {pair}"
        with pytest.raises(ValueError, match=f"^{named} is not finite$"):
            build(vecs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plane_vector_refuses_a_coordinate_that_is_not_finite(bad):
    # after coercion: an int beside a non-finite float is a float too
    for x, y, pair in (
        (bad, 1.0, f"{bad!r}, 1.0"), (1, bad, f"1.0, {bad!r}"), (bad, bad, f"{bad!r}, {bad!r}")
    ):
        with pytest.raises(ValueError, match=f"^vector \\({pair}\\) is not finite$"):
            PlaneVector(x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda bad: det2(PlaneVector(bad, 1.0), PlaneVector(0.0, 1.0)),
        lambda bad: det2(PlaneVector(1.0, 0.0), PlaneVector(1.0, bad)),
        lambda bad: argument(PlaneVector(bad, 1.0)),
        lambda bad: argument(PlaneVector(1.0, bad)),
    ],
    ids=["det2-first", "det2-second", "argument-x", "argument-y"],
)
def test_det2_and_argument_refuse_a_vector_that_is_not_finite(call, bad):
    # no NaN or infinite vector can be built, so det2 and argument never
    # read one
    with pytest.raises(ValueError, match=r"^vector \(.*\) is not finite$"):
        call(bad)


BIG, TINY = Fraction(10**400), Fraction(1, 10**400)


@pytest.mark.parametrize(
    "members, message",
    [
        # member 0 underflows and member 1 overflows: member 0 is named
        (
            [(TINY, 0), (BIG, 1), (1, 1)],
            f"exact coordinates ({TINY}, 0) have no nonzero float copy",
        ),
        ([(1, 0), (-BIG, 1), (TINY, TINY)], f"exact x coordinate {-BIG} does not fit a float"),
        ([(1, 0), (1, BIG), (TINY, 0)], f"exact y coordinate {BIG} does not fit a float"),
        (
            [(1, 0), (0, -TINY), (1, -BIG)],
            f"exact coordinates (0, {-TINY}) have no nonzero float copy",
        ),
        # in one member, the overflow test comes first, on the larger axis
        ([(TINY, -BIG), (1, 1)], f"exact y coordinate {-BIG} does not fit a float"),
        ([(BIG, BIG), (1, 1)], f"exact x coordinate {BIG} does not fit a float"),
    ],
)
def test_float_copy_names_the_first_member_that_has_none(members, message):
    with pytest.raises(ValueError) as refused:
        Configuration(members).as_float()
    assert str(refused.value) == message


def test_relabeled_copy_shares_the_member_set_memo():
    c = Configuration([(0.0, 1.0), (1.0, 0.0), (-1.0, -1.0)])
    calls = []

    def norms(cfg):
        calls.append(cfg)
        return max(map(abs, cfg.xs + cfg.ys))

    labeled = label_by_increasing_arguments(c)
    assert labeled.xs == (1.0, 0.0, -1.0)
    assert labeled.per_member_set(norms) == c.per_member_set(norms) == 1.0
    assert calls == [labeled]
    assert labeled.arguments == tuple(sorted(c.arguments))


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


def test_roots_of_unity_frozen_m5():
    u5 = roots_of_unity(5)
    assert u5.m == 5
    for k, v in enumerate(u5):
        assert math.isclose(v.x, math.cos(2 * math.pi * k / 5), abs_tol=1e-15)
        assert math.isclose(v.y, math.sin(2 * math.pi * k / 5), abs_tol=1e-15)
        assert math.isclose(math.hypot(v.x, v.y), 1.0, abs_tol=1e-15)


def test_roots_of_unity_rejects_even_and_nonpositive():
    with pytest.raises(ValueError):
        roots_of_unity(4)
    with pytest.raises(ValueError):
        roots_of_unity(0)
    assert roots_of_unity(1).m == 1
