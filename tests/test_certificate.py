"""The certificate-first verdicts against the full exact table.

The reference is tests/exact_oracle.py: the whole exact determinant table of
the rationals the coordinates hold, with the default tolerance taken from its
largest entry, reading 1e-9 and an explicit tolerance as the rationals they
hold too, and every verdict decided on it, as the verdicts would without
reading rows on demand, bracketing their tolerance, bounding uniformity by
the gaps between lines, and certifying GL2 images of U_m by the canonical
map's residual. A witness is det2 of the pair that decided. Every verdict,
witness and certificate must match it exactly.
"""

import math
import random
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import neg
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from balcfg import balance
from balcfg.balance import (
    BOUND_SLACK,
    DEFAULT_REL_TOL,
    RESIDUAL_TOL,
    SAFE_COORDINATE_RANGE,
    TARGET_ERR,
    UNIT_ROUNDOFF,
    CanonicalForm,
    _Bracket,
    _negation_closed,
    _residual_bounds,
    canonicalize,
    in_safe_range,
    is_balanced,
    is_uniform,
    norm_sq_bound,
    step_constants,
)
from balcfg.cli import main
from balcfg.errors import (
    BalcfgError,
    NotBalanced,
    NotUniform,
    ResidualTooLarge,
)
from balcfg.geometry import (
    Configuration,
    LinearMap2,
    PlaneVector,
    frame_map,
    label_by_increasing_arguments,
    roots_of_unity,
)
from balcfg.search import perturb, random_invertible
from balcfg.serialization import serialize_config
import exact_oracle
from paper_lemmas import (
    GRID_TOL,
    NotNormalized,
    match_grid_index,
    slot_exponents,
    verify_antisymmetry,
)
from test_libm import DIGITS, exact_root

DATA = Path(__file__).parent / "data"


def _ref_antisymmetry(c, tol):
    table = exact_oracle.table(c)
    eff = table.tolerance(tol)
    m, n = c.m, c.n
    for k in range(m):
        for a in range(1, n + 1):
            if abs(table.rows[k][(k + a) % m] + table.rows[k][(k - a) % m]) > eff:
                return False, (k, a)
    return True, None


def _ref_canonicalize(c, tol):
    work = c.as_float()
    scale = max(math.hypot(v.x, v.y) for v in work)
    s = 1.0 / scale
    work = Configuration([(s * v.x, s * v.y) for v in work])
    balanced, witness = exact_oracle.is_balanced(work)
    if not balanced:
        raise NotBalanced("", witness=witness)
    uniform, pair = exact_oracle.is_uniform(work)
    if not uniform:
        raise NotUniform("", witness=pair)
    g, k, exponents, residual = _ref_route(work)
    assert (k, exponents) == (work.n, tuple(range(work.m)))
    if residual > tol:
        raise ResidualTooLarge("", witness=residual)
    return g.scale(1.0 / scale).rows(), residual


def _root(m, e):
    """w^e as cos and sin of 2 pi e / m, evaluated here, apart from roots_of_unity."""
    theta = 2.0 * math.pi * e / m
    return PlaneVector(math.cos(theta), math.sin(theta))


def _ref_route(work):
    """The general grid route on work (paper_lemmas): y checked against -1,
    t_C matched against every t_k, and slot j sent to the k-th diagram's
    exponent."""
    labeled = label_by_increasing_arguments(work)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    t_c, y = g_frame.apply(labeled[n + 1])
    if abs(y + 1) > GRID_TOL:
        raise NotNormalized(f"g.v_next has y = {y}, not -1", witness=y)
    k = match_grid_index(t_c, m)
    g = frame_map(PlaneVector(1.0, 0.0), _root(m, k)).inverse()
    g = g.compose(g_frame)
    exponents = slot_exponents(m, k)
    if math.gcd(k, m) != 1:
        raise ResidualTooLarge("exponent assignment is not a bijection", witness=exponents)
    targets = [_root(m, e) for e in exponents]
    residual = max(
        math.hypot(p.x - q.x, p.y - q.y) for p, q in zip(map(g.apply, labeled), targets)
    )
    return g, k, exponents, residual


@pytest.mark.parametrize("det_sign", [1, -1])
def test_the_general_grid_route_takes_k_n_and_sends_slot_j_to_w_j(det_sign):
    # labeled by argument, every GL2 image of U_m is v_j = L w^j for one
    # linear L, so the route that searches the whole grid finds k = n and
    # the identity assignment, the one candidate that canon's route tests
    flip = LinearMap2(1.0, 0.0, 0.0, -1.0)
    for m in range(3, 202, 2):
        g = random_invertible(seed=m)
        if (g.det() > 0) != (det_sign > 0):
            g = g.compose(flip)
        vecs = list(g.apply_configuration(roots_of_unity(m)))
        random.Random(m).shuffle(vecs)
        c = Configuration(vecs)
        ref = _ref_route(c)
        assert ref[1:3] == ((m - 1) // 2, tuple(range(m)))
        form = balance._map_onto_roots(c)
        assert repr((form.g, form.residual)) == repr((ref[0], ref[3]))


def _form_or_refusal(c):
    """The canonical route's form on c, memoized per member set as the
    verdicts memoize it, or the refusal that the route raises."""
    try:
        return c.per_member_set(balance._map_onto_roots)
    except (BalcfgError, ArithmeticError, ValueError) as exc:
        return exc


def _outcome(call):
    """What call() returns, or the class and witness of what it raises, in
    a form whose repr tells 0.0 from -0.0."""
    try:
        return "ok", repr(call())
    except BalcfgError as exc:
        return type(exc).__name__, repr(getattr(exc, "witness", None))


def _image(m, seed, eps, shuffle):
    """A GL2 image of U_m, each member moved by at most eps relative to the
    largest member, optionally in a seeded shuffled order."""
    image = random_invertible(seed).apply_configuration(roots_of_unity(m))
    scale = max(math.hypot(v.x, v.y) for v in image)
    image = perturb(image, eps * scale, seed=seed)
    if shuffle:
        vecs = list(image)
        random.Random(seed).shuffle(vecs)
        image = Configuration(vecs)
    return image


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 100).map(lambda k: 2 * k + 1),
    st.integers(0, 2**31 - 1),
    st.floats(-16.0, -6.0).map(lambda e: 10.0**e),
    st.booleans(),
    st.sampled_from([None, None, 1e-13, 1e-10, 1e-7]),
)
def test_certificate_first_verdicts_match_the_full_table(m, seed, eps, shuffle, tol):
    c = _image(m, seed, eps, shuffle)
    report = is_balanced(c, tol)
    verdict, witness = exact_oracle.is_balanced(c, tol)
    assert report.balanced == verdict
    assert repr(report.witness) == repr(witness)
    assert is_uniform(c, tol) == exact_oracle.is_uniform(c, tol)

    def constants():
        found = step_constants(c, tol)
        return found.A1, found.An

    assert _outcome(constants) == _outcome(lambda: exact_oracle.step_constants(c, tol))

    def canon():
        form = canonicalize(c)
        return form.g.rows(), form.residual

    assert _outcome(canon) == _outcome(lambda: _ref_canonicalize(c, RESIDUAL_TOL))
    assert verify_antisymmetry(c, tol) == _ref_antisymmetry(c, tol)


def _ref_bounds(c, tol):
    """The tolerance of the full table, its largest sorted pair sum in
    magnitude (what is_balanced compares with the tolerance), and its
    smallest off-diagonal |entry|, all in input units."""
    table = exact_oracle.table(c)
    pairs = [0]
    for i, row in enumerate(table.rows):
        srow = sorted(row[:i] + row[i + 1 :])
        pairs += [abs(a + b) for a, b in zip(srow, reversed(srow))]
    least = min(abs(e) for i, row in enumerate(table.rows) for j, e in enumerate(row) if i != j)
    return (
        Fraction(table.tolerance(tol), table.scale),
        Fraction(max(pairs), table.scale),
        Fraction(least, table.scale),
    )


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 60).map(lambda k: 2 * k + 1),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 1e-15, 1e-13, 1e-11]),
    st.booleans(),
    st.sampled_from([-30, -6, 0, 6, 30]).map(lambda e: 2.0**e),
    st.sampled_from([None, None, 1e-13, 1e-10]),
)
def test_a_certificate_that_fires_bounds_the_full_table(m, seed, eps, shuffle, scale, tol):
    # where the route's bounds clear the bracket, the reference table's
    # largest pair sum is within the tolerance (1e-9 * det_max by default)
    # and its smallest |entry| above it, so both verdicts are certain
    c = _image(m, seed, eps, shuffle)
    c = Configuration([x * scale for x in c.xs], [y * scale for y in c.ys])
    if balance._certified(c, tol):
        eff, pair, least = _ref_bounds(c, tol)
        assert pair <= eff < least
        form = _form_or_refusal(c)
        bound_pair, floor = _residual_bounds(form, norm_sq_bound(c), m)
        assert pair <= bound_pair and floor <= least


def _sqrt_above(q):
    """A rational >= sqrt(q) for a Fraction q >= 0, above it by at most
    1 / q's denominator."""
    return Fraction(math.isqrt(q.numerator * q.denominator) + 1, q.denominator)


def _exact_sine_floor(m):
    """_residual_bounds' first floor term x - x^3 / 6, exactly, at x =
    math.pi / m, which the float term's x, rounded down, never exceeds."""
    x = Fraction(math.pi) / m
    return x - x**3 / 6


def test_the_exact_floor_term_is_below_sin_pi_over_m():
    # sin(pi / m) is the sine of root (m - 1) / 2, as 2 pi n / m = pi - pi /
    # m; the gap, about (pi / m)^5 / 120, is 8e-17 or more for m <= 2001,
    # far above the reference's error near 1e-38
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for m in range(3, 2002, 2):
            term = _exact_sine_floor(m)
            sine = exact_root(m, (m - 1) // 2)[1]
            assert 0 < Decimal(term.numerator) / term.denominator < sine - Decimal("1e-30"), m


def _exact_residual_bounds(form, c):
    """_residual_bounds' terms evaluated exactly on the floats of form and c,
    as its docstring states them: G read as an exact matrix, so det_lo and
    det_hi are |det G| itself; max |v| taken by a rational upper bound, and
    x = math.pi / m not rounded down (_exact_sine_floor). Returns (pair,
    floor), bounds on the exact table, which has no rounding term."""
    u = Fraction(UNIT_ROUNDOFF)
    a, b, cc, d = map(Fraction, form.g)
    high = max(Fraction(x) ** 2 + Fraction(y) ** 2 for x, y in zip(c.xs, c.ys))
    size = abs(a) + abs(b) + abs(cc) + abs(d)
    r = Fraction(form.residual) * (1 + 4 * u) + 3 * u * size * _sqrt_above(high)
    r += Fraction(TARGET_ERR)
    spread = 2 * r + r * r
    det_g = abs(a * d - b * cc)
    pair = 2 * spread / det_g
    floor = (_exact_sine_floor(c.m) - spread) / det_g
    return pair, floor


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 60).map(lambda k: 2 * k + 1),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 1e-15, 1e-13, 1e-11, 1e-9, 1e-6]),
    st.booleans(),
    st.sampled_from([-30, 0, 30]).map(lambda e: 2.0**e),
)
def test_residual_bounds_hold_their_exact_terms(m, seed, eps, shuffle, scale):
    # the float pair is at least, and the float floor at most, the value of
    # the docstring's terms in exact arithmetic on the same floats
    c = _image(m, seed, eps, shuffle)
    c = Configuration([x * scale for x in c.xs], [y * scale for y in c.ys])
    form = _form_or_refusal(c)
    bounds = None
    if isinstance(form, CanonicalForm):
        bounds = _residual_bounds(form, norm_sq_bound(c), m)
    assume(bounds is not None)
    pair, floor = bounds
    exact_pair, exact_floor = _exact_residual_bounds(form, c)
    assert pair >= exact_pair and floor <= exact_floor


def _fresh_bracket():
    """A bracket of the default tolerance on a fresh U_9 image (nothing
    cached), with its ends for the entries of row 0 and its true eff, in
    table units: 1e-9 read exactly, times max |row 0|, 2 max |X| max |Y|
    over the members' ints and the table's maximum, rounded down."""
    c = random_invertible(4).apply_configuration(roots_of_unity(9))
    row = c.det_row(0)
    table = exact_oracle.table(c)
    xs, ys, unit = c._det_coords
    rel = Fraction(DEFAULT_REL_TOL)
    lo = math.floor(rel * max(map(abs, row)))
    hi = math.floor(rel * 2 * max(map(abs, xs)) * max(map(abs, ys)))
    eff = math.floor(Fraction(table.tolerance(), table.scale) * unit)
    assert lo <= eff <= hi and lo < hi
    return c, _Bracket(c, None), row, lo, hi, eff


class _Unread:
    """held entries that fail the test when the bracket reads them."""

    def __iter__(self):
        raise AssertionError("held read")


def test_bracket_above_decides_at_its_ends_and_narrows_between():
    # values[j] > eff: a value above hi is above eff, and none above lo is
    # none above eff; both decide without det_max
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    assert bracket.above([lo // 2, 2 * hi, 3 * hi], row) == 1
    assert "det_max" not in c.__dict__
    # no value above lo: decided at the first end; lo, once raised by held,
    # decides later values without reading held again
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    assert bracket.above([lo // 2, lo], row) is None
    assert bracket.above([lo, lo // 4], _Unread()) is None
    assert "det_max" not in c.__dict__
    # the first value above lo is within hi: narrowed to eff
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    between = (lo + hi) // 2
    assert bracket.above([lo // 2, between, 2 * hi], row) == (1 if between > eff else 2)
    assert bracket.lo == bracket.hi == eff and "det_max" in c.__dict__


def test_bracket_within_mirrors_above():
    # values[j] <= eff: a value within lo is within eff, and none within hi
    # is none within eff; both decide without det_max
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    assert bracket.within([2 * hi, lo // 2, lo // 4], row) == 1
    assert "det_max" not in c.__dict__
    # no value within hi: decided at the first end, without reading held
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    assert bracket.within([2 * hi, 3 * hi], _Unread()) is None
    assert "det_max" not in c.__dict__
    # the first value within hi is above lo: narrowed to eff
    c, bracket, row, lo, hi, eff = _fresh_bracket()
    between = (lo + hi) // 2
    assert bracket.within([2 * hi, between, lo // 2], row) == (1 if between <= eff else 2)
    assert bracket.lo == bracket.hi == eff and "det_max" in c.__dict__


def test_is_uniform_decides_the_square_without_det_max():
    # opposite members: |det| = 0 at both ends of the bracket
    c = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    assert is_uniform(c) == (False, (0, 2)) == exact_oracle.is_uniform(c)
    assert "det_max" not in c.__dict__


@pytest.mark.parametrize("delta, pair", [(1.5e-12, None), (1e-13, (0, 1))])
def test_is_uniform_reads_det_max_when_an_entry_falls_inside_the_bracket(delta, pair):
    # det(v0, v1) = delta lies between 1e-9 * max |row 0| = 1e-12 and
    # 1e-9 * 2 max |x| max |y| = 2e-12 only for the first delta
    c = Configuration([(1.0, 0.0), (1.0, delta), (0.0, 1e-3)])
    assert is_uniform(c) == (pair is None, pair) == exact_oracle.is_uniform(c)
    assert ("det_max" in c.__dict__) == (pair is None)


def test_verify_antisymmetry_decides_without_det_max():
    c = random_invertible(4).apply_configuration(roots_of_unity(9))
    assert verify_antisymmetry(c) == (True, None) == _ref_antisymmetry(c, None)
    assert "det_max" not in c.__dict__


@pytest.mark.parametrize("seed, m", [(3, 21), (1, 3), (4, 9), (7, 51)])
def test_verify_antisymmetry_computes_each_row_once(rows_computed, seed, m):
    # the bracket's lo takes each row's entries from the scan, so no row is
    # computed a second time for it
    c = random_invertible(seed).apply_configuration(roots_of_unity(m))
    assert verify_antisymmetry(c) == (True, None)
    assert rows_computed == [(m, i) for i in range(m)]


@pytest.mark.parametrize("command, calls", [("check", 1), ("canon", 1)])
def test_norm_bounds_are_computed_once_per_bracket(capsys, count_calls, tmp_path, command, calls):
    # check: is_balanced's bracket, whose norm bound the residual bounds
    # reuse and every later bracket of the member set shares; canon: the
    # same for the verdicts on its scaled copy
    path = tmp_path / "u51.json"
    path.write_text(serialize_config(random_invertible(3).apply_configuration(roots_of_unity(51))))
    seen = count_calls(balance.norm_sq_bound)
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert [c.m for (c,) in seen] == [51] * calls


@pytest.mark.parametrize(
    "g, residual, bounded",
    [
        ((1.0, 0.0, 0.0, 1.0), 0.0, True),
        # det G = 0: no lower bound on |det G| is positive
        ((1.0, 1.0, 1.0, 1.0), 0.0, False),
        # r^2 overflows, so pair and floor are not finite
        ((1.0, 0.0, 0.0, 1.0), 1e200, False),
        # an entry below SAFE_COORDINATE_RANGE: pair and floor would be
        # finite (about 1.4e137 and 2.8e150), but products of it may round
        # other than relatively, so no bound is given
        ((2.0**-500, 0.0, 0.0, 1.0), 0.0, False),
    ],
    ids=["identity", "singular", "overflow", "outside-safe-range"],
)
def test_residual_bounds_refuse_a_singular_map_and_a_bound_that_is_not_finite(
    g, residual, bounded
):
    form = CanonicalForm(LinearMap2(*g), -1.0, residual)
    assert (_residual_bounds(form, 1.0, 3) is not None) == bounded


def test_route_without_norm_bounds_falls_back_to_the_rows(rows_computed):
    # v0 has a coordinate outside [2^-480, 2^480]: the route maps the
    # configuration, but the bracket has no norm bound, so no bound can
    # hold, no route runs in the verdicts, and is_balanced reads every row.
    # The bracket's ends come from the exact ints, at any scale, so det_max
    # is never read: is_balanced reads rows 0, 1 and 2, each passing at the
    # lower end; is_uniform reads none, as the gap floor, exact at any
    # scale, decides
    u = roots_of_unity(3)
    c = Configuration([PlaneVector(1.0, 1e-300), u[1], u[2]])
    form = _form_or_refusal(c)
    assert isinstance(form, CanonicalForm)
    assert norm_sq_bound(c) is None
    assert not balance._certified(c, None)
    assert rows_computed == []
    report = is_balanced(c)
    assert (report.balanced, report.witness) == (True, None) == exact_oracle.is_balanced(c)
    assert is_uniform(c) == (True, None) == exact_oracle.is_uniform(c)
    assert rows_computed == [(3, 0), (3, 1), (3, 2)]
    assert "det_max" not in c.__dict__
    assert canonicalize(c).residual <= RESIDUAL_TOL


def test_is_balanced_reads_det_max_when_a_sum_falls_inside_the_bracket(rows_computed):
    # a squeezed U_3 (|det| ~ 8.7e-4, max |x| max |y| ~ 8.7e-4), whose
    # route's residual certifies nothing: row 0's pair sum of 1.2e-12 fails
    # 1e-9 * max |row 0|, and passes 1e-9 * 2 max |x| max |y|, so det_max
    # streams rows 0, 1, 2
    c = Configuration([(1.0, 0.0), (-0.5, 0.866e-3 + 1.2e-12), (-0.5, -0.866e-3)])
    report = is_balanced(c)
    assert (report.balanced, report.witness) == exact_oracle.is_balanced(c)
    assert not report.balanced
    assert "det_max" in c.__dict__
    assert rows_computed == [(3, 0), (3, 0), (3, 1), (3, 2)]


def test_is_balanced_decides_a_far_row_on_row_0(rows_computed):
    # row 0 fails at both ends of the bracket, the lower of which is row 0's
    # own largest |entry|, so neither it nor det_max reads a row
    c = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, -0.25)])
    report = is_balanced(c)
    assert (report.balanced, report.witness) == exact_oracle.is_balanced(c) == (False, (0, 1.0))
    assert rows_computed == [(3, 0)]


def test_uniformity_by_argument_gap_reads_no_row(rows_computed):
    c = random_invertible(8).apply_configuration(roots_of_unity(51))
    assert is_uniform(c) == (True, None)
    assert is_uniform(c, 1e-3) == (True, None)
    # atan2 of (-1, 1e-17) rounds to pi, yet that vector of its line lies
    # just below pi, so the ring order puts it last, not with a line at 0
    turned = Configuration([(-1.0, 1e-17), *[(math.cos(t), math.sin(t)) for t in (1.0, 2.0)]])
    assert turned.arguments[0] == math.pi and is_uniform(turned) == (True, None)
    assert rows_computed == []
    # opposite members share a line: the gap floor's order check fails, the
    # rows decide, and the scan stops at row 0, which the bracket's lower
    # end reuses
    square = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    assert is_uniform(square) == (False, (0, 2)) == exact_oracle.is_uniform(square)
    assert rows_computed == [(4, 0)]


def test_step_constants_name_the_first_k_of_either_step():
    # moving v_4 of U_7 (n = 3) breaks the 1-steps at k = 3, 4 and the
    # n-steps at k = 1, 4: the n-steps name the first k
    u = roots_of_unity(7)
    c = Configuration([(1.01 * v.x, 1.01 * v.y) if i == 4 else v for i, v in enumerate(u)])
    found = _outcome(lambda: step_constants(c))
    reference = _outcome(lambda: exact_oracle.step_constants(c))
    assert found == reference == ("InconsistentConstants", "1")


def test_is_balanced_tests_closure_once_after_row_0(count_calls, rows_computed):
    # collinear members: every row is zeros, so the set is balanced but not
    # closed under negation, and closure is tested once, after row 0
    calls = count_calls(balance._negation_closed)
    c = Configuration([(1, 0), (2, 0), (3, 0), (5, 0)])
    assert is_balanced(c) == balance.BalanceReport(True, None)
    assert len(calls) == 1 and rows_computed == [(4, i) for i in range(4)]
    # a row 0 that fails decides before any closure test
    assert not is_balanced(Configuration([(1, 0), (0, 1), (1, 1), (-1, 0)])).balanced
    assert len(calls) == 1


def test_step_constants_read_their_2m_entries_off_the_columns(rows_computed):
    # no row is read: the scan rotates the columns of the table's ints, and
    # the bracket's lower end comes from the 2m entries; (A1, An) are det2
    # of (v_0, v_1) and (v_0, v_n)
    c = random_invertible(2).apply_configuration(roots_of_unity(31))
    found = step_constants(c)
    assert (repr(found.A1), repr(found.An)) == tuple(map(repr, exact_oracle.step_constants(c)))
    assert rows_computed == []


@pytest.mark.parametrize(
    "vectors, routes",
    [
        # exact mode: tolerance 0, no certificate applies, no route is run
        ([(1, 0), (0, 1), (-1, -1)], []),
        # even m: no route either
        ([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)], []),
        # coordinates outside the range where the bounds hold: no bound can
        # hold, so no route runs
        ([(1e200, 0.0), (-5e199, 8.660254037844386e199), (-5e199, -8.660254037844386e199)], []),
        (
            [(1e-200, 0.0), (-5e-201, 8.660254037844386e-201), (-5e-201, -8.660254037844386e-201)],
            [],
        ),
    ],
)
def test_verdicts_read_the_rows_where_no_bound_holds(
    count_calls, rows_computed, vectors, routes
):
    calls = count_calls(balance._map_onto_roots)
    c = Configuration(vectors)
    report = is_balanced(c)
    assert (report.balanced, repr(report.witness)) == _outcome_pair(exact_oracle.is_balanced(c))
    assert is_uniform(c) == exact_oracle.is_uniform(c)
    assert rows_computed[0] == (c.m, 0)
    assert [work.m for (work,) in calls] == routes


def _outcome_pair(verdict):
    return verdict[0], repr(verdict[1])


def test_route_maps_a_grid_value_other_than_t_n_and_certifies_nothing():
    # m = 9 in the canonical frame: v_0 = (1, 0) and v_4 = (0, 1) frame it,
    # v_5 = (-1, -1) gives t = -1 = t_3, not t_4; three members lie at
    # arguments in (0, pi/2) and three in (5 pi/4, 2 pi), so the labeling
    # keeps v_0, v_4 and v_5 in slots 0, 4 and 5. No image of U_9 has this
    # t: the route maps it, its residual is far from 0, so it certifies
    # nothing, and the rows decide. The general grid route takes k = 3,
    # which shares the factor 3 with 9, and refuses its exponents as no
    # bijection
    thetas = [0.5, 1.0, 1.2, 5.0, 5.5, 6.0]
    c = Configuration(
        [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)] + [(math.cos(t), math.sin(t)) for t in thetas]
    )
    form = _form_or_refusal(c)
    assert isinstance(form, CanonicalForm)
    assert form.t == -1.0 and round(form.residual, 2) == 1.77
    with pytest.raises(ResidualTooLarge, match="not a bijection"):
        _ref_route(c)
    assert not balance._certified(c, None)
    report = is_balanced(c)
    assert (report.balanced, repr(report.witness)) == _outcome_pair(exact_oracle.is_balanced(c))
    assert report.witness == (0, math.sin(5.0))
    assert is_uniform(c) == exact_oracle.is_uniform(c) == (True, None)


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_verdicts_read_the_rows_where_a_bound_does_not_clear(rows_computed, eps):
    # a U_21 image moved by eps: the route maps it, but its residual cannot
    # certify a tolerance of 1e-9 * det_max (balanced or not), so is_balanced
    # reads row 0 first
    moved = perturb(random_invertible(6).apply_configuration(roots_of_unity(21)), eps, seed=1)
    assert isinstance(_form_or_refusal(moved), CanonicalForm)
    report = is_balanced(moved)
    assert (report.balanced, repr(report.witness)) == _outcome_pair(exact_oracle.is_balanced(moved))
    assert report.balanced == (eps == 1e-10)
    assert is_uniform(moved) == exact_oracle.is_uniform(moved)
    assert rows_computed[0] == (21, 0)


def test_verdicts_read_the_rows_where_the_tolerance_is_too_large(rows_computed):
    # the image is certified at the default tolerance; an explicit one of 1
    # makes some |det| fall under it, so the certificate's floor does not
    # clear it, and the rows decide
    image = random_invertible(6).apply_configuration(roots_of_unity(21))
    assert is_balanced(image) == balance.BalanceReport(True, None)
    assert is_uniform(image) == (True, None)
    assert rows_computed == []
    report = is_balanced(image, 1.0)
    reference = _outcome_pair(exact_oracle.is_balanced(image, 1.0))
    assert (report.balanced, repr(report.witness)) == reference
    assert is_uniform(image, 1.0) == exact_oracle.is_uniform(image, 1.0) != (True, None)
    assert rows_computed[0] == (21, 0)


@pytest.mark.parametrize("scale", [1e-12, 1e-7, 1e-5, 1.0, 1e5, 1e12])
def test_verdicts_certify_at_every_scale(rows_computed, scale):
    # the frame test is relative to |v0| |vn|, and the certificate compares
    # its pair bound with 1e-9 times its own floor, so a U_21 image far
    # below or above unit scale is certified as at unit scale, with no row
    image = random_invertible(6).apply_configuration(roots_of_unity(21))
    c = Configuration([(scale * v.x, scale * v.y) for v in image])
    assert is_balanced(c) == balance.BalanceReport(True, None)
    assert is_uniform(c) == (True, None)
    assert rows_computed == []


def test_u801_image_verdicts_compute_no_row(count_calls, rows_computed):
    calls = count_calls(balance._map_onto_roots)
    c = random_invertible(3).apply_configuration(roots_of_unity(801))
    assert is_balanced(c) == balance.BalanceReport(True, None)
    assert is_uniform(c) == (True, None)
    assert rows_computed == [] and len(calls) == 1


@pytest.mark.parametrize("tol", [[], ["--tol", "1e-12"]], ids=["default", "explicit"])
@pytest.mark.parametrize("command", ["check", "canon"])
def test_a_certified_image_never_builds_the_table_ints(
    capsys, monkeypatch, rows_computed, command, tol
):
    # the certificate, the row-sum gate and the gap floor stay float, so
    # check and canon of a U_201 image read no row and never the ints that
    # every row is built from
    built = Configuration._det_coords
    reads = []

    def watched(c):
        reads.append(c.m)
        return built.func(c)

    monkeypatch.setattr(Configuration, "_det_coords", property(watched))
    assert main([command, str(DATA / "u201_image.json"), *tol]) == 0
    capsys.readouterr()
    assert rows_computed == [] and reads == []


@pytest.mark.parametrize("command", ["check", "canon"])
@pytest.mark.parametrize("name", ["u201_image", "u201_image_shuffled", "u201_image_perturbed"])
def test_cli_runs_the_route_once_per_member_set(capsys, count_calls, command, name):
    # both verdicts, check's step-constant fallback and canonicalize read one
    # memoized route; the perturbed copy's row sums refute it before any
    # route, and its rows decide
    calls = count_calls(balance._map_onto_roots)
    main([command, str(DATA / f"{name}.json")])
    capsys.readouterr()
    assert [work.m for (work,) in calls] == ([] if name.endswith("perturbed") else [201])


@pytest.mark.parametrize("command", ["check", "canon"])
def test_the_route_reads_its_targets_from_roots_of_unity(capsys, count_calls, command):
    # U_m is evaluated in one place, whose members tests/test_libm.py checks
    calls = count_calls(roots_of_unity)
    main([command, str(DATA / "u201_image.json")])
    capsys.readouterr()
    assert calls == [(201,)]


@pytest.mark.parametrize("eps", [1e-11, 3e-11])
def test_canonicalize_maps_onto_the_roots_once(monkeypatch, rows_computed, eps):
    # moved by eps, a U_201 image still canonicalizes, but the route's bound
    # does not clear: the verdicts read the rows, and the route's first
    # result is the one returned
    c = perturb(random_invertible(11).apply_configuration(roots_of_unity(201)), eps, seed=5)
    route = balance._map_onto_roots
    calls = []

    def counting(work):
        calls.append(work.m)
        return route(work)

    monkeypatch.setattr(balance, "_map_onto_roots", counting)
    form = canonicalize(c)
    assert calls == [201] and rows_computed
    found = form.g.rows(), form.residual
    assert repr(found) == repr(_ref_canonicalize(c, RESIDUAL_TOL))


SAFE_TINY, SAFE_HUGE = SAFE_COORDINATE_RANGE
exact_coords = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# the safe range's edges, signed zeros and small values that repeat, so
# that members repeat and rows hold exact ties
safe_coords = st.one_of(
    st.sampled_from([0.0, -0.0, SAFE_TINY, -SAFE_TINY, SAFE_HUGE, -SAFE_HUGE, 1.0, -0.5, 3.0]),
    st.floats(-8.0, 8.0),
)
# just outside the safe range, where no product overflows
unsafe_coords = st.sampled_from([2.0**-500, -1e-150, 5e-324, 2.0**490, -1e146])


@st.composite
def negation_closed(draw, coords):
    """Members v and -v of a drawn multiset of nonzero vectors, shuffled; the
    negated copy of a zero coordinate may keep its sign (0.0 for -0.0), and
    one member may be moved to a drawn vector."""
    vectors = st.tuples(coords, coords).filter(lambda v: v != (0, 0))
    half = draw(st.lists(vectors, min_size=1, max_size=6))
    keep_zero_sign = draw(st.booleans())

    def twin(t):
        return t if keep_zero_sign and not t else -t

    members = draw(st.permutations(half + [(twin(x), twin(y)) for x, y in half]))
    if draw(st.booleans()):
        members[draw(st.integers(0, len(members) - 1))] = draw(vectors)
    return members


# rows_computed records across examples, so each example clears it first
@settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(
        negation_closed(exact_coords),
        negation_closed(safe_coords),
        negation_closed(st.one_of(safe_coords, unsafe_coords)),
    ),
    st.sampled_from([None, None, 0.0, 1e-12, 1e-6]),
)
def test_negation_closed_sets_match_the_full_table(rows_computed, members, tol):
    c = Configuration(members)
    rows_computed.clear()
    report = is_balanced(c, tol)
    read = sorted({i for _, i in rows_computed})
    # exact mode compares exactly whatever tol is
    verdict, witness = exact_oracle.is_balanced(c, tol)
    assert (report.balanced, repr(report.witness)) == (verdict, repr(witness))
    # the certificate fires exactly on a closed multiset, in either mode and
    # at every float scale, as the rows are exact
    closed = Counter(zip(c.xs, c.ys)) == Counter(zip(map(neg, c.xs), map(neg, c.ys)))
    fires = _negation_closed(c)
    assert fires == closed
    if fires:
        assert verdict
    if verdict:
        # a certified set stops after row 0; any other reads every row
        assert read == ([0] if fires else list(range(c.m)))


# exact coordinates with no float copy, beyond the float range either way
beyond_float = st.sampled_from([Fraction(10**400), Fraction(1, 10**400), Fraction(-3, 10**400)])
# the factors k of the planted members k * v, parallel and antiparallel
planted_factors = st.sampled_from(
    [s * k for s in (1, -1) for k in (Fraction(1, 3), Fraction(2), Fraction(5, 7))]
)


@st.composite
def planted_lines(draw):
    """Exact members, among them 0 to 3 planted copies k * v of drawn ones,
    each inserted at a drawn index."""
    coords = st.one_of(exact_coords, beyond_float)
    members = draw(st.lists(st.tuples(coords, coords).filter(any), min_size=1, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        (x, y), k = draw(st.sampled_from(members)), draw(planted_factors)
        members.insert(draw(st.integers(0, len(members))), (k * x, k * y))
    return members


# rows_computed records across examples, so each example clears it first
@settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(planted_lines(), st.sampled_from([None, 0.0, 1e-6]))
def test_exact_is_uniform_compares_lines_and_computes_no_row(rows_computed, members, tol):
    c = Configuration(members)
    rows_computed.clear()
    found = is_uniform(c, tol)
    assert rows_computed == []
    # exact mode compares exactly whatever tol is
    assert found == exact_oracle.is_uniform(c, tol)


@st.composite
def planted_near_pairs(draw):
    """Float members at drawn arguments and norms 10^-6..10^6, and 1 or 2
    copies of drawn ones turned by a tiny angle, or by pi and a tiny angle,
    at a drawn norm: near-parallel and near-antiparallel pairs."""
    # multiples of the golden angle, so that only the planted pairs are near
    thetas = st.integers(0, 10**6).map(lambda k: math.fmod(k * 2.399963229728653, 2.0 * math.pi))
    sizes = st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
    members = draw(
        st.lists(st.tuples(thetas, sizes), min_size=1, max_size=8, unique_by=lambda t: t[0])
    )
    turns = st.sampled_from([1e-4, 1e-7, -1e-8, -1e-5, 1e-9, 1e-12, -1e-13, 1e-15, 0.0])
    for _ in range(draw(st.integers(1, 2))):
        theta = draw(st.sampled_from(members))[0] + draw(st.sampled_from([0.0, math.pi]))
        members.append((theta + draw(turns), draw(sizes)))
    return [(r * math.cos(theta), r * math.sin(theta)) for theta, r in members]


@pytest.mark.parametrize("m, seed", [(51, 9), (201, 1)])
def test_gap_floor_of_each_member_clears_a_perturbed_image(rows_computed, m, seed):
    # two members lie close in argument; their gap bounds only their own
    # determinants, and a floor that took it for every member would fall
    # below the bracket's upper end and send the scan to m - 1 rows
    c = perturb(random_invertible(2).apply_configuration(roots_of_unity(m)), 1e-3, seed=seed)
    assert is_uniform(c) == (True, None)
    assert rows_computed == []
    assert exact_oracle.is_uniform(c) == (True, None)


def _ref_in_safe_range(values):
    """in_safe_range as it was written before its passes were cut: it
    filters the zeros out of every list of magnitudes."""
    sizes = list(map(abs, values))
    if not all(map(math.isfinite, sizes)):
        return False
    nonzero = list(filter(None, sizes))
    return not nonzero or (SAFE_TINY <= min(nonzero) and max(nonzero) <= SAFE_HUGE)


def _ref_norm_sq_bound(c):
    """norm_sq_bound on _ref_in_safe_range."""
    if c.mode == "exact" or not _ref_in_safe_range(c.xs + c.ys):
        return None
    return max(x * x + y * y for x, y in zip(c.xs, c.ys)) * (1.0 + BOUND_SLACK)


# signed zeros, subnormals, and the safe range's edges with the floats just
# past them, next to ordinary values
edge_coords = st.sampled_from(
    [
        0.0,
        -0.0,
        5e-324,
        -(2.0**-1060),
        SAFE_TINY,
        -SAFE_TINY,
        math.nextafter(SAFE_TINY, 0.0),
        SAFE_HUGE,
        -SAFE_HUGE,
        math.nextafter(SAFE_HUGE, math.inf),
        1.0,
        -3.0,
    ]
)


@st.composite
def tied_members(draw):
    """Float members, among them 0 to 3 planted copies k * v of drawn ones
    for power-of-two k of either sign: arguments tied mod pi at other
    norms, as an exact scaling leaves x / y as it is."""
    coords = draw(st.sampled_from([safe_coords, st.one_of(edge_coords, st.floats(-8.0, 8.0))]))
    vectors = st.tuples(coords, coords).filter(lambda v: v != (0, 0))
    members = draw(st.lists(vectors, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        (x, y), k = draw(st.sampled_from(members)), draw(st.sampled_from([-4.0, -1.0, 0.5, 2.0]))
        if (k * x, k * y) != (0, 0):
            members.insert(draw(st.integers(0, len(members))), (k * x, k * y))
    return members


@settings(deadline=None, max_examples=600)
@given(
    st.one_of(planted_near_pairs(), tied_members()),
    st.sampled_from([0, 0, -520, -600, -1000, -1060, 520]),
    st.sampled_from([None, None, 0.0, 1e-300, 1e-12, 1e-3]),
)
# three members on the x-axis and two on the diagonal, at other norms
@example([(1.0, 0.0), (3.0, 3.0), (-4.0, 0.0), (0.0, 1.0), (0.5, 0.0), (-6.0, -6.0)], 0, None)
# U_5 below the normal floats
@example(list(zip(roots_of_unity(5).xs, roots_of_unity(5).ys)), -1060, 0.0)
# a zero coordinate next to the safe range's least one, and one just past it
@example([(0.0, SAFE_TINY), (1.0, 0.0)], 0, None)
@example([(0.0, math.nextafter(SAFE_TINY, 0.0)), (1.0, 0.0)], 0, None)
def test_gap_floor_is_sound_against_the_exact_table(members, k, tol):
    # members scaled by 2^k inside the safe range or past it either way,
    # subnormals included, less any the scaling flushes to (0, 0): the norm
    # bound is its reference bit for bit, and the gap floor is True only
    # when every off-diagonal |entry| of the oracle's table exceeds its
    # tolerance; False leaves the rows to decide
    points = [(math.ldexp(x, k), math.ldexp(y, k)) for x, y in members]
    assume(any(map(any, points)))
    c = Configuration([p for p in points if any(p)])
    assert repr(norm_sq_bound(c)) == repr(_ref_norm_sq_bound(c))
    if balance._gap_floor(c, _Bracket(c, tol)):
        table = exact_oracle.table(c)
        entries = [abs(e) for i, row in enumerate(table.rows) for j, e in enumerate(row) if i != j]
        assert min(entries) > table.tolerance(tol)


# the map entries that _residual_bounds tests may be zero, NaN or infinite
@settings(deadline=None, max_examples=500)
@given(
    st.lists(
        st.one_of(edge_coords, st.sampled_from([math.nan, math.inf, -math.inf])),
        min_size=1,
        max_size=6,
    )
)
@example([0.0, -0.0, 0.0, 0.0])
@example([0.0, math.nan, 1.0, 0.0])
def test_in_safe_range_is_its_reference(values):
    assert in_safe_range(values) is _ref_in_safe_range(values)


def _row_sums_refute(c, tol):
    """_certified's gate on c: the row sums against its float tolerance top,
    where c has a norm bound high."""
    high = norm_sq_bound(c)
    top = DEFAULT_REL_TOL * high if tol is None and high is not None else tol
    return high is not None and balance._row_sums_refute(c, top, high)


# 2^k scalings whose coordinates stay inside the safe range, or leave it
# below (where the gate does not apply); tolerances relative to max |v|^2.
# A common shift delta moves every pair sum of row i the same way, by up to
# 4 |v_i| |delta|, so rows that pass can sum to about m |v_i| |delta|: a
# shift of tol / 8 / max |v| puts a balanced set's row sums past the
# tolerance itself, far inside the gate's n tol
@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 100).map(lambda k: 2 * k + 1),
    st.integers(0, 2**31 - 1),
    st.sampled_from([0.0, 1e-14, 1e-11, 1e-6, 1e-3]),
    st.booleans(),
    st.sampled_from([-450, -200, -30, 0, 30, 200, 450]).map(lambda e: 2.0**e),
    st.sampled_from([None, None, 1e-12, 1e-9, 1e-6, 1e-3, 1e-1]),
    st.sampled_from([0.0, 0.0, 0.125, 0.25]),
    st.floats(0.0, 2.0 * math.pi),
)
def test_row_sums_refute_no_balanced_set_and_no_image(
    m, seed, eps, shuffle, scale, rel, shift, phi
):
    c = _image(m, seed, eps, shuffle)
    top = max(map(math.hypot, c.xs, c.ys)) * scale
    tol = None if rel is None else rel * top**2
    step = shift * (DEFAULT_REL_TOL if rel is None else rel) * top
    dx, dy = step * math.cos(phi), step * math.sin(phi)
    c = Configuration([x * scale + dx for x in c.xs], [y * scale + dy for y in c.ys])
    refuted = _row_sums_refute(c, tol)
    if refuted:
        assert not is_balanced(c, tol).balanced
    if eps == 0.0 and shift == 0.0:
        assert not refuted


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.tuples(safe_coords, safe_coords).filter(any), min_size=3, max_size=9).filter(
        lambda members: len(members) % 2
    ),
    st.sampled_from([None, None, 0.0, 1e-12, 1e-6, 1.0]),
)
# exactly collinear (y = 5x), so balanced at tol 0, while the float sum of
# the members is off that line: only the statistic's own rounding term
# keeps the gate from refuting it
@example(
    [
        (-0.1697394682677551, -0.8486973413387755),
        (0.40448138422010205, 2.0224069211005102),
        (-108.65548035970232, -543.2774017985116),
    ],
    0.0,
)
def test_row_sums_refute_no_balanced_float_set(members, tol):
    c = Configuration(members)
    if _row_sums_refute(c, tol):
        verdict, _ = exact_oracle.is_balanced(c, tol)
        assert not verdict and not is_balanced(c, tol).balanced


def _orders(m, rng):
    """(r, d) of the orders j -> r + d*j (mod m) to list U_m in: d = 1, -1
    and a drawn d coprime to m, each with a drawn r."""
    units = [d for d in range(2, m - 1) if math.gcd(d, m) == 1]
    return [(rng.randrange(m), d) for d in [1, -1] + rng.sample(units, min(1, len(units)))]


@pytest.mark.parametrize("tol", [None, 1e-10])
def test_step_constants_of_an_affine_order_are_the_scans_without_a_scan(count_calls, tol):
    # a certified image listed as r + d*l of its labels l: every step entry
    # at offset a is within the certificate's pair bound of D[0][a], so
    # (A1, An) is det2 of (v_0, v_1) and (v_0, v_n), which the 2m scan (the
    # oracle) passes
    scan = balance._step_scan
    scans = count_calls(scan)
    rng = random.Random(50)
    for m in range(3, 202, 2):
        image = random_invertible(m).apply_configuration(roots_of_unity(m))
        for r, d in _orders(m, rng):
            c = image.take([(r + d * j) % m for j in range(m)])
            found = step_constants(c, tol)
            assert scans == []
            scan(c, _Bracket(c, tol))
            assert found == (c[0].x * c[1].y - c[0].y * c[1].x, c[0].x * c[m // 2].y - c[0].y * c[m // 2].x)


def test_step_constants_of_another_order_scan_and_refuse(count_calls):
    # the same images in a seeded order that is no affine relabeling: the
    # scan runs and refuses, as the full table does
    scans = count_calls(balance._step_scan)
    rng = random.Random(51)
    for m in range(5, 202, 2):
        image = random_invertible(m).apply_configuration(roots_of_unity(m))
        order = list(range(m))
        rng.shuffle(order)
        assert not balance._affine(order)
        c = image.take(order)
        assert balance._certified(c, None)
        found = _outcome(lambda: step_constants(c))
        assert found[0] == "InconsistentConstants"
        assert found == _outcome(lambda: exact_oracle.step_constants(c))
        assert len(scans) == 1
        scans.clear()


def test_check_of_a_shuffled_image_scans_once_and_keeps_its_bytes(capsys, count_calls):
    # the file's order scans and refuses; the labeled copy, in its own
    # label order, reads (A1, An) off row 0
    scans = count_calls(balance._step_scan)
    assert main(["check", str(DATA / "u201_image_shuffled.json")]) == 0
    out = capsys.readouterr().out
    assert out == (DATA.parent / "golden" / "check_u201_image_shuffled.json").read_text()
    assert [c.m for c, _ in scans] == [201]


def _symmetric_exact(rng, m):
    """m / 2 distinct exact vectors and their negations, shuffled."""
    half = set()
    while len(half) < m // 2:
        v = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2))
        if any(v) and (-v[0], -v[1]) not in half:
            half.add(v)
    members = sorted(half) + [(-x, -y) for x, y in sorted(half)]
    rng.shuffle(members)
    return Configuration(members)


def test_a_certify_pass_runs_a_route_only_for_images(
    tmp_path, capsys, count_calls, rows_computed
):
    # the certify mix: check and canon of U_m images, of copies moved by
    # 1e-3, and of exact {v, -v} sets. One route per image command; the
    # moved copies' row sums refute them, so their rows decide at row 0;
    # the exact sets take row 0 and their lines; no image scans its steps
    routes = count_calls(balance._map_onto_roots)
    scans = count_calls(balance._step_scan)
    rng = random.Random(1)
    files = []
    for m in (51, 51, 201, 801):
        image = random_invertible(rng.randrange(2**31)).apply_configuration(roots_of_unity(m))
        files.append(("image", image))
        files.append(("moved", perturb(image, 1e-3, seed=rng.randrange(2**31))))
    files += [("exact", _symmetric_exact(rng, 100)) for _ in range(2)]
    counts = []
    for k, (kind, c) in enumerate(files):
        path = tmp_path / f"in_{k}.json"
        path.write_text(serialize_config(c))
        for command in ("check", "canon"):
            rows_computed.clear()
            code = main([command, str(path)])
            capsys.readouterr()
            counts.append((kind, command, code, len(routes), len(scans), len(rows_computed)))
            routes.clear()
            scans.clear()
    expected = {
        ("image", "check"): (0, 1, 0, 0),
        ("image", "canon"): (0, 1, 0, 0),
        ("moved", "check"): (1, 0, 0, 1),
        ("moved", "canon"): (1, 0, 0, 1),
        ("exact", "check"): (0, 0, 0, 1),
        ("exact", "canon"): (1, 0, 0, 1),
    }
    assert counts == [(kind, cmd, *expected[kind, cmd]) for kind, cmd, *_ in counts]
