"""The certificate-first verdicts against a full-table reference.

The reference below builds the whole determinant table with the expression
x_i*y_j - y_i*x_j, takes the default tolerance from its largest entry, and
decides every verdict on it, as the verdicts did before they read rows on
demand, bracketed their tolerance, bounded uniformity by argument gaps, and
certified GL2 images of U_m by the canonical map's residual. Every verdict,
witness and certificate must match it exactly.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcfg import canonical
from balcfg.balance import (
    DEFAULT_REL_TOL,
    _Bracket,
    _row_fault,
    is_balanced,
    is_uniform,
    step_constants,
)
from balcfg.canonical import (
    RESIDUAL_TOL,
    _diagram_exponents,
    canonicalize,
    certified_labeling,
    extract_t,
    frame_map,
    match_k,
)
from balcfg.errors import (
    BalcfgError,
    InconsistentConstants,
    NotBalanced,
    NotUniform,
    ResidualTooLarge,
)
from balcfg.geometry import (
    Configuration,
    PlaneVector,
    label_by_increasing_arguments,
    roots_of_unity,
    unit_vector,
)
from balcfg.search import perturb, random_invertible


def _table(c):
    xs = [v.x for v in c]
    ys = [v.y for v in c]
    return [[xi * yj - yi * xj for xj, yj in zip(xs, ys)] for xi, yi in zip(xs, ys)]


def _ref_tol(table, tol):
    if tol is not None:
        return tol
    return DEFAULT_REL_TOL * max(
        (0.0, *(e for i, row in enumerate(table) for j, e in enumerate(row) if i != j))
    )


def _ref_is_balanced(c, tol):
    table = _table(c)
    eff = _ref_tol(table, tol)
    for i, row in enumerate(table):
        srow = sorted(row[:i] + row[i + 1 :])
        j = _row_fault(srow, eff)
        if j is not None:
            lo, hi = srow[j], srow[-1 - j]
            return False, (i, hi if abs(hi) >= abs(lo) else lo)
    return True, None


def _ref_is_uniform(c, tol):
    table = _table(c)
    eff = _ref_tol(table, tol)
    for i in range(c.m):
        for j in range(i + 1, c.m):
            if abs(table[i][j]) <= eff:
                return False, (i, j)
    return True, None


def _ref_step_constants(c, tol):
    table = _table(c)
    eff = _ref_tol(table, tol)
    m, n = c.m, c.n
    a1, an = table[0][1], table[0][n]
    for k in range(m):
        if abs(table[k][(k + 1) % m] - a1) > eff or abs(table[k][(k + n) % m] - an) > eff:
            raise InconsistentConstants("", witness=k)
    return a1, an


def _ref_canonicalize(c, tol):
    work = c.as_float()
    scale = max(v.norm() for v in work)
    work = Configuration([v.scale(1.0 / scale) for v in work])
    balanced, witness = _ref_is_balanced(work, None)
    if not balanced:
        raise NotBalanced("", witness=witness)
    uniform, pair = _ref_is_uniform(work, None)
    if not uniform:
        raise NotUniform("", witness=pair)
    labeled = label_by_increasing_arguments(work)
    m, n = labeled.m, labeled.n
    g_frame = frame_map(labeled[0], labeled[n])
    k = match_k(extract_t(g_frame, labeled[n + 1]), m)
    g = frame_map(PlaneVector(1.0, 0.0), unit_vector(2.0 * math.pi * k / m)).inverse()
    g = g.compose(g_frame)
    exponents = _diagram_exponents(m, k)
    residual = max(
        (g.apply(v) - unit_vector(2.0 * math.pi * e / m)).norm()
        for v, e in zip(labeled, exponents)
    )
    if residual > tol:
        raise ResidualTooLarge("", witness=residual)
    return g.scale(1.0 / scale).rows(), k, exponents, residual


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
    scale = max(v.norm() for v in image)
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
    verdict, witness = _ref_is_balanced(c, tol)
    assert report.balanced == verdict
    assert repr(report.witness) == repr(witness)
    assert is_uniform(c, tol) == _ref_is_uniform(c, tol)

    def constants():
        found = step_constants(c, tol)
        return found.A1, found.An

    assert _outcome(constants) == _outcome(lambda: _ref_step_constants(c, tol))
    # a certified labeling is a promise about the table's verdicts
    labeled = certified_labeling(c, tol)
    if labeled is not None:
        assert verdict and _ref_is_uniform(c, tol)[0]
        assert labeled == label_by_increasing_arguments(c)

    def canon():
        form = canonicalize(c)
        return form.g.rows(), form.k, form.index_map, form.residual

    assert _outcome(canon) == _outcome(lambda: _ref_canonicalize(c, RESIDUAL_TOL))


def test_bracket_decides_at_its_ends_and_narrows_between():
    c = random_invertible(4).apply_configuration(roots_of_unity(9))
    bracket = _Bracket(c, None)
    eff = DEFAULT_REL_TOL * c.det_max
    assert bracket.lo <= eff <= bracket.hi and bracket.lo < bracket.hi
    seen = []

    def fails_above(x):
        # a comparison |x| > e, naming itself when it fails
        def test(e):
            seen.append(e)
            return "x" if x > e else None

        return test

    lo, hi = bracket.lo, bracket.hi
    assert bracket.fault(fails_above(2 * hi)) == "x" and seen == [lo, hi]
    seen.clear()
    assert bracket.fault(fails_above(lo / 2)) is None and seen == [lo]
    seen.clear()
    between = (lo + hi) / 2
    assert bracket.fault(fails_above(between)) == ("x" if between > eff else None)
    assert seen == [lo, hi, eff] and bracket.lo == bracket.hi == eff


def test_is_balanced_reads_det_max_when_a_sum_falls_inside_the_bracket(tables_built):
    # a squeezed U_3 (|det| ~ 8.7e-4, max |v|^2 ~ 1): row 0's pair sum of
    # 1e-11 passes 1e-9 * max |v|^2 but not 1e-9 * det_max
    c = Configuration([(1.0, 0.0), (-0.5, 0.866e-3 + 1e-11), (-0.5, -0.866e-3)])
    report = is_balanced(c)
    assert (report.balanced, report.witness) == _ref_is_balanced(c, None)
    assert not report.balanced
    assert tables_built == [3]


def test_is_balanced_decides_a_far_row_without_a_table(tables_built):
    c = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, -0.25)])
    report = is_balanced(c)
    assert (report.balanced, report.witness) == _ref_is_balanced(c, None) == (False, (0, 1.0))
    assert tables_built == []


def test_uniformity_by_argument_gap_builds_no_table(tables_built):
    c = random_invertible(8).apply_configuration(roots_of_unity(51))
    assert is_uniform(c) == (True, None)
    assert is_uniform(c, 1e-3) == (True, None)
    assert tables_built == []
    # opposite members share an argument mod pi: the table decides
    square = Configuration([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    assert is_uniform(square) == (False, (0, 2)) == _ref_is_uniform(square, None)
    assert tables_built == [4]


def test_step_constants_read_their_2m_entries_without_a_table(tables_built):
    c = random_invertible(2).apply_configuration(roots_of_unity(31))
    found = step_constants(c)
    table = _table(c)
    assert (repr(found.A1), repr(found.An)) == (repr(table[0][1]), repr(table[0][15]))
    assert tables_built == []


@pytest.mark.parametrize(
    "vectors",
    [
        # exact mode: tolerance 0, no certificate applies
        [(1, 0), (0, 1), (-1, -1)],
        # even m
        [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
        # coordinates outside the range where the bounds hold
        [(1e200, 0.0), (-5e199, 8.660254037844386e199), (-5e199, -8.660254037844386e199)],
        [(1e-200, 0.0), (-5e-201, 8.660254037844386e-201), (-5e-201, -8.660254037844386e-201)],
    ],
)
def test_certified_labeling_declines_where_no_bound_holds(tables_built, vectors):
    assert certified_labeling(Configuration(vectors)) is None
    assert tables_built == []


def test_certified_labeling_declines_a_bound_that_does_not_clear():
    image = random_invertible(6).apply_configuration(roots_of_unity(21))
    assert certified_labeling(image) == label_by_increasing_arguments(image)
    # moved by 1e-6: the route still maps it, but its residual cannot
    # certify a tolerance of 1e-9 * det_max
    moved = perturb(image, 1e-6, seed=1)
    assert certified_labeling(moved) is None
    # an explicit tolerance of 1 makes some |det| fall under it
    assert certified_labeling(image, 1.0) is None


@pytest.mark.parametrize("scale", [1e-12, 1e-7, 1e-5, 1.0, 1e5, 1e12])
def test_certified_labeling_holds_at_every_scale(tables_built, scale):
    # the frame test is relative to |v0| |vn|, so a U_21 image far below
    # unit scale is certified as at unit scale, with no table
    image = random_invertible(6).apply_configuration(roots_of_unity(21))
    c = Configuration([v.scale(scale) for v in image])
    assert certified_labeling(c) == label_by_increasing_arguments(c)
    assert tables_built == []


@pytest.mark.parametrize("eps", [1e-11, 3e-11])
def test_canonicalize_maps_onto_the_roots_once(monkeypatch, eps):
    # moved by eps, a U_201 image still canonicalizes, but the route's bound
    # does not clear: the verdicts run on the table, and the route's first
    # result is the one returned
    c = perturb(random_invertible(11).apply_configuration(roots_of_unity(201)), eps, seed=5)
    assert certified_labeling(c) is None
    route = canonical._map_onto_roots
    calls = []

    def counting(work):
        calls.append(work.m)
        return route(work)

    monkeypatch.setattr(canonical, "_map_onto_roots", counting)
    form = canonicalize(c)
    assert calls == [201]
    found = form.g.rows(), form.k, form.index_map, form.residual
    assert repr(found) == repr(_ref_canonicalize(c, RESIDUAL_TOL))
