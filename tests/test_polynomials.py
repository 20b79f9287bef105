from fractions import Fraction
from math import inf, isqrt, nan, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balcfg import polynomials as ip
from balcfg import sequences
from polynomial_oracles import eval_at, primitive_gcd, sign_at

# ascending coefficient tuples: (2, -2, -1, 1) is t^3 - t^2 - 2t + 2
CUBIC_MIXED = (2, -2, -1, 1)


def test_trim_and_degree():
    assert ip.trim([1, 2, 0, 0]) == (1, 2)
    assert ip.trim([0, 0]) == ()
    assert ip.degree(()) == -1
    assert ip.degree((5,)) == 0
    assert ip.degree((0, 0, 3)) == 2


def test_arithmetic_frozen():
    assert ip.add((1, 2), (3, -2)) == (4,)
    assert ip.sub((1, 2), (1, 2)) == ()
    assert ip.neg((1, -2)) == (-1, 2)
    assert ip.shift_up((1, 2)) == (0, 1, 2)


def test_eval_modes():
    p = (-1, 0, 1)  # t^2 - 1
    assert eval_at(p, 2.0) == 3.0
    assert eval_at(p, Fraction(1, 2)) == Fraction(-3, 4)
    assert isinstance(eval_at(p, Fraction(1, 2)), Fraction)


def test_parity_predicates():
    assert ip.is_even_poly((-1, 0, 1))
    assert not ip.is_odd_poly((-1, 0, 1))
    assert ip.is_odd_poly((0, -2, 0, 1))
    assert ip.is_even_poly(())  # zero polynomial is both
    assert ip.is_odd_poly(())


def test_sign_at_of_the_zero_polynomial_is_0():
    assert sign_at((), Fraction(-7, 3)) == 0


def test_sign_at_is_exact_at_roots():
    p = (-1, 0, 1)
    assert sign_at(p, Fraction(1)) == 0
    assert sign_at(p, Fraction(1, 2)) == -1
    assert sign_at(p, Fraction(3, 2)) == 1


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    st.fractions(min_value=Fraction(-10), max_value=Fraction(10), max_denominator=32),
)
def test_sign_at_matches_exact_evaluation(coeffs, x):
    p = ip.trim(coeffs)
    if not p:
        return
    value = eval_at(p, x)
    assert sign_at(p, x) == (0 if value == 0 else (1 if value > 0 else -1))


def _from_roots(roots):
    # integer polynomial prod (den * t - num) over the rational roots
    p = (1,)
    for r in roots:
        scaled = ip.shift_up(tuple(r.denominator * a for a in p))
        p = ip.sub(scaled, tuple(r.numerator * a for a in p))
    return p


def test_primitive_gcd_removes_content_and_sign():
    # 6(t - 1)(t + 2) and -4(t - 1)(t - 3) share t - 1
    assert primitive_gcd((-12, 6, 6), (-12, 16, -4)) == (-1, 1)
    assert primitive_gcd((0, -6), ()) == (0, 1)
    assert primitive_gcd((), ()) == ()
    assert primitive_gcd((-1, 0, 1), (1, 0, 1)) == (1,)


def _lattice_step(width):
    # the largest power of two <= width, by halving or doubling from 1
    h = Fraction(1)
    while h > width:
        h /= 2
    while 2 * h <= width:
        h *= 2
    return h


def _cells(p, guesses, width):
    # certify_cells' cells as Fraction ends, or None; every end is a point
    # of the lattice h Z, over den = 1 / h or 1
    certified = ip.certify_cells(p, guesses, width)
    if certified is None:
        return None
    den, cells = certified
    h = _lattice_step(width)
    assert den == max(1 / h, 1)
    assert all((Fraction(end, den) / h).denominator == 1 for cell in cells for end in cell)
    return [(Fraction(a, den), Fraction(b, den)) for a, b in cells]


@pytest.mark.parametrize(
    "width, den",
    [(Fraction(1, 10**12), 2**40), (Fraction(1, 3), 4), (Fraction(1, 2), 2),
     (Fraction(1, 2**20), 2**20), (Fraction(1), 1), (Fraction(3), 1), (Fraction(9, 2), 1)],
)
def test_certify_cells_shares_one_power_of_two_denominator(width, den):
    # t^2 - 2 on the lattice of the largest power of two <= width: at width
    # 3 the cells are [-2, 0] and [0, 2], at 9/2 [-4, 0] and [0, 4]
    certified = ip.certify_cells((-2, 0, 1), [-sqrt(2), sqrt(2)], width)
    assert certified[0] == den
    cells = _cells((-2, 0, 1), [-sqrt(2), sqrt(2)], width)
    h = _lattice_step(width)
    for (lo, hi), root in zip(cells, (-sqrt(2), sqrt(2))):
        assert hi - lo == h and lo < root < hi


@pytest.mark.parametrize("p", [(), (7,), (1, 0, 1), (-1, 0, 1), CUBIC_MIXED])
@pytest.mark.parametrize("width", [Fraction(0), Fraction(-1, 2)])
def test_certify_cells_rejects_a_width_that_is_not_positive(p, width):
    # on entry, so a wrong guess count cannot return None for a width of 0
    with pytest.raises(ValueError, match="width must be positive"):
        ip.certify_cells(p, [-1.0, 1.0], width)


def test_certify_cells_quadratic():
    width = Fraction(1, 10**12)
    cells = _cells((-1, 0, 1), [-1.0, 1.0], width)
    assert cells == [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]
    cells = _cells((-2, 0, 1), [-sqrt(2), sqrt(2)], width)
    assert len(cells) == 2
    for (lo, hi), expect in zip(cells, (-sqrt(2), sqrt(2))):
        assert 0 < hi - lo <= width
        assert sign_at((-2, 0, 1), lo) * sign_at((-2, 0, 1), hi) == -1
        assert abs(float((lo + hi) / 2) - expect) < 1e-12


def test_certify_cells_with_exact_dyadic_root():
    # (t - 1)(t^2 - 2): the rational root is a lattice point, zero-width
    width = Fraction(1, 10**12)
    cells = _cells(CUBIC_MIXED, [-sqrt(2), 1.0, sqrt(2)], width)
    assert len(cells) == 3
    mids = [float((lo + hi) / 2) for lo, hi in cells]
    assert abs(mids[0] + 2 ** 0.5) < 1e-12
    assert cells[1] == (Fraction(1), Fraction(1))
    assert abs(mids[2] - 2 ** 0.5) < 1e-12


def test_certify_cells_lands_on_a_grid_root_exactly():
    # (8t - 3)(4t - 5)(t^2 - 2): 3/8 and 5/4 are points of every dyadic
    # lattice finer than 1/8, so their cells are zero-width; +-sqrt(2) are not
    q = _from_roots([Fraction(3, 8), Fraction(5, 4)])
    p = ip.sub(ip.shift_up(ip.shift_up(q)), tuple(2 * a for a in q))
    cells = _cells(p, [-sqrt(2), 0.375, 1.25, sqrt(2)], Fraction(1, 10**12))
    assert cells[1] == (Fraction(3, 8), Fraction(3, 8))
    assert cells[2] == (Fraction(5, 4), Fraction(5, 4))
    assert cells[0][0] < cells[0][1] and cells[3][0] < cells[3][1]


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5, unique=True))
def test_certify_cells_recover_integer_roots(int_roots):
    p = (1,)
    for r in int_roots:
        # multiply by (t - r)
        p = ip.add(ip.shift_up(p), ip.neg(tuple(r * a for a in p)))
    found = _cells(p, sorted(float(r) for r in int_roots), Fraction(1, 10**9))
    # every integer is a point of the lattice 2^-30 Z
    assert found == [(Fraction(r), Fraction(r)) for r in sorted(int_roots)]


def test_certify_cells_none_for_positive_definite():
    # t^2 + 1 has no real root, so no guesses prove its two roots real
    width = Fraction(1, 1000)
    assert ip.certify_cells((1, 0, 1), [], width) is None
    assert ip.certify_cells((1, 0, 1), [-1.0, 1.0], width) is None
    assert ip.certify_cells((1, 0, 1), [0.0, 0.001], width) is None


def test_certify_cells_returns_none_on_a_double_root():
    # (3t - 1)^2: no lattice point hits 1/3 and the sign does not change across
    # it, so no cell near it shows a root
    assert ip.certify_cells((1, -6, 9), [1 / 3, 1 / 3], Fraction(1, 10**12)) is None
    assert ip.certify_cells((1, -6, 9), [1 / 3 - 1e-12, 1 / 3 + 1e-12], Fraction(1, 10**12)) is None


def _closure_polynomial(n):
    # the test-side gcd of the recurrence's closure equations, which the
    # closed-form W_n equals (test_sequences)
    wn = sequences.symbolic_sequences(n)[1][n]
    return primitive_gcd(wn.y, ip.sub(wn.x, (1,)))


def _closure_case(n):
    # W_n, the closed-form guesses for its roots and the lattice's cell width
    p = _closure_polynomial(n)
    return p, list(sequences.t_grid(2 * n + 1).values), _lattice_step(sequences.ROOT_WIDTH)


def _changed(guesses, i, value):
    return guesses[:i] + [value] + guesses[i + 1:]


WRONG_GUESSES = {
    "too-few": lambda g, cell: g[:-1],
    "too-many": lambda g, cell: g + [1.999],
    "out-of-order": lambda g, cell: g[::-1],
    "two-in-one-cell": lambda g, cell: _changed(g, 1, g[0]),
    # two or more cells off
    **{
        f"shifted-{k}-cells": lambda g, cell, k=k: [x + k * float(cell) for x in g]
        for k in (-5, -2, 2, 3, 1000)
    },
    "nan": lambda g, cell: _changed(g, 3, nan),
    "inf": lambda g, cell: _changed(g, 3, inf),
    "minus-inf": lambda g, cell: _changed(g, 0, -inf),
    # far from every root of W_24, which all lie in (-2, 2)
    "at-minus-two": lambda g, cell: _changed(g, 0, -2.0),
    "at-two": lambda g, cell: _changed(g, 23, 2.0),
    "far-above": lambda g, cell: _changed(g, 23, 2.0**60),
}


@pytest.mark.parametrize("kind", list(WRONG_GUESSES))
def test_certify_cells_returns_none_when_the_guesses_prove_nothing(kind):
    p, guesses, cell = _closure_case(24)
    width = sequences.ROOT_WIDTH
    assert ip.certify_cells(p, guesses, width) is not None
    assert ip.certify_cells(p, WRONG_GUESSES[kind](guesses, cell), width) is None


@pytest.mark.parametrize("n", list(range(1, 101)) + [200, 300, 400])
def test_certify_cells_proves_the_closure_roots(n):
    # m = 2n + 1: n ascending disjoint cells, each with an exact sign change
    # or an exact zero, each within a cell of its closed-form t_k; the one
    # rational root is t = -1, a lattice point, zero-width when 3 | m
    m = 2 * n + 1
    p, guesses, cell = _closure_case(n)
    cells = _cells(p, guesses, sequences.ROOT_WIDTH)
    assert cells is not None and len(cells) == n
    for (_, hi), (lo, _) in zip(cells, cells[1:]):
        assert hi < lo
    for (lo, hi), t in zip(cells, guesses):
        assert lo <= hi <= lo + cell
        if lo == hi:
            assert sign_at(p, lo) == 0
        else:
            assert sign_at(p, lo) * sign_at(p, hi) == -1
        assert lo - cell <= Fraction(t) <= hi + cell
    zero_width = [(lo, hi) for lo, hi in cells if lo == hi]
    assert zero_width == ([(Fraction(-1), Fraction(-1))] if m % 3 == 0 else [])


@pytest.mark.parametrize("n", [24, 61, 200])
def test_certify_cells_takes_two_signs_per_closure_root(monkeypatch, n):
    # every closed-form guess of W_n falls in its root's own cell, so each
    # root costs the exact signs at that cell's two ends and no neighbour
    # is tried; n = 61 (m = 123 = 3 * 41) includes the lattice root t = -1
    calls = []
    value = ip._scaled_value
    monkeypatch.setattr(ip, "_scaled_value", lambda *args: calls.append(1) or value(*args))
    p, guesses, _ = _closure_case(n)
    assert len(ip.certify_cells(p, guesses, sequences.ROOT_WIDTH)[1]) == n
    assert len(calls) == 2 * n


def test_certify_cells_returns_none_for_two_roots_in_one_cell():
    # 3/10 and 3/10 + 10^-14 share a cell of width <= 10^-12, whose ends
    # have one sign, as have both neighbours'
    roots = [Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10**14)]
    p = _from_roots(roots)
    assert ip.certify_cells(p, [float(r) for r in roots], Fraction(1, 10**12)) is None


def test_certify_cells_on_constants():
    assert ip.certify_cells((7,), [], Fraction(1, 2)) == (2, [])
    assert ip.certify_cells((), [], Fraction(1, 2)) is None


DISTINCT_INTEGER_AND_DYADIC_ROOTS = st.lists(
    st.one_of(
        st.integers(-6, 6).map(Fraction),
        st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-300, 300), st.integers(1, 8)),
    ),
    min_size=0,
    max_size=6,
    unique=True,
)


def _lattice_cells(roots, square, width):
    """The cell of the lattice h Z that holds each root of _from_roots(roots)
    times t^2 - square, ascending, found from the roots themselves:
    j h <= r < (j + 1) h, zero-width when r is a lattice point. h = 2^-k, so
    the cells of +-sqrt(square) come from floor(sqrt(square) 2^k) =
    isqrt(square 4^k), which no lattice point hits."""
    p = _from_roots(roots)
    if square:
        p = ip.sub(ip.shift_up(ip.shift_up(p)), tuple(square * a for a in p))
    h = _lattice_step(width)
    assert h.numerator == 1
    k = h.denominator.bit_length() - 1
    cells = []
    for r in roots:
        j, rest = divmod(r / h, 1)
        cells.append((j * h, j * h) if rest == 0 else (j * h, (j + 1) * h))
    if square:
        below = isqrt(square << 2 * k)
        for j in (-below - 1, below):
            cells.append((j * h, (j + 1) * h))
    return p, sorted(cells)


@given(
    DISTINCT_INTEGER_AND_DYADIC_ROOTS,
    st.sampled_from([0, 2, 3, 5]),
    st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    st.sampled_from([Fraction(1, 3), Fraction(1, 2**20), Fraction(1, 10**12)]),
    st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.5]),
)
def test_certify_cells_is_the_roots_cells_or_none(roots, square, noise, width, scale):
    # the distinct rational roots, times t^2 - square for the irrational
    # pair +-sqrt(square); the guesses are the roots moved by up to
    # 3 * scale, sorted: the certificate either proves each root's own cell
    # or gives up
    p, expect = _lattice_cells(roots, square, width)
    exact = sorted([float(r) for r in roots] + ([-sqrt(square), sqrt(square)] if square else []))
    guesses = sorted(g + scale * e for g, e in zip(exact, noise))
    cells = _cells(p, guesses, width)
    assert cells is None or cells == expect
    separation = min((b - a for a, b in zip(exact, exact[1:])), default=inf)
    if scale == 0.0 and 3 * width < separation:
        # guesses within a float rounding of roots more than three cells
        # apart always succeed
        assert cells == expect
