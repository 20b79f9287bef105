from fractions import Fraction
from math import inf, isqrt, nan, sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balcfg import polynomials as ip
from balcfg import sequences
from paper_lemmas import is_even_poly, is_odd_poly, shift_up, symbolic_sequences
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
    assert shift_up((1, 2)) == (0, 1, 2)


def test_eval_modes():
    p = (-1, 0, 1)  # t^2 - 1
    assert eval_at(p, 2.0) == 3.0
    assert eval_at(p, Fraction(1, 2)) == Fraction(-3, 4)
    assert isinstance(eval_at(p, Fraction(1, 2)), Fraction)


def test_parity_predicates():
    assert is_even_poly((-1, 0, 1))
    assert not is_odd_poly((-1, 0, 1))
    assert is_odd_poly((0, -2, 0, 1))
    assert is_even_poly(())  # zero polynomial is both
    assert is_odd_poly(())


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
        scaled = shift_up(tuple(r.denominator * a for a in p))
        p = ip.sub(scaled, tuple(r.numerator * a for a in p))
    return p


def test_primitive_gcd_removes_content_and_sign():
    # 6(t - 1)(t + 2) and -4(t - 1)(t - 3) share t - 1
    assert primitive_gcd((-12, 6, 6), (-12, 16, -4)) == (-1, 1)
    assert primitive_gcd((0, -6), ()) == (0, 1)
    assert primitive_gcd((), ()) == ()
    assert primitive_gcd((-1, 0, 1), (1, 0, 1)) == (1,)


# certify_cells' one cell width, 2^-40, the largest power of two <= 1e-12
CELL = Fraction(1, 2**ip.CELL_BITS)


def _cells(p, guesses):
    # certify_cells' cells as Fraction ends, or None; every end is an int
    # over 2^40, a point of the lattice 2^-40 Z
    cells = ip.certify_cells(p, guesses)
    if cells is None:
        return None
    assert all(type(end) is int for cell in cells for end in cell)
    return [(a * CELL, b * CELL) for a, b in cells]


@pytest.mark.parametrize("square", [2, 3, 5, 7, 10, 99, 10**6 + 1])
def test_certify_cells_shares_one_power_of_two_denominator(square):
    # t^2 - square on the lattice 2^-40 Z: each irrational root strictly
    # inside a cell one lattice step wide, the cell floor(sqrt(square) 2^40)
    # = isqrt(square 4^40) and its mirror, which no lattice point hits
    assert CELL == Fraction(1, 2**40) and CELL <= Fraction(1, 10**12) < 2 * CELL
    p = (-square, 0, 1)
    roots = (-sqrt(square), sqrt(square))
    cells = _cells(p, list(roots))
    below = isqrt(square << 2 * ip.CELL_BITS)
    assert ip.certify_cells(p, list(roots)) == [(-below - 1, -below), (below, below + 1)]
    for (lo, hi), root in zip(cells, roots):
        assert hi - lo == CELL and lo < root < hi
        assert sign_at(p, lo) * sign_at(p, hi) == -1


# polynomials with only real simple roots, each with its exact guesses
EXACT_GUESSES = {
    "linear": ((-3, 8), [0.375]),
    "plus-minus-one": ((-1, 0, 1), [-1.0, 1.0]),
    "plus-minus-sqrt-two": ((-2, 0, 1), [-sqrt(2), sqrt(2)]),
    "cubic-mixed": (CUBIC_MIXED, [-sqrt(2), 1.0, sqrt(2)]),
    "quartic": (
        ip.sub(
            shift_up(shift_up(_from_roots([Fraction(3, 8), Fraction(5, 4)]))),
            tuple(2 * a for a in _from_roots([Fraction(3, 8), Fraction(5, 4)])),
        ),
        [-sqrt(2), 0.375, 1.25, sqrt(2)],
    ),
}


@pytest.mark.parametrize("count", ["one-fewer", "one-more"])
@pytest.mark.parametrize("kind", list(EXACT_GUESSES))
def test_certify_cells_refuses_a_guess_count_other_than_the_degree(kind, count):
    # the exact guesses prove every root; dropping the last or adding one
    # past the largest root gives None, whatever the remaining guesses prove
    p, guesses = EXACT_GUESSES[kind]
    assert len(ip.certify_cells(p, guesses)) == len(p) - 1
    wrong = guesses[:-1] if count == "one-fewer" else guesses + [guesses[-1] + 1.0]
    assert ip.certify_cells(p, wrong) is None


def test_certify_cells_quadratic():
    cells = _cells((-1, 0, 1), [-1.0, 1.0])
    assert cells == [(Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1))]
    cells = _cells((-2, 0, 1), [-sqrt(2), sqrt(2)])
    assert len(cells) == 2
    for (lo, hi), expect in zip(cells, (-sqrt(2), sqrt(2))):
        assert 0 < hi - lo <= Fraction(1, 10**12)
        assert sign_at((-2, 0, 1), lo) * sign_at((-2, 0, 1), hi) == -1
        assert abs(float((lo + hi) / 2) - expect) < 1e-12


def test_certify_cells_with_exact_dyadic_root():
    # (t - 1)(t^2 - 2): the rational root is a lattice point, zero-width
    cells = _cells(CUBIC_MIXED, [-sqrt(2), 1.0, sqrt(2)])
    assert len(cells) == 3
    mids = [float((lo + hi) / 2) for lo, hi in cells]
    assert abs(mids[0] + 2 ** 0.5) < 1e-12
    assert cells[1] == (Fraction(1), Fraction(1))
    assert abs(mids[2] - 2 ** 0.5) < 1e-12


def test_certify_cells_lands_on_a_grid_root_exactly():
    # (8t - 3)(4t - 5)(t^2 - 2): 3/8 and 5/4 are points of the lattice
    # 2^-40 Z, so their cells are zero-width; +-sqrt(2) are not
    q = _from_roots([Fraction(3, 8), Fraction(5, 4)])
    p = ip.sub(shift_up(shift_up(q)), tuple(2 * a for a in q))
    cells = _cells(p, [-sqrt(2), 0.375, 1.25, sqrt(2)])
    assert cells[1] == (Fraction(3, 8), Fraction(3, 8))
    assert cells[2] == (Fraction(5, 4), Fraction(5, 4))
    assert cells[0][0] < cells[0][1] and cells[3][0] < cells[3][1]


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5, unique=True))
def test_certify_cells_recover_integer_roots(int_roots):
    p = (1,)
    for r in int_roots:
        # multiply by (t - r)
        p = ip.add(shift_up(p), ip.neg(tuple(r * a for a in p)))
    found = _cells(p, sorted(float(r) for r in int_roots))
    # every integer is a point of the lattice 2^-40 Z
    assert found == [(Fraction(r), Fraction(r)) for r in sorted(int_roots)]


def test_certify_cells_none_for_positive_definite():
    # t^2 + 1 has no real root, so no guesses prove its two roots real
    assert ip.certify_cells((1, 0, 1), []) is None
    assert ip.certify_cells((1, 0, 1), [-1.0, 1.0]) is None
    assert ip.certify_cells((1, 0, 1), [0.0, 0.001]) is None


def test_certify_cells_returns_none_on_a_double_root():
    # (3t - 1)^2: no lattice point hits 1/3 and the sign does not change across
    # it, so no cell near it shows a root
    assert ip.certify_cells((1, -6, 9), [1 / 3, 1 / 3]) is None
    assert ip.certify_cells((1, -6, 9), [1 / 3 - 1e-12, 1 / 3 + 1e-12]) is None


def _closure_polynomial(n):
    # the test-side gcd of the recurrence's closure equations, which the
    # closed-form W_n equals (test_sequences)
    wn = symbolic_sequences(n)[1][n]
    return primitive_gcd(wn.y, ip.sub(wn.x, (1,)))


def _closure_case(n):
    # W_n, the closed-form guesses for its roots and the lattice's cell width
    p = _closure_polynomial(n)
    return p, list(sequences.t_grid(2 * n + 1).values), CELL


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
    assert ip.certify_cells(p, guesses) is not None
    assert ip.certify_cells(p, WRONG_GUESSES[kind](guesses, cell)) is None


@pytest.mark.parametrize("n", list(range(1, 101)) + [200, 300, 400])
def test_certify_cells_proves_the_closure_roots(n):
    # m = 2n + 1: n ascending disjoint cells, each with an exact sign change
    # or an exact zero, each within a cell of its closed-form t_k; the one
    # rational root is t = -1, a lattice point, zero-width when 3 | m
    m = 2 * n + 1
    p, guesses, cell = _closure_case(n)
    cells = _cells(p, guesses)
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
    assert len(ip.certify_cells(p, guesses)) == n
    assert len(calls) == 2 * n


def test_certify_cells_returns_none_for_two_roots_in_one_cell():
    # 3/10 and 3/10 + 10^-14 share a cell of width 2^-40 <= 10^-12, whose
    # ends have one sign, as have both neighbours'
    roots = [Fraction(3, 10), Fraction(3, 10) + Fraction(1, 10**14)]
    p = _from_roots(roots)
    assert ip.certify_cells(p, [float(r) for r in roots]) is None


def test_certify_cells_on_constants():
    assert ip.certify_cells((7,), []) == []
    assert ip.certify_cells((), []) is None


DISTINCT_INTEGER_AND_DYADIC_ROOTS = st.lists(
    st.one_of(
        st.integers(-6, 6).map(Fraction),
        st.builds(lambda k, e: Fraction(k, 2**e), st.integers(-300, 300), st.integers(1, 8)),
    ),
    min_size=0,
    max_size=6,
    unique=True,
)


def _lattice_cells(roots, square):
    """The cell of the lattice 2^-40 Z that holds each root of
    _from_roots(roots) times t^2 - square, ascending, found from the roots
    themselves: j 2^-40 <= r < (j + 1) 2^-40, zero-width when r is a lattice
    point. The cells of +-sqrt(square) come from floor(sqrt(square) 2^40) =
    isqrt(square 4^40), which no lattice point hits."""
    p = _from_roots(roots)
    if square:
        p = ip.sub(shift_up(shift_up(p)), tuple(square * a for a in p))
    cells = []
    for r in roots:
        j, rest = divmod(r / CELL, 1)
        cells.append((j * CELL, j * CELL) if rest == 0 else (j * CELL, (j + 1) * CELL))
    if square:
        below = isqrt(square << 2 * ip.CELL_BITS)
        for j in (-below - 1, below):
            cells.append((j * CELL, (j + 1) * CELL))
    return p, sorted(cells)


@given(
    DISTINCT_INTEGER_AND_DYADIC_ROOTS,
    st.sampled_from([0, 2, 3, 5]),
    st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
    st.sampled_from([0.0, 1e-13, 1e-9, 1e-3, 0.5]),
)
def test_certify_cells_is_the_roots_cells_or_none(roots, square, noise, scale):
    # the distinct rational roots, times t^2 - square for the irrational
    # pair +-sqrt(square); the guesses are the roots moved by up to
    # 3 * scale, sorted: the certificate either proves each root's own cell
    # or gives up
    p, expect = _lattice_cells(roots, square)
    exact = sorted([float(r) for r in roots] + ([-sqrt(square), sqrt(square)] if square else []))
    guesses = sorted(g + scale * e for g, e in zip(exact, noise))
    cells = _cells(p, guesses)
    assert cells is None or cells == expect
    separation = min((b - a for a, b in zip(exact, exact[1:])), default=inf)
    if scale == 0.0 and 3 * CELL < separation:
        # guesses within a float rounding of roots more than three cells
        # apart always succeed
        assert cells == expect
