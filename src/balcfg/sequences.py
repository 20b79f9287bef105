"""The parameterized vector sequences u_i(t), w_i(t), their exact polynomial
forms, the closure equation w_n(t) = (1, 0), and the grid of parameters at
which a configuration of size m = 2n+1 can close.

The recurrence is

    u_0 = (1, 0),  w_0 = (t, -1),
    u_{i+1} = t * w_i - u_i,
    w_{i+1} = t * u_{i+1} - w_i,

the sign and index placement being forced by the seed-triple linear solve
(expand v_i over the basis {v_{n+i}, v_{i-1}}; the divisor is -A_n and the
step ratio A_1/A_n equals -t in the frame where v_0 = (1,0), v_n = (0,1),
v_{n+1} = (t,-1)). Interleaved as z_0 = u_0, z_1 = w_0, z_2 = u_1, ..., every
z_j = (s_j, -s_{j-1}) for the one scalar recurrence s_{-1} = 0, s_0 = 1,
s_{j+1} = t * s_j - s_{j-1}, so s_j = U_j(t/2) is the second-kind Chebyshev
polynomial (Mason and Handscomb 2003). As U_j has degree j and the parity of
j, x(u_i) is even of degree 2i, y(u_i) odd of degree 2i-1, x(w_i) odd of
degree 2i+1 and y(w_i) even of degree 2i.

The closure parameters are t_k = 2cos(2k*pi/m) for k = 1..n: writing the
primitive m-th root w = e^{2*pi*i/m}, one has w^{-k} = 2cos(2k*pi/m) - w^k,
so the frame sending (1, w^k) to ((1,0), (0,1)) sends w^{-k} exactly to
(2cos(2k*pi/m), -1) = w_0(t_k). The solver below proves them as the real
roots of the fourth-kind Chebyshev polynomial W_n = s_n + s_{n-1}, from the
closed form of s_j (chebyshev_s). With V_j = s_j - s_{j-1}, x(w_n) - 1 =
W_n V_{n+1} and y(w_n) = -W_n V_n, and V_n, V_{n+1} are coprime (V_{n+1} =
t V_n - V_{n-1}, V_0 = 1), so W_n is exactly the primitive gcd of the closure
equations over Z[t] (Mason and Handscomb 2003). It divides x(u_n) and
y(u_n) - 1 too, so the sequence closes exactly at every t_k. The tests check
this theorem; closure_roots proves W_n's roots from exact signs.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import polynomials as ip
from .geometry import Configuration, PlaneVector, Scalar


class PolyPair(NamedTuple):
    """A vector-valued polynomial function of t: (x(t), y(t)), both integer
    polynomials ascending by degree."""

    x: ip.IntPoly
    y: ip.IntPoly


class RootGrid(NamedTuple("RootGrid", [("m", int), ("values", Tuple[float, ...])])):
    """Sorted closure parameters for odd m: exactly n = (m-1)/2 distinct
    values, all inside (-2, 2)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, m: int, values: Tuple[float, ...]):
        n = (m - 1) // 2
        if m % 2 == 0 or m < 3:
            raise ValueError(f"grid needs odd m >= 3, got {m}")
        if len(values) != n:
            raise ValueError(f"grid for m = {m} needs {n} values, got {len(values)}")
        if list(values) != sorted(values):
            raise ValueError("grid values must be sorted ascending")
        for v in values:
            if not -2.0 < v < 2.0:
                raise ValueError(f"grid value {v} outside (-2, 2)")
        for a, b in zip(values, values[1:]):
            if not b > a:
                raise ValueError("grid values must be distinct")
        return super().__new__(cls, m, values)

    @property
    def n(self) -> int:
        return (self.m - 1) // 2


def _interleaved(n: int, zero, one, times_t, sub, neg, pair) -> Tuple[list, list]:
    """u_0..u_n and w_0..w_n from the scalar recurrence s_{j+1} = t s_j -
    s_{j-1}, in the ring that zero, one, times_t, sub and neg define; pair
    builds one vector z_j = (s_j, -s_{j-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = [zero, one]  # s[j + 1] holds s_j, from s_{-1} = 0
    for _ in range(2 * n + 1):
        s.append(sub(times_t(s[-1]), s[-2]))
    z = [pair(s[j + 1], neg(s[j])) for j in range(2 * n + 2)]
    return z[0::2], z[1::2]


def numeric_sequences(
    t: Scalar, n: int
) -> Tuple[List[PlaneVector], List[PlaneVector]]:
    """u_0..u_n and w_0..w_n evaluated at t, in t's arithmetic mode."""
    if isinstance(t, float):
        one, zero = 1.0, 0.0
    else:
        t = Fraction(t)
        one, zero = Fraction(1), Fraction(0)
    # zero - s rather than -s keeps u_0 = (1, +0)
    return _interleaved(
        n, zero, one, lambda s: t * s, operator.sub, lambda s: zero - s, PlaneVector
    )


def symbolic_sequences(n: int) -> Tuple[List[PolyPair], List[PolyPair]]:
    """u_0..u_n and w_0..w_n as exact integer-polynomial pairs."""
    return _interleaved(n, (), (1,), ip.shift_up, ip.sub, ip.neg, PolyPair)


class ParityVerdict(NamedTuple):
    ok: bool
    index: Optional[int] = None
    which: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_parity_degrees(
    us: Sequence[PolyPair], ws: Sequence[PolyPair]
) -> ParityVerdict:
    """Verify, for every i >= 1 present in both sequences: x(u_i) even of
    degree 2i, y(u_i) odd of degree 2i-1, x(w_i) odd of degree 2i+1, y(w_i)
    even of degree 2i. Returns the first violation as (index, which)."""
    upper = min(len(us), len(ws))
    for i in range(1, upper):
        u, w = us[i], ws[i]
        if not (ip.is_even_poly(u.x) and ip.degree(u.x) == 2 * i):
            return ParityVerdict(False, i, "u.x")
        if not (ip.is_odd_poly(u.y) and ip.degree(u.y) == 2 * i - 1):
            return ParityVerdict(False, i, "u.y")
        if not (ip.is_odd_poly(w.x) and ip.degree(w.x) == 2 * i + 1):
            return ParityVerdict(False, i, "w.x")
        if not (ip.is_even_poly(w.y) and ip.degree(w.y) == 2 * i):
            return ParityVerdict(False, i, "w.y")
    return ParityVerdict(True)


def chebyshev_s(j: int) -> ip.IntPoly:
    """s_j = U_j(t/2), j >= 0, ascending: the coefficient of t^(j-2k) is
    (-1)^k C(j-k, k), the one before times -(j-2k+2)(j-2k+1) / (k(j-k+1))."""
    coeffs = [0] * j + [1]
    c = 1
    for k in range(1, j // 2 + 1):
        c = -c * (j - 2 * k + 2) * (j - 2 * k + 1) // (k * (j - k + 1))
        coeffs[j - 2 * k] = c
    return tuple(coeffs)


def closure_roots(grid: RootGrid) -> RootGrid:
    """Solve w_n(t) = (1, 0), certified, for n = grid.n: the real roots of
    W_n = s_n + s_{n-1}, the primitive gcd of y(w_n) and x(w_n) - 1 over
    Z[t] (module docstring), each the correctly rounded midpoint of an
    isolating cell of ip.certify_cells' lattice 2^-40 Z, one int ratio
    (a + b) / 2^41.

    The intervals are proved from exact signs at the cells of the grid's
    closed-form floats (ip.certify_cells), which place the cells but prove
    nothing. When that proof fails, ValueError names m. It cannot fail
    below m of about 6e6. Each closed-form guess is within 1e-14 of its
    root, and a cell is 2^-40, about 9.1e-13, wide, so the root lies
    in the guess's cell or a neighbour; certify_cells tries the guess's
    cell, then the one below, then the one above. The closest two roots,
    t_n and t_{n-1}, lie 2(cos(pi/m) - cos(3pi/m)), about 8 pi^2 / m^2,
    apart, which exceeds 2.1e-12 for m < 6e6. A cell tried before the
    root's lies within two cells and 1e-14 of the root, so it holds no
    other root, and no cell holds two."""
    closure = ip.add(chebyshev_s(grid.n), chebyshev_s(grid.n - 1))
    cells = ip.certify_cells(closure, grid.values)
    if cells is None:
        raise ValueError(f"closure roots for m = {grid.m} not isolated at width 1e-12")
    return RootGrid(grid.m, tuple((a + b) / (2 << ip.CELL_BITS) for a, b in cells))


def wn_equation_roots(n: int) -> RootGrid:
    """Solve w_n(t) = (1, 0) over the reals, certified (see closure_roots)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return closure_roots(t_grid(2 * n + 1))


def closed_form_t(m: int, k: int) -> float:
    """The closure parameter t_k = 2cos(2k*pi/m)."""
    return 2.0 * math.cos(2.0 * math.pi * k / m)


def t_grid(m: int) -> RootGrid:
    """Closed-form grid {2cos(2k*pi/m) : k = 1..n}, sorted ascending."""
    if m % 2 == 0 or m < 3:
        raise ValueError(f"grid needs odd m >= 3, got {m}")
    n = (m - 1) // 2
    return RootGrid(m=m, values=tuple(sorted(closed_form_t(m, k) for k in range(1, n + 1))))


def model_configuration(m: int, k: int) -> Configuration:
    """The size-m configuration in the canonical frame at parameter t_k:
    slots [u_0, .., u_{n-1}, (0,1), w_0, .., w_{n-1}] (u_i at slot i, V at
    slot n, w_i at slot n+1+i), from the closed form s_j(t_k) =
    sin(2*pi (j+1) k / m) / sin(2*pi k / m) of z_j = (s_j, -s_{j-1}), each
    multiple of k reduced mod m as an integer first. Closure is not checked
    here: W_n divides the closure equations over Z[t] (module docstring)."""
    if m % 2 == 0 or m < 3:
        raise ValueError(f"model configuration needs odd m >= 3, got {m}")
    n = (m - 1) // 2
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    sines = [math.sin(2.0 * math.pi * (j * k % m) / m) for j in range(2 * n + 1)]
    x, y = [s / sines[1] for s in sines[1:]], [-s / sines[1] for s in sines[:-1]]
    return Configuration(x[0::2] + [0.0] + x[1::2], y[0::2] + [1.0] + y[1::2])
