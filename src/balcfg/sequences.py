"""The closure equation w_n(t) = (1, 0), its certified roots, and the grid
of parameters at which a configuration of size m = 2n+1 can close.

The model sequences u_0 = (1, 0), w_0 = (t, -1), u_{i+1} = t * w_i - u_i,
w_{i+1} = t * u_{i+1} - w_i interleave as z_0 = u_0, z_1 = w_0, z_2 = u_1,
..., and every z_j = (s_j, -s_{j-1}) for the one scalar recurrence s_{-1} =
0, s_0 = 1, s_{j+1} = t * s_j - s_{j-1}, so s_j = U_j(t/2) is the
second-kind Chebyshev polynomial (Mason and Handscomb 2003), built here in
closed form (chebyshev_s). The tests hold the recurrences themselves, with
their parity and degrees (tests/paper_lemmas.py).

The closure parameters are t_k = 2cos(2k*pi/m) for k = 1..n: writing the
primitive m-th root w = e^{2*pi*i/m}, one has w^{-k} = 2cos(2k*pi/m) - w^k,
so the frame sending (1, w^k) to ((1,0), (0,1)) sends w^{-k} exactly to
(2cos(2k*pi/m), -1) = w_0(t_k). The solver below proves them as the real
roots of the fourth-kind Chebyshev polynomial W_n = s_n + s_{n-1}. With V_j
= s_j - s_{j-1}, x(w_n) - 1 = W_n V_{n+1} and y(w_n) = -W_n V_n, and V_n,
V_{n+1} are coprime (V_{n+1} = t V_n - V_{n-1}, V_0 = 1), so W_n is exactly
the primitive gcd of the closure equations over Z[t] (Mason and Handscomb
2003). It divides x(u_n) and y(u_n) - 1 too, so the sequence closes exactly
at every t_k, which the tests check.

closure_roots proves W_n's roots a posteriori (Rump 2010) by certify_cells:
d disjoint cells of the one lattice 2^-CELL_BITS * Z, each with an exact sign
change or an exact zero at a lattice point, hold all d roots of a degree-d p,
one each. Every sign is an integer Horner over the denominator 2^CELL_BITS,
so every decision is exact. Float guesses only place the cells, and a failed
proof returns None for the caller to refuse. Polynomials are int tuples,
ascending degree, trailing zeros trimmed; the zero polynomial is ().
"""

from __future__ import annotations

import math
import operator
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .geometry import Configuration

IntPoly = Tuple[int, ...]

# certify_cells' lattice is 2^-40 Z: 2^-40 is the largest power of two <= 1e-12
CELL_BITS = 40


def trim(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _scaled_coeffs(p: Sequence[int], den: int) -> List[int]:
    # p's coefficients from the top down, the i-th times den^i, so that
    # _scaled_value(_scaled_coeffs(p, den), num) = p(num / den) * den^deg
    scaled = []
    power = 1
    for c in reversed(p):
        scaled.append(c * power)
        power *= den
    return scaled


def _scaled_value(scaled: Sequence[int], num: int) -> int:
    # integer Horner on the coefficients from _scaled_coeffs
    acc = 0
    for c in scaled:
        acc = acc * num + c
    return acc


def certify_cells(
    p: Sequence[int], guesses: Sequence[float]
) -> Optional[List[Tuple[int, int]]]:
    """All real roots of p, ascending, as int pairs (a, b), each the certified
    cell [a, b] / 2^CELL_BITS, from about one exact sign pair per root, or
    None when the guesses cannot prove them.

    Each guess, in ascending order, picks the lattice cell that holds it;
    when the exact signs at the cell's ends agree, the cell below and then
    the one above are tried. A zero sign at a cell end is a root, returned
    zero-width. If every one of the deg p guesses finds a sign change or a
    zero, in strictly ascending cells that share no root, those d disjoint
    cells hold all d roots of p, one each. So every root is real, simple and
    alone in its cell, and no bound on the roots is needed. None for a guess
    count other than deg p, a guess that is not finite, cells out of order
    or shared, or a guess that finds no root."""
    p = trim(p)
    if len(guesses) != len(p) - 1:
        return None
    scaled = _scaled_coeffs(p, 1 << CELL_BITS)

    def sign(a: int) -> int:
        # the sign of p at a / 2^CELL_BITS
        value = _scaled_value(scaled, a)
        return (value > 0) - (value < 0)

    found: List[Tuple[int, int]] = []
    for guess in guesses:
        if not math.isfinite(guess):
            return None
        num, gden = guess.as_integer_ratio()
        cell = (num << CELL_BITS) // gden
        for lo in (cell, cell - 1, cell + 1):
            hi = lo + 1
            at_lo, at_hi = sign(lo), sign(hi)
            if at_lo == 0:
                root = (lo, lo)
            elif at_hi == 0:
                root = (hi, hi)
            elif at_lo != at_hi:
                root = (lo, hi)
            else:
                continue
            break
        else:
            return None
        if found and (found[-1][1] > root[0] or found[-1] == root):
            return None
        found.append(root)
    return found


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


def chebyshev_s(j: int) -> IntPoly:
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
    isolating cell of certify_cells' lattice 2^-40 Z, one int ratio
    (a + b) / 2^41.

    The intervals are proved from exact signs at the cells of the grid's
    closed-form floats (certify_cells), which place the cells but prove
    nothing. When that proof fails, ValueError names m. It cannot fail
    below m of about 6e6. Each closed-form guess is within 1e-14 of its
    root, and a cell is 2^-40, about 9.1e-13, wide, so the root lies
    in the guess's cell or a neighbour; certify_cells tries the guess's
    cell, then the one below, then the one above. The closest two roots,
    t_n and t_{n-1}, lie 2(cos(pi/m) - cos(3pi/m)), about 8 pi^2 / m^2,
    apart, which exceeds 2.1e-12 for m < 6e6. A cell tried before the
    root's lies within two cells and 1e-14 of the root, so it holds no
    other root, and no cell holds two."""
    # s_n and s_{n-1} have opposite parities and share no degree: no trim
    closure = tuple(map(operator.add, chebyshev_s(grid.n), chebyshev_s(grid.n - 1) + (0,)))
    cells = certify_cells(closure, grid.values)
    if cells is None:
        raise ValueError(f"closure roots for m = {grid.m} not isolated at width 1e-12")
    return RootGrid(grid.m, tuple((a + b) / (2 << CELL_BITS) for a, b in cells))


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
