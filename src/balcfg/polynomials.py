"""Integer-coefficient univariate polynomials: arithmetic and certified real
root isolation from float guesses.

Polynomials are tuples of arbitrary-precision ints, ascending degree, trailing
zeros trimmed; the zero polynomial is the empty tuple. When float guesses for
all deg p roots are at hand, certify_cells proves the roots a posteriori
(Rump 2010): d disjoint cells of the one lattice 2^-CELL_BITS * Z, each with
an exact sign change or an exact zero at a lattice point, hold all d roots of
p, one each. Every sign is an integer Horner over the denominator
2^CELL_BITS, so every decision is exact. The guesses only place the cells;
the proof never trusts them, and a failed proof returns None for the caller
to refuse.
"""

from __future__ import annotations

from itertools import zip_longest
from math import isfinite
from typing import List, Optional, Sequence, Tuple

IntPoly = Tuple[int, ...]

# certify_cells' lattice is 2^-40 Z: 2^-40 is the largest power of two <= 1e-12
CELL_BITS = 40


def trim(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def add(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    return trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def neg(p: Sequence[int]) -> IntPoly:
    return tuple([-a for a in p])


def sub(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    return trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


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
        if not isfinite(guess):
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
