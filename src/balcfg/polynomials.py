"""Integer-coefficient univariate polynomials: arithmetic and certified real
root isolation from float guesses.

Polynomials are tuples of arbitrary-precision ints, ascending degree, trailing
zeros trimmed; the zero polynomial is the empty tuple. When float guesses for
all deg p roots are at hand, certify_cells proves the roots a posteriori
(Rump 2010): d disjoint cells of the lattice h * Z, h the largest power of
two within the width asked for, each with an exact sign change or an exact
zero at a lattice point, hold all d roots of p, one each. Every sign is an
integer Horner over one power-of-two denominator, so every decision is
exact. The guesses only place the cells; the proof never trusts them, and a
failed proof returns None for the caller to refuse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isfinite
from typing import List, Optional, Sequence, Tuple

IntPoly = Tuple[int, ...]


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


def shift_up(p: Sequence[int]) -> IntPoly:
    """Multiply by t."""
    return trim((0,) + tuple(p))


def eval_at(p: Sequence[int], t):
    """Horner evaluation; exactness follows the type of t."""
    acc = 0 * t
    for a in reversed(p):
        acc = acc * t + a
    return acc


def is_even_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[1::2])


def is_odd_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[0::2])


def sign_at(p: Sequence[int], x: Fraction) -> int:
    """Exact sign of p at a rational point, via integer Horner on
    p(num/den) * den^deg."""
    if not p:
        return 0
    value = _scaled_value(_scaled_coeffs(p, x.denominator), x.numerator)
    return (value > 0) - (value < 0)


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
    p: Sequence[int], guesses: Sequence[float], width: Fraction
) -> Optional[Tuple[int, List[Tuple[int, int]]]]:
    """All real roots of p as certified cells of the lattice h * Z, sorted
    ascending, from about one exact sign pair per root, or None when the
    guesses cannot prove them: (den, [(a, b), ...]), each cell [a/den, b/den]
    with int ends over one power-of-two den. h is the largest power of two
    <= width; a width that is not positive raises ValueError.

    Each guess, in ascending order, picks the lattice cell that holds it;
    when the exact signs at the cell's ends agree, the cell below and then
    the one above are tried. A zero sign at a cell end is a root, returned
    zero-width. If every one of the deg p guesses finds a sign change or a
    zero, in strictly ascending cells that share no root, those d disjoint
    cells hold all d roots of p, one each. So every root is real, simple and
    alone in its cell, and no bound on the roots is needed. None for a guess
    count other than deg p, a guess that is not finite, cells out of order
    or shared, or a guess that finds no root."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    p = trim(p)
    if len(guesses) != len(p) - 1:
        return None
    # h = 2^k = step / den: 2^(k-1) < width < 2^(k+1) before the check
    wnum, wden = width.as_integer_ratio()
    k = wnum.bit_length() - wden.bit_length()
    if wden << max(k, 0) > wnum << max(-k, 0):
        k -= 1
    step, den = 1 << max(k, 0), 1 << max(-k, 0)
    scaled = _scaled_coeffs(p, den)

    def sign(a: int) -> int:
        # the sign of p at a / den
        value = _scaled_value(scaled, a)
        return (value > 0) - (value < 0)

    found: List[Tuple[int, int]] = []
    for guess in guesses:
        if not isfinite(guess):
            return None
        num, gden = guess.as_integer_ratio()
        cell = num * den // (gden * step) * step
        for lo in (cell, cell - step, cell + step):
            hi = lo + step
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
    return den, found
