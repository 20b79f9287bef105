"""Integer-coefficient univariate polynomials: arithmetic, primitive gcd and
certified real root isolation from float guesses.

Polynomials are tuples of arbitrary-precision ints, ascending degree, trailing
zeros trimmed; the zero polynomial is the empty tuple. When float guesses for
all deg p roots are at hand, certify_cells proves the roots a posteriori
(Rump 2010): d disjoint cells of a fine dyadic grid, each with an exact sign
change or an exact zero at a grid point, hold all d roots of p, one each.
Every sign is an integer Horner over one denominator, so every decision is
exact. The guesses only place the cells; the proof never trusts them, and a
failed proof returns None for the caller to refuse.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, isfinite
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


def root_bound(p: Sequence[int]) -> int:
    """Power of two B with all real roots of p strictly inside (-B, B)."""
    p = trim(p)
    if len(p) <= 1:
        return 1
    lead = abs(p[-1])
    b = 1
    while sum(abs(a) * b**i for i, a in enumerate(p[:-1])) >= lead * b ** (len(p) - 1):
        b *= 2
    return b


def _halvings(span: Fraction, width: Fraction) -> int:
    # the least s with span / 2^s <= width
    ratio = span / width
    return ((ratio.numerator - 1) // ratio.denominator).bit_length()


def certify_cells(
    p: Sequence[int], guesses: Sequence[float], width: Fraction
) -> Optional[List[Tuple[Fraction, Fraction]]]:
    """All real roots of p as certified dyadic cells of width <= width,
    sorted ascending, from about one exact sign pair per root, or None when
    the guesses cannot prove them. A width that is not positive raises
    ValueError.

    The grid is the level-L dyadic grid of (-B, B), B the root_bound and L
    the least level with 2B / 2^L <= width, whose point j is
    -B + j * 2B / 2^L, every one an integer over one denominator. Each
    guess, in ascending order, picks its cell; when the exact signs at the
    cell's ends agree, the cell below and then the one above are tried. A
    zero sign at a cell end is a root, returned zero-width. If every one of
    the deg p guesses finds a sign change or a zero, in strictly ascending
    cells that share no root, those d disjoint cells hold all d roots of p,
    one each. So every root is real, simple and alone in its cell. None for
    a guess count other than deg p, a guess that is not finite or lies
    outside (-B, B), cells out of order or shared, or a guess that finds no
    root."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    p = trim(p)
    if len(guesses) != len(p) - 1:
        return None
    bound = root_bound(p)
    cell = Fraction(2 * bound, 1 << _halvings(Fraction(2 * bound), width))
    step, den = cell.numerator, cell.denominator
    scaled = _scaled_coeffs(p, den)

    def point(j: int) -> int:
        # grid point j times den
        return j * step - bound * den

    def sign(j: int) -> int:
        value = _scaled_value(scaled, point(j))
        return (value > 0) - (value < 0)

    found: List[Tuple[int, int]] = []
    for guess in guesses:
        if not (isfinite(guess) and -bound < guess < bound):
            return None
        num, gden = guess.as_integer_ratio()
        j = (num + bound * gden) * den // (gden * step)
        for c in (j, j - 1, j + 1):
            lo, hi = sign(c), sign(c + 1)
            if lo == 0:
                root = (c, c)
            elif hi == 0:
                root = (c + 1, c + 1)
            elif lo != hi:
                root = (c, c + 1)
            else:
                continue
            break
        else:
            return None
        if found and (found[-1][1] > root[0] or found[-1] == root):
            return None
        found.append(root)
    return [(Fraction(point(a), den), Fraction(point(b), den)) for a, b in found]


def primitive_gcd(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """Greatest common divisor of p and q in Z[t] up to content: primitive,
    with a positive leading coefficient, or () when both are zero. Euclid on
    pseudo-remainders, each made primitive (Brown 1971)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        while len(a) >= len(b):
            cancel = (0,) * (len(a) - len(b)) + tuple(a[-1] * c for c in b)
            a = sub(tuple(b[-1] * c for c in a), cancel)
        a, b = b, _primitive(a)
    return neg(a) if a and a[-1] < 0 else a


def _primitive(p: Sequence[int]) -> IntPoly:
    p = trim(p)
    content = gcd(*p)
    return tuple(c // content for c in p) if content > 1 else p
