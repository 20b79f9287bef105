"""Integer-coefficient univariate polynomials: arithmetic, primitive gcd and
certified real root isolation.

Polynomials are tuples of arbitrary-precision ints, ascending degree, trailing
zeros trimmed; the zero polynomial is the empty tuple. Isolation bisects
dyadic intervals (Vincent-Collins-Akritas) in the Bernstein basis (Rouillier &
Zimmermann 2004): the polynomial is converted once, at the root interval, to
integer Bernstein coefficients; each node counts roots by Descartes' rule as
the sign variations of its coefficients, and splits by one de Casteljau
triangle at 1/2 in integer additions, so every sign decision is exact. A
rational root hit by a bisection midpoint is recorded exactly and divided
out of the polynomial and of both halves. Each isolating interval is then
refined to the cell that bisection would reach, by an exact secant search
(Illinois regula falsi, with bisection steps as a safeguard) over the
integer points of that grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add as _add_ints
from typing import List, Sequence, Tuple

IntPoly = Tuple[int, ...]

# Bisection beyond this depth means the input was not square-free (or the
# interval bookkeeping is broken); callers turn it into a domain error.
MAX_ISOLATION_DEPTH = 200


def trim(coeffs: Sequence[int]) -> IntPoly:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(p: Sequence[int]) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def add(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    size = max(len(p), len(q))
    return trim(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(size)]
    )


def neg(p: Sequence[int]) -> IntPoly:
    return tuple(-a for a in p)


def sub(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    return add(p, neg(q))


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


def _shift(c: Sequence[int], a: int) -> List[int]:
    # p(x) -> p(x + a), synthetic Horner scheme, on a copy
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _onto_unit(p: Sequence[int], a: Fraction, b: Fraction) -> List[int]:
    # den^d * p(a + (b - a) y): the roots of p in (a, b) moved onto (0, 1)
    den = lcm(a.denominator, b.denominator)
    q = _shift([c * den ** (len(p) - 1 - i) for i, c in enumerate(p)], int(a * den))
    return [c * int((b - a) * den) ** i for i, c in enumerate(q)]


def _variations(coeffs: Sequence[int]) -> int:
    # sign changes along coeffs, zeros skipped
    signs = [c > 0 for c in coeffs if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _bernstein(q: Sequence[int]) -> List[int]:
    # the Bernstein coefficients b_k of q on (0, 1), all times lcm_k C(d, k):
    # (1 + y)^d q(1 / (1 + y)) has C(d, k) b_k at y^(d - k)
    d = len(q) - 1
    binomials = [comb(d, k) for k in range(d + 1)]
    scale = lcm(*binomials)
    return [c * (scale // b) for c, b in zip(reversed(_shift(q[::-1], 1)), binomials)]


def _split(b: Sequence[int]) -> Tuple[List[int], List[int]]:
    # de Casteljau at 1/2 in additions: row r of the triangle holds 2^r times
    # the true values, so the halves' coefficients, its edges, are scaled
    # by 2^(d - r) onto 2^d times the Bernstein coefficients of each half
    d = len(b) - 1
    left, right = [], []
    row = list(b)
    for r in range(d + 1):
        left.append(row[0] << (d - r))
        right.append(row[-1] << (d - r))
        row = list(map(_add_ints, row, row[1:]))
    right.reverse()
    return left, right


def descartes_count(p: Sequence[int], a: Fraction, b: Fraction) -> int:
    """Descartes bound on the number of roots of p in the open interval
    (a, b), from p's Bernstein coefficients there, as certified_roots counts
    each node: zero means none, one means exactly one simple root."""
    return _variations(_bernstein(_onto_unit(p, a, b)))


def _deflate(p: Sequence[int], r: Fraction) -> IntPoly:
    # divide p by (x - r) exactly; returns an integer polynomial with the
    # same remaining roots (content rescaled)
    desc = list(reversed(trim(p)))
    out = [Fraction(desc[0])]
    for a in desc[1:-1]:
        out.append(Fraction(a) + r * out[-1])
    remainder = Fraction(desc[-1]) + r * out[-1]
    if remainder != 0:
        raise ArithmeticError("deflation at a non-root")
    scale = 1
    for f in out:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    return trim([int(f * scale) for f in reversed(out)])


def refine_root(
    p: Sequence[int], lo: Fraction, hi: Fraction, width: Fraction
) -> Tuple[Fraction, Fraction]:
    """Shrink an isolating interval to the cell that bisection down to
    hi - lo <= width would return: the cell of the level-s dyadic grid over
    [lo, hi] (s the least with (hi - lo) / 2^s <= width) that holds the root,
    or the root itself, zero-width, when it is a grid point.

    The search runs over the cell index c in [0, 2^s]: grid point c is the
    int (a << s) + c * (b - a) over den << s, with lo = a / den and
    hi = b / den, and every value is the exact integer Horner of
    _scaled_value over that one denominator. The next index is the Illinois
    secant guess (regula falsi that halves the weight of an endpoint kept
    twice; Dowell & Jarratt 1971), clamped strictly inside the bracket, and
    a guess that leaves more than half of the bracket is followed by one
    bisection step. So each pair of evaluations at least halves the bracket,
    and a call makes at most 2s + 2 evaluations, two of them at lo and hi.
    """
    if lo > hi:
        raise ValueError(f"interval is inverted: lo = {lo} > hi = {hi}")
    if lo == hi:
        return lo, hi
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    den = lcm(lo.denominator, hi.denominator)
    a, b = int(lo * den), int(hi * den)
    ratio = (hi - lo) / width
    steps = ((ratio.numerator - 1) // ratio.denominator).bit_length()
    base, span, scale = a << steps, b - a, den << steps
    scaled = _scaled_coeffs(trim(p), scale)
    f_lo = _scaled_value(scaled, base)
    f_hi = _scaled_value(scaled, b << steps)
    if not f_lo or not f_hi or (f_lo > 0) == (f_hi > 0):
        raise ArithmeticError("interval endpoints must straddle the single root")
    # the side test reads the low end's sign, fixed for the whole search;
    # the weights that Illinois halves only steer the guess
    lo_positive = f_lo > 0
    c_lo, c_hi = 0, 1 << steps
    w_lo, w_hi = abs(f_lo), abs(f_hi)
    moved = 0  # +1 (-1): the last step moved the low (high) end
    bisect = False
    while c_hi - c_lo > 1:
        gap = c_hi - c_lo
        if bisect:
            c = (c_lo + c_hi) >> 1
        else:
            c = min(max(c_lo + gap * w_lo // (w_lo + w_hi), c_lo + 1), c_hi - 1)
        value = _scaled_value(scaled, base + c * span)
        if not value:
            root = Fraction(base + c * span, scale)
            return root, root
        if (value > 0) == lo_positive:
            c_lo, w_lo = c, abs(value)
            if moved == 1:
                w_hi >>= 1
            moved = 1
        else:
            c_hi, w_hi = c, abs(value)
            if moved == -1:
                w_lo >>= 1
            moved = -1
        bisect = not bisect and 2 * (c_hi - c_lo) > gap
    return Fraction(base + c_lo * span, scale), Fraction(base + c_hi * span, scale)


def certified_roots(p: Sequence[int], width: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """All real roots of p as certified dyadic intervals of width <= width,
    sorted ascending; exact rational roots come back zero-width.

    The root interval (-B, B) of root_bound is mapped onto (0, 1) and
    converted to integer Bernstein coefficients, two Taylor shifts in all.
    Each bisection node then carries its coefficients, all times one
    positive constant: the sign variations count its roots in O(d), and
    one de Casteljau triangle at 1/2 gives both halves'. A zero apex means
    the midpoint is a root: it is returned zero-width and divided out of p
    and of both halves. Expects a square-free input; non-termination within
    MAX_ISOLATION_DEPTH raises ArithmeticError for the caller to interpret,
    and a width that is not positive raises ValueError.
    """
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    p = trim(p)
    if len(p) <= 1:
        return []
    bound = Fraction(root_bound(p))
    results: List[Tuple[Fraction, Fraction]] = []
    stack = [(p, _bernstein(_onto_unit(p, -bound, bound)), -bound, bound, 0)]
    while stack:
        poly, b, lo, hi, depth = stack.pop()
        if depth > MAX_ISOLATION_DEPTH:
            raise ArithmeticError("root isolation did not terminate; input not square-free?")
        count = _variations(b)
        if count == 0:
            continue
        if count == 1:
            results.append(refine_root(poly, lo, hi, width))
            continue
        mid = (lo + hi) / 2
        left, right = _split(b)
        if right[0] == 0:
            # the apex q(1/2) is 0: mid is a root. Divide y out of the right
            # half, b'_j = b_(j+1) d / (j + 1), and 1 - y out of the left,
            # b'_j = b_j d / (d - j), both times lcm(1..d) / d
            results.append((mid, mid))
            poly = _deflate(poly, mid)
            d = len(b) - 1
            scale = lcm(*range(1, d + 1))
            right = [c * (scale // j) for j, c in enumerate(right[1:], 1)]
            left = [c * (scale // (d - j)) for j, c in enumerate(left[:-1])]
        stack.append((poly, left, lo, mid, depth + 1))
        stack.append((poly, right, mid, hi, depth + 1))
    results.sort(key=lambda iv: iv[0])
    return results


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
