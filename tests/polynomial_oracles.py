"""Polynomial oracles of the tests: the primitive gcd over Z[t], which the
closed-form closure polynomial W_n is checked against (roots builds W_n from
its closed form and computes no gcd); Horner evaluation in the type of the
point; and the exact sign at a rational point by certify_cells' integer
Horner."""

from fractions import Fraction
from math import gcd

from balcfg import polynomials as ip


def primitive_gcd(p, q):
    """Greatest common divisor of p and q in Z[t] up to content: primitive,
    with a positive leading coefficient, or () when both are zero. Euclid on
    pseudo-remainders, each made primitive (Brown 1971)."""
    a, b = _primitive(p), _primitive(q)
    while b:
        while len(a) >= len(b):
            cancel = (0,) * (len(a) - len(b)) + tuple(a[-1] * c for c in b)
            a = ip.sub(tuple(b[-1] * c for c in a), cancel)
        a, b = b, _primitive(a)
    return ip.neg(a) if a and a[-1] < 0 else a


def _primitive(p):
    p = ip.trim(p)
    content = gcd(*p)
    return tuple(c // content for c in p) if content > 1 else p


def eval_at(p, t):
    """Horner evaluation; exactness follows the type of t."""
    acc = 0 * t
    for a in reversed(p):
        acc = acc * t + a
    return acc


def sign_at(p, x: Fraction) -> int:
    """Exact sign of p at a rational point, via integer Horner on
    p(num/den) * den^deg."""
    if not p:
        return 0
    value = ip._scaled_value(ip._scaled_coeffs(p, x.denominator), x.numerator)
    return (value > 0) - (value < 0)
