"""Polynomial oracles of the tests: degree, negation, sum and difference of
integer polynomials (ascending tuples, as balcfg.sequences); the primitive
gcd over Z[t], which the closed-form closure polynomial W_n is checked
against (roots builds W_n from its closed form and computes no gcd); Horner
evaluation in the type of the point; and the exact sign at a rational point
by certify_cells' integer Horner."""

from fractions import Fraction
from itertools import zip_longest
from math import gcd

from balcfg.sequences import _scaled_coeffs, _scaled_value, trim


def degree(p):
    """Degree, with the zero polynomial at -1."""
    return len(trim(p)) - 1


def neg(p):
    return tuple([-a for a in p])


def add(p, q):
    return trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


def sub(p, q):
    return trim([a - b for a, b in zip_longest(p, q, fillvalue=0)])


def primitive_gcd(p, q):
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


def _primitive(p):
    p = trim(p)
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
    value = _scaled_value(_scaled_coeffs(p, x.denominator), x.numerator)
    return (value > 0) - (value < 0)
