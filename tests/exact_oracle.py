"""The exact oracle: every verdict decided on the exact determinant table.

Read on the exact rationals that a configuration's coordinates hold, the
paper's definitions decide every verdict: balanced when each row's multiset
of det(v_i, v_j), j != i, is symmetric about 0, uniform when no pair is
dependent. This module builds that table apart from balcfg: the ints x*D,
y*D of Fraction(coordinate), D the lcm of the denominators, whose pairwise
determinants x_i*y_j - y_i*x_j are the entries D^2 det(v_i, v_j). The
tolerance is read in the same units: 0 in exact mode; in float mode an
explicit tol times D^2, or 1e-9 times the largest entry, each factor read as
the rational its float holds. A witness is det2 of the pair that decided, in
the members' own arithmetic, the value the verdicts report.

Every test that checks a verdict against the table reads it here.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from balcfg.errors import InconsistentConstants, NotBalanced

# the default tolerance relative to the largest |det|, read exactly
REL_TOL = Fraction(1e-9)


class Table(NamedTuple):
    """rows[i][j] = D^2 det(v_i, v_j), an int; scale = D^2."""

    rows: list
    scale: int
    exact: bool

    @property
    def det_max(self) -> int:
        """The largest |det| in table units: the largest entry, as the table
        holds -d next to each d."""
        return max(map(max, self.rows))

    def tolerance(self, tol=None) -> int:
        """The tolerance in table units, floored: the entries are ints, so
        |e| <= eff exactly when |e| <= floor(eff)."""
        if self.exact:
            return 0
        if tol is not None:
            return math.floor(Fraction(tol) * self.scale)
        return math.floor(REL_TOL * self.det_max)


def _table(points, exact: bool) -> Table:
    fractions = [(Fraction(x), Fraction(y)) for x, y in points]
    d = math.lcm(*(f.denominator for point in fractions for f in point))
    ints = [(int(x * d), int(y * d)) for x, y in fractions]
    rows = [[xi * yj - yi * xj for xj, yj in ints] for xi, yi in ints]
    return Table(rows, d * d, exact)


def table(c) -> Table:
    """The exact table of a Configuration, in its mode."""
    return _table(zip(c.xs, c.ys), c.mode == "exact")


def _det2(c, i, j):
    return c.xs[i] * c.ys[j] - c.ys[i] * c.xs[j]


def _unbalanced(rows, eff):
    """(i, value) for the first row i that is not symmetric within eff, else
    None. Row i sorted without its diagonal, srow, fails at the first pair
    with |srow[j] + srow[N-1-j]| > eff, j < N // 2, naming the pair's larger
    end in magnitude (the upper one on a tie), or, when N is odd, at a middle
    entry with |srow[N // 2]| > eff, naming it."""
    for i, row in enumerate(rows):
        srow = sorted(row[:i] + row[i + 1 :])
        half = len(srow) // 2
        for lo, hi in zip(srow[:half], reversed(srow)):
            if abs(lo + hi) > eff:
                return i, hi if abs(hi) >= abs(lo) else lo
        if len(srow) % 2 and abs(srow[half]) > eff:
            return i, srow[half]
    return None


def _dependent(rows, eff):
    """The first pair (i, j), i < j, with |entry| <= eff, else None."""
    for i, row in enumerate(rows):
        for j in range(i + 1, len(row)):
            if abs(row[j]) <= eff:
                return i, j
    return None


def is_balanced(c, tol=None):
    """(balanced, witness): witness (i, det2(v_i, v_j)) for the first j whose
    entry in row i is the value that decided, else None."""
    t = table(c)
    fault = _unbalanced(t.rows, t.tolerance(tol))
    if fault is None:
        return True, None
    i, value = fault
    return False, (i, _det2(c, i, t.rows[i].index(value)))


def is_uniform(c, tol=None):
    """(uniform, the first dependent pair or None)."""
    t = table(c)
    pair = _dependent(t.rows, t.tolerance(tol))
    return pair is None, pair


def even_m_witness(c, tol=None):
    """The first j >= 1 with the smallest |det(v_0, v_j)|; NotBalanced with
    witness (0, det2(v_0, v_j)) when that is not within the tolerance."""
    t = table(c)
    row = t.rows[0]
    j = min(range(1, c.m), key=lambda k: abs(row[k]))
    if abs(row[j]) > t.tolerance(tol):
        raise NotBalanced("", witness=(0, _det2(c, 0, j)))
    return j


def step_constants(c, tol=None):
    """(A1, An) = det2 of (v_0, v_1) and (v_0, v_n), once every
    det(v_k, v_{k+1}) and det(v_k, v_{k+n}) is within the tolerance of
    det(v_0, v_1) and det(v_0, v_n); InconsistentConstants names the first
    k that is not."""
    t = table(c)
    eff = t.tolerance(tol)
    rows, m, n = t.rows, c.m, c.n
    a1, an = rows[0][1], rows[0][n]
    for k in range(m):
        if abs(rows[k][(k + 1) % m] - a1) > eff or abs(rows[k][(k + n) % m] - an) > eff:
            raise InconsistentConstants("", witness=k)
    return _det2(c, 0, 1), _det2(c, 0, n)


def verdicts(vectors):
    """(balanced, uniform) of a list of [x, y] floats at the default
    tolerance, as check decides it for a float file of those vectors."""
    t = _table(vectors, exact=False)
    eff = t.tolerance()
    return _unbalanced(t.rows, eff) is None, _dependent(t.rows, eff) is None
