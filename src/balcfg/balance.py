"""Balanced/uniform verdicts and the combinatorial structure they induce.

A configuration is *balanced* when, for every member v_i, the multiset of
determinants {det(v_i, v_j) : j != i} is symmetric around 0: each value x
appears exactly as often as -x. It is *uniform* when every pair of members is
linearly independent (no zero determinant). The m-th roots of unity are the
model uniform balanced configuration.

Balance of a sorted multiset is equivalent to d[j] = -d[N-1-j] for all j,
which is what the verdicts check; in float mode the comparison happens within
an absolute tolerance derived from the determinant scale.

The verdicts read the configuration's determinant rows one at a time,
Configuration.det_row (one comprehension per row over the unpacked
coordinates, cached), and each row sorted once. is_balanced builds and sorts
rows in order and stops at the first asymmetric one; the symmetry test of one
sorted row lives in _row_fault. The rows hold scaled entries: in exact mode
the ints D^2 * det (D the lcm of the coordinate denominators), which sort,
add and compare at C level with tolerance 0, so no verdict differs from one
on det itself; in float mode the float det values. Every value a caller reads
(a balance witness, det_max) is divided back to input units by
Configuration.unscale. step_constants reads its 2m entries through det2, the
same expression.

The default float tolerance is 1e-9 * det_max, and det_max needs the whole
m x m table. Every verdict first decides against a bracket of it instead
(_Bracket): 1e-9 * max |row 0| below, 1e-9 * a bound on max |v|^2 above. A
comparison that holds at both ends holds at the tolerance itself; one that
falls between them sends the call to det_max. is_uniform in float mode first
bounds every |det| from below by the smallest gap between the members'
arguments, and scans the table only when that bound does not clear the
tolerance. A GL2 image of U_m (odd m) is certified by the canonical map's
residual before any of this runs (canonical.certified_labeling), and builds
no table at all.

For uniform balanced configurations of odd size m = 2n+1 this module also
builds the pairing structure: for each index i the remaining indices split
into n pairs {k, l} with det(v_i, v_k) = -det(v_i, v_l) != 0, and the pair
{k, l} determines i uniquely, giving a map phi from unordered index pairs to
indices. Cyclically, phi({k-a, k+a}) = k, which is the antisymmetry identity
det(v_k, v_{k+a}) = -det(v_k, v_{k-a}) in disguise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import add, ge, lt, sub
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import AmbiguousPairing, InconsistentConstants, NotBalanced, NotUniform
from .geometry import EXACT, Configuration, Scalar, argument, cyclic_index, det2

# Relative factor for the default float tolerance: tol = 1e-9 * max |det|.
DEFAULT_REL_TOL = 1e-9
# Unit roundoff of binary64.
UNIT_ROUNDOFF = 2.0**-53
# Nonzero |coordinates| in this range keep every product of two of them, and
# every sum of two such products, a normal float: there the rounding of each
# float operation is relative, which every bound below relies on.
SAFE_COORDINATE_RANGE = (2.0**-480, 2.0**480)
# Relative slack by which a bound is rounded outward, far above the rounding
# of the few float operations that evaluate it.
BOUND_SLACK = 2.0**-40
# Absolute error bound of a float argument (atan2, the fold into [0, 2*pi)
# and the reduction mod pi), in radians.
ARGUMENT_ERR = 1e-14


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of is_balanced: the verdict, and the (index, value) witness
    where multiset symmetry fails, in input units."""

    balanced: bool
    witness: Optional[Tuple[int, Scalar]]


@dataclass(frozen=True)
class PairingMap:
    """Per index i, the set of n determinant-opposite pairs partitioning the
    other indices; phi maps every unordered index pair to its unique i."""

    per_index: Tuple[FrozenSet[FrozenSet[int]], ...]
    phi: Dict[FrozenSet[int], int]

    def phi_of(self, k: int, l: int) -> int:
        return self.phi[frozenset((k, l))]


@dataclass(frozen=True)
class StepConstants:
    """The common step determinants of a uniform balanced labeled
    configuration: A1 = det(v_k, v_{k+1}) and An = det(v_k, v_{k+n})."""

    A1: Scalar
    An: Scalar


def require_tolerance(tol: float) -> float:
    """tol itself when it is a finite number >= 0; otherwise ValueError.

    A NaN tolerance fails every comparison, so it would pass every row and
    switch every gate off; inf would bless everything and a negative one
    nothing.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol!r}")
    return tol


def _tolerance(c: Configuration, tol: Optional[float]) -> Scalar:
    """Absolute tolerance for comparing the scaled entries of c's
    determinant table: 0 in exact mode (tol ignored), else tol, else
    DEFAULT_REL_TOL * max |det| (float tables have scale 1). An explicit tol
    must pass require_tolerance in either mode."""
    if tol is not None:
        require_tolerance(tol)
    if c.mode == EXACT:
        return 0
    if tol is not None:
        return tol
    return DEFAULT_REL_TOL * c.det_max


def in_safe_range(values) -> bool:
    """True when every nonzero |value| lies in SAFE_COORDINATE_RANGE; NaN
    and inf do not."""
    tiny, huge = SAFE_COORDINATE_RANGE
    return all(x == 0 or tiny <= abs(x) <= huge for x in values)


def norm_sq_bounds(c: Configuration) -> Optional[Tuple[float, float]]:
    """(low, high) with low <= |v|^2 <= high for every member v of a float
    configuration whose coordinates are in_safe_range; None in exact mode or
    outside that range, where no bound below holds.

    fl(x*x + y*y) is within a relative 3u of |v|^2 (u = UNIT_ROUNDOFF), as
    x*x and y*y are normal floats or exact zeros; the bounds widen it by
    BOUND_SLACK.
    """
    if c.mode == EXACT or not in_safe_range(x for v in c.vectors for x in (v.x, v.y)):
        return None
    norms = [v.x * v.x + v.y * v.y for v in c.vectors]
    return min(norms) * (1.0 - BOUND_SLACK), max(norms) * (1.0 + BOUND_SLACK)


class _Bracket:
    """Bounds lo <= eff <= hi on the tolerance eff = _tolerance(c, tol) that
    the verdicts compare with, so that most comparisons are decided without
    det_max, which needs the whole table.

    In exact mode and under an explicit tol, lo = hi = eff. Under the
    default float tolerance, with every coordinate in the safe range:
    - lo = 1e-9 * max |row 0|: det_max is the largest |entry|, as the table
      holds fl(-d) = -fl(d) next to each d;
    - hi = 1e-9 * high from norm_sq_bounds: |fl det2(v_i, v_j)| <=
      (1 + u)^2 (|x_i y_j| + |y_i x_j|) <= (1 + u)^2 |v_i| |v_j|.
    Float multiplication by 1e-9 is monotone, so the bounds hold after it.
    Elsewhere lo = hi = eff, read from det_max.
    """

    def __init__(self, c: Configuration, tol: Optional[float]):
        self.c = c
        self.tol = tol
        norms = None if tol is not None else norm_sq_bounds(c)
        if norms is None:
            self.lo = self.hi = _tolerance(c, tol)
        else:
            self.lo = DEFAULT_REL_TOL * max(map(abs, c.det_row(0)))
            self.hi = DEFAULT_REL_TOL * norms[1]

    def fault(self, test):
        """test(eff) for the true eff, where test(e) is None when the
        comparison passes at tolerance e, and otherwise names what fails
        (the first failing position of a row, or a flag).

        test must be monotone: what passes at e passes at every larger e,
        and what is named at lo and again at hi is named at every e between
        them. Then a None at lo, or the same name at lo and hi, is the
        answer at eff; anything else narrows the bracket to eff itself.
        """
        found = test(self.lo)
        if found is None or self.lo == self.hi or test(self.hi) == found:
            return found
        self.lo = self.hi = _tolerance(self.c, self.tol)
        return test(self.lo)


def _row_fault(srow: tuple, eff: Scalar) -> Optional[int]:
    """The first j at which the sorted row srow (length N) fails symmetry
    within eff, or None when it is symmetric.

    One C-level pass tests |srow[j] + srow[N-1-j]| <= eff for the N // 2
    extreme pairs; then an odd N tests |srow[N // 2]| <= eff for its middle
    entry, and reports j = N // 2, where srow[j] and srow[N-1-j] are that
    one entry. A NaN sum or entry fails no comparison, so it passes.
    """
    half = len(srow) // 2
    bad = list(
        map(lt, repeat(eff, half), map(abs, map(add, srow[:half], reversed(srow))))
    )
    if True in bad:
        return bad.index(True)
    if len(srow) % 2 and abs(srow[half]) > eff:
        return half
    return None


def is_balanced(c: Configuration, tol: Optional[float] = None) -> BalanceReport:
    """Decide multiset symmetry of every determinant row.

    Exact mode compares exactly (tol ignored); float mode compares within an
    absolute tolerance (default 1e-9 * max |det|). The rows are built and
    sorted in order, on demand, and each goes through _row_fault, first
    against the tolerance's bracket.
    The witness is (i, value) for the first row i that fails: the
    larger-magnitude side of its first bad pair, else its middle entry, in
    input units.
    """
    bracket = _Bracket(c, tol)
    for i in range(c.m):
        srow = c.sorted_det_row(i)
        j = bracket.fault(lambda eff: _row_fault(srow, eff))
        if j is not None:
            lo, hi = srow[j], srow[-1 - j]
            value = hi if abs(hi) >= abs(lo) else lo
            return BalanceReport(False, (i, c.unscale(value)))
    return BalanceReport(True, None)


def _gap_floor(c: Configuration) -> Optional[float]:
    """A lower bound on every |fl det2(v_i, v_j)|, i != j, of a float
    configuration of m >= 2 members in the safe range, from the smallest
    cyclic gap g between the members' arguments mod pi; None when there is
    no such bound.

    Any two arguments lie at least g' = g - 3 * ARGUMENT_ERR apart on the
    circle of length pi (an error in each argument, and the rounding of the
    gap), and g' <= pi / 2, so |det2(v_i, v_j)| = |v_i| |v_j|
    |sin(theta_j - theta_i)| >= min |v|^2 * sin(g'). Each float entry is
    within 3u * max |v|^2 of its det2 (see _Bracket).
    """
    norms = norm_sq_bounds(c)
    if norms is None or c.m < 2:
        return None
    args = sorted(math.fmod(argument(v), math.pi) for v in c.vectors)
    gap = min(args[0] + math.pi - args[-1], *map(sub, args[1:], args[:-1]))
    gap -= 3.0 * ARGUMENT_ERR
    low, high = norms
    if gap <= 0:
        return None
    floor = low * math.sin(gap) * (1.0 - BOUND_SLACK) - 3.0 * UNIT_ROUNDOFF * high
    return floor * (1.0 - BOUND_SLACK)


def is_uniform(
    c: Configuration, tol: Optional[float] = None
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """True when no pair of members is linearly dependent; otherwise False
    plus the first violating index pair (i, j), i < j.

    In float mode, a lower bound on every |det| from the smallest gap
    between the members' arguments (_gap_floor) that clears the tolerance's
    upper bracket decides "uniform" with no table. Otherwise the smallest
    |D[i][j]|, j > i, of each row decides in one C-level pass whether the
    row holds such a pair; only that row is scanned for its j.
    """
    if c.mode != EXACT:
        floor = _gap_floor(c)
        if floor is not None and floor > _Bracket(c, tol).hi:
            return True, None
    eff = _tolerance(c, tol)
    for i, row in enumerate(c.det_table):
        rest = row[i + 1 :]
        # an overflowed entry (inf - inf) is NaN and counts as nonzero: min
        # skips a NaN unless it comes first and is returned, and "not > eff"
        # sends that row to the scan, which skips it too
        if rest and not min(map(abs, rest)) > eff:
            zero = list(map(ge, repeat(eff), map(abs, rest)))
            if True in zero:
                return False, (i, i + 1 + zero.index(True))
    return True, None


def require_balanced_uniform(c: Configuration, tol: Optional[float] = None) -> None:
    """Raise NotBalanced with is_balanced's witness, else NotUniform with
    is_uniform's pair, unless c is balanced and uniform at tol."""
    report = is_balanced(c, tol)
    if not report.balanced:
        raise NotBalanced("configuration is not balanced", witness=report.witness)
    ok, pair = is_uniform(c, tol)
    if not ok:
        raise NotUniform("configuration is not uniform", witness=pair)


def even_m_witness(c: Configuration, tol: Optional[float] = None) -> int:
    """For a balanced configuration of even size, return the j >= 1 with the
    smallest |det(v_0, v_j)|, which is 0 (within the tolerance).

    The row multiset at index 0 has odd cardinality m-1; a symmetric multiset
    of odd cardinality contains 0, so such a j exists. The returned j
    certifies non-uniformity by itself: v_0 and v_j are dependent. Only row 0
    is read: when it has no zero, that row alone shows the configuration is
    not balanced, and NotBalanced carries (0, its entry nearest 0) in input
    units.
    """
    if c.m % 2 == 1:
        raise ValueError(f"m = {c.m} is odd; the even-m obstruction does not apply")
    row = c.det_row(0)
    j = min(range(1, c.m), key=lambda i: abs(row[i]))
    if _Bracket(c, tol).fault(lambda eff: True if abs(row[j]) > eff else None):
        raise NotBalanced(
            "row 0 has odd cardinality and no zero determinant",
            witness=(0, c.unscale(row[j])),
        )
    return j


def build_pairing(c: Configuration, tol: Optional[float] = None) -> PairingMap:
    """Construct the pairing map of a uniform balanced configuration of odd
    size: per index i the n determinant-opposite pairs, plus the global phi.

    Each row is matched greedily (sorted extremes pair with each other). The
    indices sort by their entries in the permutation that sorted_det_row
    applies, so each pair's sum is one that is_balanced has already bounded
    by the same tolerance, and every pair cancels. The per-row structures
    are then checked for global disjointness: a pair {k, l} claimed by two
    different rows means the float clustering was inconsistent at this
    tolerance.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"pairing requires odd m >= 3, got m = {c.m}")
    require_balanced_uniform(c, tol)

    per_index: List[FrozenSet[FrozenSet[int]]] = []
    phi: Dict[FrozenSet[int], int] = {}
    for i, row in enumerate(c.det_table):
        order = sorted((j for j in range(c.m) if j != i), key=row.__getitem__)
        pairs = set()
        lo, hi = 0, len(order) - 1
        while lo < hi:
            a, b = order[lo], order[hi]
            key = frozenset((a, b))
            if key in phi:
                raise AmbiguousPairing(
                    f"pair {set(key)} claimed by rows {phi[key]} and {i}",
                    witness=(phi[key], i, tuple(key)),
                )
            phi[key] = i
            pairs.add(key)
            lo += 1
            hi -= 1
        per_index.append(frozenset(pairs))

    # Counting identity: m rows of n pairs fill all m(m-1)/2 unordered pairs.
    assert len(phi) == c.m * (c.m - 1) // 2
    return PairingMap(per_index=tuple(per_index), phi=phi)


def verify_antisymmetry(
    c: Configuration, tol: Optional[float] = None
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Check det(v_k, v_{k+a}) = -det(v_k, v_{k-a}) for all k and a = 1..n,
    indices cyclic. Returns (True, None) or (False, first violating (k, a))."""
    if c.m % 2 == 0:
        raise ValueError("antisymmetry is stated for odd m")
    eff = _tolerance(c, tol)
    m, n = c.m, c.n
    for k, row in enumerate(c.det_table):
        for a in range(1, n + 1):
            fwd = row[cyclic_index(k + a, m)]
            bwd = row[cyclic_index(k - a, m)]
            if abs(fwd + bwd) > eff:
                return False, (k, a)
    return True, None


def step_constants(c: Configuration, tol: Optional[float] = None) -> StepConstants:
    """Return (A1, An) for a uniform balanced labeled configuration and verify
    det(v_k, v_{k+1}) = A1 and det(v_k, v_{k+n}) = An for every k cyclically.

    Only these 2m determinants are read, through det2, the expression the
    table holds, so they are the table's entries bit for bit; each
    comparison is decided against the tolerance's bracket first. Raises
    InconsistentConstants naming the first violating k. A1 and An come back
    in input units.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"step constants require odd m >= 3, got m = {c.m}")
    bracket = _Bracket(c, tol)
    vecs = c.vectors
    m, n = c.m, c.n
    a1, an = det2(vecs[0], vecs[1]), det2(vecs[0], vecs[n])
    for k, v in enumerate(vecs):
        step1 = det2(v, vecs[cyclic_index(k + 1, m)])
        stepn = det2(v, vecs[cyclic_index(k + n, m)])
        if bracket.fault(
            lambda eff: True if abs(step1 - a1) > eff or abs(stepn - an) > eff else None
        ):
            raise InconsistentConstants(
                f"step determinants at k = {k} differ from (A1, An)", witness=k
            )
    return StepConstants(A1=a1, An=an)
