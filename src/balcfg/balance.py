"""Balanced/uniform verdicts and the combinatorial structure they induce.

A configuration is *balanced* when, for every member v_i, the multiset of
determinants {det(v_i, v_j) : j != i} is symmetric around 0: each value x
appears exactly as often as -x. It is *uniform* when every pair of members is
linearly independent (no zero determinant). The m-th roots of unity are the
model uniform balanced configuration.

Balance of a sorted multiset is equivalent to d[j] = -d[N-1-j] for all j,
which is what the verdicts check; in float mode the comparison happens within
an absolute tolerance derived from the determinant scale.

Every verdict reads the configuration's one determinant table,
Configuration.det_table (one comprehension per row over the unpacked
coordinates), its largest entry and its rows sorted once, all cached:
predicates on one configuration share them. The balance and uniformity scans
run one C-level pass per row; the symmetry test of one sorted row lives in
_row_fault, which the grid search runs on its candidates' rows too. The
verdicts read the table's scaled entries: in exact mode the ints D^2 * det
(D the lcm of the coordinate denominators), which sort, add and compare at
C level with tolerance 0, so no verdict differs from one on det itself; in
float mode the float det values. Every value a caller reads
(BalanceReport.rows, balance witnesses, StepConstants) is divided back to
input units by DetTable.unscale, and rows only when they are read.

For uniform balanced configurations of odd size m = 2n+1 this module also
builds the pairing structure: for each index i the remaining indices split
into n pairs {k, l} with det(v_i, v_k) = -det(v_i, v_l) != 0, and the pair
{k, l} determines i uniquely, giving a map phi from unordered index pairs to
indices. Cyclically, phi({k-a, k+a}) = k, which is the antisymmetry identity
det(v_k, v_{k+a}) = -det(v_k, v_{k-a}) in disguise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import add, ge, lt
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import (
    AmbiguousPairing,
    InconsistentConstants,
    NotBalanced,
    NotUniform,
    OddM,
)
from .geometry import EXACT, Configuration, Scalar, cyclic_index

# Relative factor for the default float tolerance: tol = 1e-9 * max |det|.
DEFAULT_REL_TOL = 1e-9


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of is_balanced on config: verdict, optional (index, value)
    witness where multiset symmetry fails, and (rows) the per-index sorted
    determinant multisets, in input units."""

    balanced: bool
    witness: Optional[Tuple[int, Scalar]]
    config: Configuration = field(repr=False)

    @cached_property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The sorted rows of the table, divided back when first read."""
        table = self.config.det_table
        return tuple(map(table.unscale_row, self.config.sorted_det_rows))


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
    absolute tolerance (default 1e-9 * max |det|). Each sorted row goes
    through _row_fault, the row test that the grid search shares. The
    witness is (i, value) for the first row i that fails: the
    larger-magnitude side of its first bad pair, else its middle entry, in
    input units.
    """
    eff = _tolerance(c, tol)
    for i, srow in enumerate(c.sorted_det_rows):
        j = _row_fault(srow, eff)
        if j is not None:
            lo, hi = srow[j], srow[-1 - j]
            value = hi if abs(hi) >= abs(lo) else lo
            return BalanceReport(False, (i, c.det_table.unscale(value)), c)
    return BalanceReport(True, None, c)


def is_uniform(
    c: Configuration, tol: Optional[float] = None
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """True when no pair of members is linearly dependent; otherwise False
    plus the first violating index pair (i, j), i < j.

    The smallest |D[i][j]|, j > i, of each row decides in one C-level pass
    whether the row holds such a pair; only that row is scanned for its j.
    """
    eff = _tolerance(c, tol)
    for i, row in enumerate(c.det_table.scaled):
        rest = row[i + 1 :]
        # an overflowed entry (inf - inf) is NaN and counts as nonzero: min
        # skips a NaN unless it comes first and is returned, and "not > eff"
        # sends that row to the scan, which skips it too
        if rest and not min(map(abs, rest)) > eff:
            zero = list(map(ge, repeat(eff), map(abs, rest)))
            if True in zero:
                return False, (i, i + 1 + zero.index(True))
    return True, None


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
        raise OddM(f"m = {c.m} is odd; the even-m obstruction does not apply")
    table = c.det_table
    row = table.scaled[0]
    j = min(range(1, c.m), key=lambda i: abs(row[i]))
    if abs(row[j]) > _tolerance(c, tol):
        raise NotBalanced(
            "row 0 has odd cardinality and no zero determinant",
            witness=(0, table.unscale(row[j])),
        )
    return j


def build_pairing(c: Configuration, tol: Optional[float] = None) -> PairingMap:
    """Construct the pairing map of a uniform balanced configuration of odd
    size: per index i the n determinant-opposite pairs, plus the global phi.

    Each row is matched greedily (sorted extremes pair with each other). The
    indices sort by their entries in the permutation that sorted_det_rows
    applies, so each pair's sum is one that is_balanced has already bounded
    by the same tolerance, and every pair cancels. The per-row structures
    are then checked for global disjointness: a pair {k, l} claimed by two
    different rows means the float clustering was inconsistent at this
    tolerance.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"pairing requires odd m >= 3, got m = {c.m}")
    report = is_balanced(c, tol)
    if not report.balanced:
        raise NotBalanced("configuration is not balanced", witness=report.witness)
    ok, pair = is_uniform(c, tol)
    if not ok:
        raise NotUniform("configuration is not uniform", witness=pair)

    per_index: List[FrozenSet[FrozenSet[int]]] = []
    phi: Dict[FrozenSet[int], int] = {}
    for i, row in enumerate(c.det_table.scaled):
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
    for k, row in enumerate(c.det_table.scaled):
        for a in range(1, n + 1):
            fwd = row[cyclic_index(k + a, m)]
            bwd = row[cyclic_index(k - a, m)]
            if abs(fwd + bwd) > eff:
                return False, (k, a)
    return True, None


def step_constants(c: Configuration, tol: Optional[float] = None) -> StepConstants:
    """Return (A1, An) for a uniform balanced labeled configuration and verify
    det(v_k, v_{k+1}) = A1 and det(v_k, v_{k+n}) = An for every k cyclically.

    Raises InconsistentConstants naming the first violating k. A1 and An
    come back in input units.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"step constants require odd m >= 3, got m = {c.m}")
    eff = _tolerance(c, tol)
    table = c.det_table
    m, n = c.m, c.n
    a1, an = table.scaled[0][1], table.scaled[0][n]
    for k, row in enumerate(table.scaled):
        step1 = row[cyclic_index(k + 1, m)]
        stepn = row[cyclic_index(k + n, m)]
        if abs(step1 - a1) > eff or abs(stepn - an) > eff:
            raise InconsistentConstants(
                f"step determinants at k = {k} differ from (A1, An)", witness=k
            )
    return StepConstants(A1=table.unscale(a1), An=table.unscale(an))
