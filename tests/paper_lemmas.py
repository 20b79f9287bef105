"""The steps of the paper's proof, which no balcfg command runs: reference
implementations that the tests check on U_m and against the package.

Pairing, for a uniform balanced configuration of odd size m = 2n+1: for
each index i the remaining indices split into n pairs {k, l} with
det(v_i, v_k) = -det(v_i, v_l) != 0, and the pair {k, l} determines i
uniquely, giving a map phi from unordered index pairs to indices.
Cyclically, phi({k-a, k+a}) = k, which is the antisymmetry identity
det(v_k, v_{k+a}) = -det(v_k, v_{k-a}) in disguise.

Model sequences: u_0 = (1, 0), w_0 = (t, -1), u_{i+1} = t * w_i - u_i,
w_{i+1} = t * u_{i+1} - w_i, the sign and index placement being forced by
the seed-triple linear solve (expand v_i over the basis {v_{n+i}, v_{i-1}};
the divisor is -A_n and the step ratio A_1/A_n equals -t in the frame where
v_0 = (1,0), v_n = (0,1), v_{n+1} = (t,-1)). Interleaved as z_0 = u_0, z_1 =
w_0, z_2 = u_1, ..., every z_j = (s_j, -s_{j-1}) for the scalar recurrence
s_{-1} = 0, s_0 = 1, s_{j+1} = t * s_j - s_{j-1}, so s_j = U_j(t/2)
(balcfg.sequences.chebyshev_s). As U_j has degree j and the parity of j,
x(u_i) is even of degree 2i, y(u_i) odd of degree 2i-1, x(w_i) odd of
degree 2i+1 and y(w_i) even of degree 2i.

Seed-triple reconstruction: with A1 = det(v_n, v_{n+1}), An = det(v_0, v_n)
and r = -A1/An, the members interleave out of the triple via

    v_i      = r v_{n+i} - v_{i-1}
    v_{n+i+1} = r v_i - v_{n+i}        for i = 1..n-1,

the first sign being forced by det(v_{i-1}, v_{n+i}) = -An. Read in the order
z = v_0, v_{n+1}, v_1, v_{n+2}, ..., that is the one three-term recurrence
z_{j+1} = r z_j - z_{j-1}, the same as the model sequences' (r = t there).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from balcfg import polynomials as ip
from balcfg.balance import _Bracket, require_balanced_uniform
from balcfg.canonical import _negligible
from balcfg.errors import CertificateError, SingularFrame
from balcfg.geometry import Configuration, PlaneVector, Scalar, det2


class AmbiguousPairing(CertificateError):
    """Float clustering produced an inconsistent pairing at this tolerance."""


class PairingMap(NamedTuple):
    """Per index i, the set of n determinant-opposite pairs partitioning the
    other indices; phi maps every unordered index pair to its unique i."""

    per_index: Tuple[FrozenSet[FrozenSet[int]], ...]
    phi: Dict[FrozenSet[int], int]

    def phi_of(self, k: int, l: int) -> int:
        return self.phi[frozenset((k, l))]


def build_pairing(c: Configuration, tol: Optional[float] = None) -> PairingMap:
    """Construct the pairing map of a uniform balanced configuration of odd
    size: per index i the n determinant-opposite pairs, plus the global phi.

    Each row is matched greedily (sorted extremes pair with each other). The
    other indices sort by their entries as is_balanced sorts the row, so
    each pair's sum is one that is_balanced has already bounded by the same
    tolerance, and every pair cancels. Rows are computed one at a time.
    The per-row structures are then checked for global disjointness: a pair
    {k, l} claimed by two different rows means the float clustering was
    inconsistent at this tolerance.
    """
    if c.m % 2 == 0 or c.m < 3:
        raise ValueError(f"pairing requires odd m >= 3, got m = {c.m}")
    require_balanced_uniform(c, tol)

    per_index: List[FrozenSet[FrozenSet[int]]] = []
    phi: Dict[FrozenSet[int], int] = {}
    for i, row in enumerate(map(c.det_row, range(c.m))):
        order = sorted((j for j in range(c.m) if j != i), key=row.__getitem__)
        pairs = [frozenset(pair) for pair in zip(order[: c.n], reversed(order))]
        for key in pairs:
            if key in phi:
                raise AmbiguousPairing(
                    f"pair {set(key)} claimed by rows {phi[key]} and {i}",
                    witness=(phi[key], i, tuple(key)),
                )
            phi[key] = i
        per_index.append(frozenset(pairs))

    # Counting identity: m rows of n pairs fill all m(m-1)/2 unordered pairs.
    assert len(phi) == c.m * (c.m - 1) // 2
    return PairingMap(per_index=tuple(per_index), phi=phi)


def verify_antisymmetry(
    c: Configuration, tol: Optional[float] = None
) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Check det(v_k, v_{k+a}) = -det(v_k, v_{k-a}) for all k and a = 1..n,
    indices cyclic, each row against the tolerance's bracket first. Returns
    (True, None) or (False, first violating (k, a))."""
    if c.m % 2 == 0:
        raise ValueError("antisymmetry is stated for odd m")
    bracket = _Bracket(c, tol)
    m, n = c.m, c.n
    for k, row in enumerate(map(c.det_row, range(c.m))):
        sums = [abs(row[(k + a) % m] + row[(k - a) % m]) for a in range(1, n + 1)]
        j = bracket.above(sums, row)
        if j is not None:
            return False, (k, j + 1)
    return True, None


def shift_up(p: Sequence[int]) -> ip.IntPoly:
    """Multiply by t."""
    return ip.trim((0,) + tuple(p))


def is_even_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[1::2])


def is_odd_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[0::2])


class PolyPair(NamedTuple):
    """A vector-valued polynomial function of t: (x(t), y(t)), both integer
    polynomials ascending by degree."""

    x: ip.IntPoly
    y: ip.IntPoly


def _interleaved(n: int, zero, one, times_t, sub, neg, pair) -> Tuple[list, list]:
    """u_0..u_n and w_0..w_n from the scalar recurrence s_{j+1} = t s_j -
    s_{j-1}, in the ring that zero, one, times_t, sub and neg define; pair
    builds one vector z_j = (s_j, -s_{j-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = [zero, one]  # s[j + 1] holds s_j, from s_{-1} = 0
    for _ in range(2 * n + 1):
        s.append(sub(times_t(s[-1]), s[-2]))
    z = [pair(s[j + 1], neg(s[j])) for j in range(2 * n + 2)]
    return z[0::2], z[1::2]


def numeric_sequences(t: Scalar, n: int) -> Tuple[List[PlaneVector], List[PlaneVector]]:
    """u_0..u_n and w_0..w_n evaluated at t, in t's arithmetic mode."""
    if isinstance(t, float):
        one, zero = 1.0, 0.0
    else:
        t = Fraction(t)
        one, zero = Fraction(1), Fraction(0)
    # zero - s rather than -s keeps u_0 = (1, +0)
    return _interleaved(
        n, zero, one, lambda s: t * s, operator.sub, lambda s: zero - s, PlaneVector
    )


def symbolic_sequences(n: int) -> Tuple[List[PolyPair], List[PolyPair]]:
    """u_0..u_n and w_0..w_n as exact integer-polynomial pairs."""
    return _interleaved(n, (), (1,), shift_up, ip.sub, ip.neg, PolyPair)


class ParityVerdict(NamedTuple):
    ok: bool
    index: Optional[int] = None
    which: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def check_parity_degrees(us: Sequence[PolyPair], ws: Sequence[PolyPair]) -> ParityVerdict:
    """Verify, for every i >= 1 present in both sequences: x(u_i) even of
    degree 2i, y(u_i) odd of degree 2i-1, x(w_i) odd of degree 2i+1, y(w_i)
    even of degree 2i. Returns the first violation as (index, which)."""
    upper = min(len(us), len(ws))
    for i in range(1, upper):
        u, w = us[i], ws[i]
        if not (is_even_poly(u.x) and ip.degree(u.x) == 2 * i):
            return ParityVerdict(False, i, "u.x")
        if not (is_odd_poly(u.y) and ip.degree(u.y) == 2 * i - 1):
            return ParityVerdict(False, i, "u.y")
        if not (is_odd_poly(w.x) and ip.degree(w.x) == 2 * i + 1):
            return ParityVerdict(False, i, "w.x")
        if not (is_even_poly(w.y) and ip.degree(w.y) == 2 * i):
            return ParityVerdict(False, i, "w.y")
    return ParityVerdict(True)


def reconstruct_from_triple(
    v0: PlaneVector, vn: PlaneVector, vn1: PlaneVector, m: int
) -> Configuration:
    """Rebuild the whole configuration in label order from (v_0, v_n, v_{n+1}).

    Works in the vectors' own arithmetic mode (exact stays exact), on two
    columns. For m = 3 the triple already is the configuration.
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"reconstruction needs odd m >= 3, got {m}")
    n = (m - 1) // 2
    an = det2(v0, vn)
    if _negligible((an,), lambda: math.hypot(v0.x, v0.y) * math.hypot(vn.x, vn.y)):
        raise SingularFrame(f"det(v0, vn) = {an}; seed frame is singular")
    r = -(det2(vn, vn1) / an)
    # z_j = slot j/2 (j even) or slot n+1+j//2 (j odd): z_{j+1} = r z_j - z_{j-1}
    xs, ys = [v0.x, vn1.x], [v0.y, vn1.y]
    for j in range(2, 2 * n):
        x, y = r * xs[j - 1] - xs[j - 2], r * ys[j - 1] - ys[j - 2]
        if _negligible((x, y), lambda: max(math.hypot(v.x, v.y) for v in (v0, vn, vn1))):
            slot = j // 2 if j % 2 == 0 else n + 1 + j // 2
            raise ValueError(f"reconstruction produced a zero vector at slot {slot}")
        xs.append(x)
        ys.append(y)
    return Configuration(xs[0::2] + [vn.x] + xs[1::2], ys[0::2] + [vn.y] + ys[1::2])
