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

The general grid route: t_C is matched against the whole closure grid
t_k = 2cos(2k*pi/m), k = 1..n (match_grid_index), and slot j takes the
exponent of the k-th diagram (slot_exponents): slot i -> -2k i and slot
n+1+i -> -k (1+2i) (mod m), a bijection onto Z/m exactly when gcd(k, m) = 1.
At k = n that is slot j -> j, since -2n = 1 (mod m). balcfg.balance maps
onto that one candidate and lets the residual against w^j decide, with no
gate on t_C or on y; the tests keep the general route, gated as the package
once was (GRID_TOL, NotNormalized, NoGridMatch), as a differential oracle,
and on every input it meets it finds k = n.

Equivalence: by the theorem, two configurations of one size are
GL2-equivalent when both canonicalize, so gl2_equivalent decides a pair by
two canonicalize calls; a command certifies one input at a time.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from balcfg.balance import RESIDUAL_TOL, _Bracket, canonicalize, require_balanced_uniform
from balcfg.errors import CertificateError, SingularFrame
from balcfg.geometry import FRAME_DET_TOL, Configuration, PlaneVector, Scalar, det2
from balcfg.sequences import IntPoly, closed_form_t, trim
from polynomial_oracles import degree, neg, sub


# |t - t_k| and |y + 1| matching tolerance of the general grid route
GRID_TOL = 1e-6


class AmbiguousPairing(CertificateError):
    """Float clustering produced an inconsistent pairing at this tolerance."""


class NotNormalized(CertificateError):
    """g . v_{n+1} does not have y = -1: non-balanced or mislabeled input."""


class NoGridMatch(CertificateError):
    """The extracted parameter t lies on no grid point: not GL2-equivalent
    to the roots of unity."""


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


def shift_up(p: Sequence[int]) -> IntPoly:
    """Multiply by t."""
    return trim((0,) + tuple(p))


def is_even_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[1::2])


def is_odd_poly(p: Sequence[int]) -> bool:
    return all(a == 0 for a in p[0::2])


class PolyPair(NamedTuple):
    """A vector-valued polynomial function of t: (x(t), y(t)), both integer
    polynomials ascending by degree."""

    x: IntPoly
    y: IntPoly


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
    return _interleaved(n, (), (1,), shift_up, sub, neg, PolyPair)


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
        if not (is_even_poly(u.x) and degree(u.x) == 2 * i):
            return ParityVerdict(False, i, "u.x")
        if not (is_odd_poly(u.y) and degree(u.y) == 2 * i - 1):
            return ParityVerdict(False, i, "u.y")
        if not (is_odd_poly(w.x) and degree(w.x) == 2 * i + 1):
            return ParityVerdict(False, i, "w.x")
        if not (is_even_poly(w.y) and degree(w.y) == 2 * i):
            return ParityVerdict(False, i, "w.y")
    return ParityVerdict(True)


def _negligible(parts: Tuple[Scalar, ...], scale: Callable[[], float]) -> bool:
    """Whether a determinant (d,) or a vector (x, y) is degenerate: exactly 0
    in exact mode, of length at most FRAME_DET_TOL * scale() in float mode
    (relative to the inputs' scale, so it holds at any scale)."""
    if isinstance(parts[0], float):
        return math.hypot(*parts) <= FRAME_DET_TOL * scale()
    return not any(parts)


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


def match_grid_index(t: Scalar, m: int) -> int:
    """The k in 1..n nearest to t on the grid t_k = 2cos(2k*pi/m), provided
    t lies within the window of t_k: GRID_TOL, or a quarter of the gap from
    t_k to its nearest grid neighbour when that is smaller.

    Since acos(t_k/2) = 2k*pi/m, k is read off directly as the rounded
    m*acos(t/2)/(2*pi), with t/2 clamped to [-1, 1] and k to 1..n. The
    smallest gap, between t_{n-1} and t_n, is about 8*pi^2/m^2, so the
    window is GRID_TOL for every m <= 4441 and shrinks as 1/m^2 beyond, so
    the windows of two neighbours never meet (GRID_TOL alone makes them
    overlap from m = 6285 on). A t that is not finite raises ValueError:
    it proves nothing about equivalence.
    """
    if m % 2 == 0 or m < 3:
        raise ValueError(f"matching needs odd m >= 3, got {m}")
    if not math.isfinite(t):
        raise ValueError(f"t = {t!r} is not finite")
    n = (m - 1) // 2
    half = min(1.0, max(-1.0, float(t) / 2.0))
    k = min(n, max(1, round(m * math.acos(half) / (2.0 * math.pi))))
    t_k = closed_form_t(m, k)
    gaps = [abs(closed_form_t(m, j) - t_k) for j in (k - 1, k + 1) if 1 <= j <= n]
    if abs(float(t) - t_k) <= min([GRID_TOL, *(g / 4 for g in gaps)]):
        return k
    raise NoGridMatch(
        f"t = {float(t):.9g} is not a grid parameter for m = {m}: "
        "the configuration is not equivalent to the roots of unity",
        witness=float(t),
    )


def slot_exponents(m: int, k: int) -> Tuple[int, ...]:
    # -k*j mod m over the slot order j = 0, 2, .., 2n, 1, 3, .., 2n-1: that
    # order is all of Z/m, so this is a bijection exactly when gcd(k, m) = 1
    return tuple(-k * j % m for j in (*range(0, m, 2), *range(1, m, 2)))


class EquivalenceVerdict(NamedTuple):
    equivalent: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.equivalent


def gl2_equivalent(
    a: Configuration, b: Configuration, tol: float = RESIDUAL_TOL
) -> EquivalenceVerdict:
    """Two configurations of one size are equivalent when both canonicalize
    (transitivity onto the roots of unity), and not when exactly one does: the
    false verdict carries that one's certificate, and balance and uniformity
    are GL2 invariants. When neither canonicalizes, no certificate decides,
    and ValueError names both refusals. A precision refusal
    (DuplicateArgument, SingularFrame) is raised, as canonicalize raises it."""
    if a.m != b.m:
        return EquivalenceVerdict(False, f"size mismatch: {a.m} != {b.m}")
    refused = []
    for which, cfg in (("first", a), ("second", b)):
        try:
            canonicalize(cfg, tol)
        except CertificateError as exc:
            refused.append(f"{which}: {type(exc).__name__}")
    if len(refused) == 2:
        raise ValueError(f"equivalence undecided, neither canonicalizes ({', '.join(refused)})")
    return EquivalenceVerdict(not refused, *refused)
