"""Independent oracles: seeded random invertible maps, seeded perturbations,
and exhaustive enumeration of balanced configurations over small exact grids.

Enumeration treats a configuration as a set of pairwise distinct nonzero grid
vectors (the objects the definitions quantify over) and lists each set once,
in lexicographic order of the sorted representative, so results are
reproducible byte for byte. It never tests all C(n, m) candidates: a balanced
set is collinear or sums to zero, so it lists the collinear sets of each line
of the grid (Configuration.lines) and meets the zero-sum sets in the middle,
joining the sums of the grid's ceil(m/2)-subsets with a table of its
floor(m/2)-subset sums (for m > n/2, of the n - m points each set leaves
out). A zero-sum set on 4 or more lines whose third moment is not zero is
dropped, and every other one that is not collinear is decided by is_balanced
on its own Configuration; is_uniform compares each hit's lines.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .balance import is_balanced, is_uniform
from .canonical import LinearMap2
from .errors import BudgetExceeded
from .geometry import Configuration

DEFAULT_BUDGET = 10**7
# Largest condition number of a random_invertible map.
COND_MAX = 100.0


def random_invertible(seed: int) -> LinearMap2:
    """Seeded random 2x2 map with condition number <= COND_MAX and
    |det| >= 1/COND_MAX, by rejection sampling of entries in [-1, 1]."""
    rng = random.Random(seed)
    while True:
        a, b, c, d = (rng.uniform(-1.0, 1.0) for _ in range(4))
        det = a * d - b * c
        if abs(det) < 1.0 / COND_MAX:
            continue
        # singular values of a 2x2: s^2 are the eigenvalues of G^T G
        trace = a * a + b * b + c * c + d * d
        disc = math.sqrt(max(trace * trace - 4.0 * det * det, 0.0))
        smin_sq = (trace - disc) / 2.0
        if smin_sq <= 0.0:
            continue
        cond = math.sqrt((trace + disc) / 2.0 / smin_sq)
        if cond <= COND_MAX:
            return LinearMap2(a, b, c, d)


def perturb(c: Configuration, eps: float, seed: int = 0) -> Configuration:
    """Add a seeded pseudo-random offset of Euclidean magnitude <= eps to
    every member; eps = 0 returns the float image unchanged."""
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be a finite number >= 0, got {eps!r}")
    rng = random.Random(seed)
    out = []
    floats = c.as_float()
    for x, y in zip(floats.xs, floats.ys):
        radius = eps * rng.random()
        theta = 2.0 * math.pi * rng.random()
        out.append((x + radius * math.cos(theta), y + radius * math.sin(theta)))
    return Configuration(out)


@dataclass(frozen=True)
class SearchSpec:
    """Exhaustive-search request: size m over an exact coordinate grid."""

    m: int
    coordinate_set: Tuple[Fraction, ...]
    require_uniform: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        coords = tuple(sorted({Fraction(x) for x in self.coordinate_set}))
        if not coords:
            raise ValueError("coordinate set must be nonempty")
        object.__setattr__(self, "coordinate_set", coords)


def enumerate_balanced(spec: SearchSpec) -> List[Configuration]:
    """All balanced configurations of m pairwise distinct vectors over the
    grid, exact arithmetic, in deterministic lexicographic order; optionally
    only the uniform ones, which is_uniform keeps by their lines.

    Row i of a configuration sums to det(v_i, S), S the sum of its members,
    and a symmetric row sums to 0. So a balanced set is collinear (every det
    is 0, and it is balanced) or has S = 0 (two independent members force
    it). The collinear sets are listed on each line of the grid's own
    Configuration. The zero-sum sets are met in the middle (Horowitz & Sahni
    1974, see _join) on its packed _det_coords ints, x*K + y with K =
    2*m*max|coordinate| + 1, so a sum of at most m points is 0 exactly when
    both of its coordinate sums are. When m > n/2 the join lists the n - m
    points left out, whose sum is the grid's total.

    A balanced set on 4 or more lines through the origin also has a zero
    third moment (sum x^3, sum x^2 y, sum x y^2, sum y^3): every odd power
    sum of a symmetric row is 0, so the cubic form sum_j det(u, v_j)^3
    vanishes on the line of every member, and a nonzero binary cubic
    vanishes on at most 3 lines. The four sums are packed into one int the
    same way. A zero-sum set that fails this test is dropped; every other
    one that is not collinear is decided by is_balanced on its own
    Configuration. No grid table is built, but the join's table of
    C(n, floor(s/2)) entries, s = min(m, n - m), is held in memory, at about
    100 to 250 B per entry. BudgetExceeded refuses a join of more than
    DEFAULT_BUDGET left halves, C(n, ceil(s/2)) for n grid vectors.
    """
    coords = spec.coordinate_set
    # the grid's nonzero vectors, counted before any is built
    m, n = spec.m, len(coords) ** 2 - (0 in coords)
    if m > n:
        return []
    # a set sums to zero exactly when the rest of the grid sums to the
    # grid's total, so the join lists the smaller of the two
    size = min(m, n - m)
    left = size - size // 2
    # C(n, left) = C(n, k), and C(n, j) grows with j <= k <= n / 2
    k = min(left, n - left)
    subsets = 1
    for j in range(1, k + 1):
        subsets = subsets * (n - j + 1) // j
        if subsets > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"C({n}, {left}) {'=' if j == k else '>='} {subsets} subsets "
                f"exceed the budget of {DEFAULT_BUDGET}"
            )
    # the grid's nonzero vectors, lexicographic by (x, y): their columns,
    # ints and lines
    grid = Configuration(*zip(*[(x, y) for x in coords for y in coords if x or y]))
    px, py, line_of = grid.xs, grid.ys, grid.lines
    xs, ys, _ = grid._det_coords
    lines = {}
    for i, line in enumerate(line_of):
        lines.setdefault(line, []).append(i)
    found = {
        idx: Configuration([px[a] for a in idx], [py[a] for a in idx])
        for members in lines.values()
        for idx in itertools.combinations(members, m)
    }
    keys = _pack(list(zip(xs, ys)), m)
    cubes = _pack([(x * x * x, x * x * y, x * y * y, y * y * y) for x, y in zip(xs, ys)], m)
    target = 0 if size == m else sum(keys)
    for part in _join(keys, size, target):
        idx = part if size == m else tuple(sorted(set(range(n)).difference(part)))
        on = len({line_of[a] for a in idx})
        if on == 1 or on >= 4 and sum([cubes[a] for a in idx]):
            continue
        cfg = Configuration([px[a] for a in idx], [py[a] for a in idx])
        if is_balanced(cfg).balanced:
            found[idx] = cfg
    hits = [found[idx] for idx in sorted(found)]
    if spec.require_uniform:
        return [cfg for cfg in hits if is_uniform(cfg)[0]]
    return hits


def _join(keys: List[int], size: int, target: int):
    """Every increasing index tuple of `size` members whose keys sum to
    `target`, met in the middle: a table maps target minus the sum of each
    floor(size/2)-subset to its index tuples, each ceil(size/2)-subset looks
    up its own sum, and a right part is kept when it starts past the left
    part's last index, so each tuple is met once."""
    n = len(keys)
    left, right = size - size // 2, size // 2
    table = {}
    for total, idx in zip(
        map(sum, itertools.combinations(keys, right)), itertools.combinations(range(n), right)
    ):
        table.setdefault(target - total, []).append(idx)
    # only the left parts whose sum the table holds leave the C-level pipeline
    met = itertools.compress(
        itertools.combinations(range(n), left),
        map(table.__contains__, map(sum, itertools.combinations(keys, left))),
    )
    for head in met:
        for tail in table[sum([keys[a] for a in head])]:
            if not tail or tail[0] > head[-1]:
                yield head + tail


def _pack(parts: List[Tuple[int, ...]], m: int) -> List[int]:
    """One int per point from its int parts, as digits in base
    K = 2*m*max|part| + 1: a sum of at most m packed points is 0
    exactly when the sum of every part is."""
    base = 2 * m * max([abs(c) for p in parts for c in p]) + 1
    packed = []
    for p in parts:
        total = 0
        for c in p:
            total = total * base + c
        packed.append(total)
    return packed
