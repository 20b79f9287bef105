"""Independent oracles: seeded random invertible maps, seeded perturbations,
and exhaustive enumeration of balanced configurations over small exact grids.

Enumeration treats a configuration as a set of pairwise distinct nonzero grid
vectors (the objects the definitions quantify over) and lists each set once,
in lexicographic order of the sorted representative, so results are
reproducible byte for byte. It never tests all C(n, m) candidates: a balanced
set is collinear or sums to zero, so it lists the collinear sets of each line
through the origin and walks the (m - 1)-prefixes of the grid, completing
each by the one grid point that cancels its sum. Each zero-sum set that is
not collinear is decided by is_balanced on its own Configuration; no grid
table is built.
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
from .geometry import Configuration, PlaneVector

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
    if eps < 0:
        raise ValueError("eps must be >= 0")
    rng = random.Random(seed)
    out = []
    for v in c.as_float().vectors:
        radius = eps * rng.random()
        theta = 2.0 * math.pi * rng.random()
        out.append(
            PlaneVector(v.x + radius * math.cos(theta), v.y + radius * math.sin(theta))
        )
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


def grid_vectors(coords: Tuple[Fraction, ...]) -> List[PlaneVector]:
    """All nonzero vectors over the grid, lexicographic by (x, y)."""
    return [
        PlaneVector(x, y) for x in coords for y in coords if not (x == 0 and y == 0)
    ]


def enumerate_balanced(spec: SearchSpec) -> List[Configuration]:
    """All balanced configurations of m pairwise distinct vectors over the
    grid, exact arithmetic, in deterministic lexicographic order; optionally
    only the uniform ones.

    Row i of a configuration sums to det(v_i, S), S the sum of its members,
    and a symmetric row sums to 0. So a balanced set is collinear (every det
    is 0, and it is balanced) or has S = 0 (two independent members force
    it). The collinear sets are listed line by line. Every other candidate
    is an (m - 1)-prefix completed by the grid point at minus its sum, and
    is decided by is_balanced on its own Configuration. BudgetExceeded
    refuses a walk of more than DEFAULT_BUDGET prefixes, C(n, m - 1) for n
    grid vectors.
    """
    coords = spec.coordinate_set
    # the grid's nonzero vectors, counted before any is built
    m, n = spec.m, len(coords) ** 2 - (0 in coords)
    # C(n, m - 1) = C(n, k), and C(n, j) grows with j <= k <= n / 2
    k = min(m - 1, n - m + 1)
    prefixes = int(k >= 0)
    for j in range(1, k + 1):
        prefixes = prefixes * (n - j + 1) // j
        if prefixes > DEFAULT_BUDGET:
            raise BudgetExceeded(
                f"C({n}, {m - 1}) {'=' if j == k else '>='} {prefixes} prefixes "
                f"exceed the budget of {DEFAULT_BUDGET}"
            )
    vectors = grid_vectors(coords)
    if m > n:
        return []
    xs, ys, _ = Configuration(vectors)._det_coords
    # each point's line through the origin: its gcd-reduced direction, with
    # the first nonzero coordinate positive
    line_of = []
    lines = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
        g = math.gcd(x, y)
        line = (x // g, y // g) if (x, y) > (0, 0) else (-x // g, -y // g)
        line_of.append(line)
        lines.setdefault(line, []).append(i)
    found = {
        idx: Configuration([vectors[a] for a in idx])
        for members in lines.values()
        for idx in itertools.combinations(members, m)
    }
    index = {p: i for i, p in enumerate(zip(xs, ys))}
    for prefix in itertools.combinations(range(n), m - 1):
        j = index.get((-sum([xs[a] for a in prefix]), -sum([ys[a] for a in prefix])), -1)
        if j > max(prefix, default=-1) and any([line_of[a] != line_of[j] for a in prefix]):
            cfg = Configuration([vectors[a] for a in prefix + (j,)])
            if is_balanced(cfg).balanced:
                found[prefix + (j,)] = cfg
    hits = [found[idx] for idx in sorted(found)]
    if spec.require_uniform:
        return [cfg for cfg in hits if is_uniform(cfg)[0]]
    return hits
