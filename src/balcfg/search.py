"""Independent oracles: seeded random invertible maps, seeded perturbations,
and exhaustive enumeration of balanced configurations over small exact grids.

Enumeration treats a configuration as a set of pairwise distinct nonzero grid
vectors (the objects the definitions quantify over) and lists each set once,
in lexicographic order of the sorted representative, so results are
reproducible byte for byte. When the candidates outnumber the grid's pairs
(m >= 3, unless m is close to the grid size), it builds one determinant table
for the whole grid, so no grid determinant is evaluated twice: each candidate
reads its members' int rows from that table and stops at the first row that
is not symmetric, and only a hit becomes a Configuration (with its table
restricted from the grid's). Otherwise (as for m <= 2) each pair is read at
most once anyway, and each candidate builds its own small table.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .balance import _row_fault, is_balanced, is_uniform
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

    With a grid table, a candidate is tested on the table's int rows and
    rejected at its first asymmetric row; only a hit is built as a
    Configuration and, under require_uniform, tested for uniformity.
    """
    if len(spec.coordinate_set) ** (2 * spec.m) > DEFAULT_BUDGET:
        raise BudgetExceeded(
            f"{len(spec.coordinate_set)}^{2 * spec.m} candidate tuples exceed "
            f"the budget of {DEFAULT_BUDGET}"
        )
    vectors = grid_vectors(spec.coordinate_set)
    n = len(vectors)
    if spec.m > n:
        return []
    # A grid table of n^2 entries pays only when the candidates outnumber
    # the grid's pairs; for m <= 2 it would cost memory and save nothing.
    if math.comb(n, spec.m) > math.comb(n, 2):
        balanced = _balanced_subsets(Configuration(vectors), spec.m)
    else:
        balanced = (
            cfg
            for cfg in map(Configuration, itertools.combinations(vectors, spec.m))
            if is_balanced(cfg).balanced
        )
    if spec.require_uniform:
        return [cfg for cfg in balanced if is_uniform(cfg)[0]]
    return list(balanced)


def _balanced_subsets(grid: Configuration, m: int):
    """The balanced m-member subsets of grid, in combinations order. Each
    member's row of the grid's scaled ints, restricted to the candidate and
    sorted, goes through _row_fault at the exact tolerance 0; these are the
    entries _restrict would copy, so the verdict is is_balanced's. Only a
    hit is restricted into a Configuration."""
    rows = grid.det_table.scaled
    for idx in itertools.combinations(range(len(rows)), m):
        for a in idx:
            row = rows[a]
            if _row_fault(sorted([row[b] for b in idx if b != a]), 0) is not None:
                break
        else:
            yield grid._restrict(idx)
