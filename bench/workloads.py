"""Seeded workloads: the op lists the benchmark runs, the input files they
read, and the data each op's oracle checks against.

Every op is one `balcfg` command line. The program sees only the argv and
the input files written here; everything the oracles compare against is
computed from the seed by this module, never read back from the program.
The mix of each workload is fixed and the seed picks only values (hidden
maps, perturbations, rationals, grid indices, coordinate sets), so the work
per pass, and with it every timing, hardly depends on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

import oracles

WORKLOADS = ("certify", "closure", "search")

# wall seconds of one untraced pass, as measured on a shared 2-vCPU x86-64
# VM. A run makes round(seconds / PASS_S) whole passes, at least one: the
# count follows from the arguments alone, never from a clock, so every run
# of a workload attempts the same ops and meets the same known failures.
PASS_S = {"certify": 5.4, "closure": 18.0, "search": 8.5}

# certify: hidden-map images of U_m per pass, by m; each image also gets a
# perturbed copy. m = 801 is where the O(m^2) determinant tables dominate.
# Rendering the m = 51 images too would put the median op on the edge
# between two kinds of op, where it jumps from seed to seed.
CERTIFY_IMAGES = {51: 6, 201: 2, 801: 1}
RENDER_SIZES = (201, 801)
PERTURB_EPS = 1e-3
# centrally symmetric exact sets {v, -v}: balanced, even m, never uniform
EXACT_SETS = 2
EXACT_M = 100
EXACT_NUMERATOR = 20
EXACT_DENOMINATOR = 9
GEN_SIZES = (51, 201, 801)

# closure: `roots --n N` for every N in this range, each COPIES times per
# pass, so that each op's latency rests on several samples; an N that fails
# at the seed commit (oracles.KNOWN_ROOTS_FAIL) adds a failure but no
# latency, and is run once per pass
ROOTS_N = range(2, 25)
ROOTS_COPIES = 3

# search: the coordinate values a set is drawn from, and ops per pass by
# (m, number of coordinates including 0)
SEARCH_VALUES = tuple(
    Fraction(v)
    for v in ("-3", "-2", "-3/2", "-1", "-1/2", "0", "1/2", "1", "3/2", "2", "3")
)
SEARCH_SIZES = (3, 4)
SEARCH_MIX = {(3, 4): 12, (3, 5): 10, (4, 4): 10, (4, 5): 4}


@dataclass
class Op:
    """One CLI invocation and what its result must satisfy."""

    op_id: int
    command: str
    argv: Tuple[str, ...]
    oracle: Callable[[dict, Optional[int], str, str], Optional[str]]
    expect: dict
    # (exit code, stderr marker) of a failure the seed commit is known to have
    known: Optional[Tuple[int, str]]
    # configuration size, for per-check ratios in the traced run
    m: int


def coords_key(coords) -> str:
    """Canonical text of a coordinate set: sorted exact values, comma-joined."""
    return ",".join(str(v) for v in sorted(Fraction(v) for v in coords))


def reference_key(m: int, coords) -> str:
    """Key of a search op in search_reference.json."""
    return f"{m}:{coords_key(coords)}"


class _Files:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def write(self, mode: str, vectors) -> str:
        path = os.path.join(self.workdir, f"in_{self.count:04d}.json")
        self.count += 1
        if mode == "exact":
            vectors = [[str(x), str(y)] for x, y in vectors]
        else:
            vectors = [[x, y] for x, y in vectors]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"mode": mode, "vectors": vectors}, fh)
            fh.write("\n")
        return path


def _certify(rng: random.Random, files: _Files):
    from balcfg.geometry import roots_of_unity
    from balcfg.search import perturb, random_invertible

    specs = []
    for m, count in CERTIFY_IMAGES.items():
        base = roots_of_unity(m)
        for _ in range(count):
            g = random_invertible(rng.randrange(2**31))
            image = g.apply_configuration(base)
            vecs = [(v.x, v.y) for v in image.vectors]
            path = files.write("float", vecs)
            expect = {"m": m, "vectors": vecs, "det": g.a * g.d - g.b * g.c}
            specs.append(("check", (path,), oracles.check_image, expect, m))
            specs.append(("canon", (path,), oracles.canon_image, expect, m))
            if m in RENDER_SIZES:
                specs.append(("render", (path,), oracles.render, expect, m))

            bent = perturb(image, PERTURB_EPS, seed=rng.randrange(2**31))
            bvecs = [(v.x, v.y) for v in bent.vectors]
            path = files.write("float", bvecs)
            expect = {"m": m, "vectors": bvecs}
            specs.append(("check", (path,), oracles.check_perturbed, expect, m))
            specs.append(("canon", (path,), oracles.canon_perturbed, expect, m))

    for _ in range(EXACT_SETS):
        vecs = _symmetric_exact_set(rng, EXACT_M)
        path = files.write("exact", vecs)
        expect = {"m": EXACT_M, "vectors": vecs}
        specs.append(("check", (path,), oracles.check_exact_even, expect, EXACT_M))
        specs.append(("canon", (path,), oracles.canon_exact_even, expect, EXACT_M))

    for m in GEN_SIZES:
        n = (m - 1) // 2
        # both ends of the grid plus one seeded index from its middle half
        for k in (1, rng.randint(n // 4, (3 * n) // 4), n):
            args = ("--m", str(m), "--k", str(k))
            specs.append(("gen", args, oracles.gen_model, {"m": m, "k": k}, m))
    return specs


def _symmetric_exact_set(rng: random.Random, m: int):
    half, seen = [], set()
    while len(half) < m // 2:
        v = tuple(
            Fraction(rng.randint(-EXACT_NUMERATOR, EXACT_NUMERATOR), rng.randint(1, EXACT_DENOMINATOR))
            for _ in range(2)
        )
        if v == (0, 0) or v in seen or (-v[0], -v[1]) in seen:
            continue
        seen.add(v)
        half.append(v)
    vecs = half + [(-x, -y) for x, y in half]
    rng.shuffle(vecs)
    return vecs


def _closure(rng: random.Random, files: _Files):
    specs = []
    for n in ROOTS_N:
        for _ in range(1 if n in oracles.KNOWN_ROOTS_FAIL else ROOTS_COPIES):
            specs.append(("roots", ("--n", str(n)), oracles.roots, {"n": n}, 2 * n + 1))
    return specs


def _search(rng: random.Random, files: _Files):
    reference = oracles.search_reference()
    nonzero = [v for v in SEARCH_VALUES if v != 0]
    specs = []
    for (m, size), count in SEARCH_MIX.items():
        for _ in range(count):
            coords = (Fraction(0),) + tuple(rng.sample(nonzero, size - 1))
            key = coords_key(coords)
            count_all, count_uniform = reference[reference_key(m, coords)]
            expect = {"m": m, "coords": key, "count": count_all, "uniform_count": count_uniform}
            args = ("--m", str(m), "--coords", key)
            specs.append(("search", args, oracles.search, expect, m))
    return specs


def passes(workload: str, seconds: float) -> int:
    """Whole passes over the op list that take about `seconds`."""
    return max(1, round(seconds / PASS_S[workload]))


_BUILDERS = {"certify": _certify, "closure": _closure, "search": _search}


def build(workload: str, seed: int, workdir: str):
    """The op list of one pass of `workload` for `seed`, in seeded order;
    writes the input files into `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    specs = _BUILDERS[workload](rng, _Files(workdir))
    rng.shuffle(specs)
    ops = []
    for op_id, (command, args, oracle, expect, m) in enumerate(specs):
        argv = (command,) + tuple(args)
        known = oracles.known_failure(command, expect)
        ops.append(Op(op_id, command, argv, oracle, expect, known, m))
    return ops
