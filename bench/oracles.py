"""Per-op oracles. Each takes (expect, exit code, stdout, stderr) and returns
None when the op's output is right, else a one-line reason.

No oracle trusts the program's own certificate: determinants, angles, grid
values and model vectors are recomputed here from the input the benchmark
wrote, in plain floats or exact fractions. The only recorded values are the
`search` counts, taken from the commit that introduced the benchmark
(`search_reference.json`).
"""

from __future__ import annotations

import json
import math
import os
import re
from fractions import Fraction
from typing import Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

CANON_TOL = 1e-8
ROOT_TOL = 1e-10
GEN_TOL = 1e-8
# relative tolerance for float determinants recomputed here
DET_REL_TOL = 1e-9
# render writes coordinates with 6 decimals
SVG_TOL = 2e-6

# Failures of the commit that introduced the benchmark. The ops stay in the
# workloads and count as failed; an op that fails exactly this way is not a
# wrong answer, so a later fix shows up as fewer failed ops, not as a change
# of the op list.
#   roots --n 21..24: the x-filter keeps the wrong number of roots of y(w_n)
#   gen --m 801 --k in {1, 2, 398, 399, 400}: model_configuration's fixed
#   1e-10 closure check fails at m >= 401 for k near 1 or n
KNOWN_ROOTS_FAIL = range(21, 25)
KNOWN_GEN_FAIL = {801: (1, 2, 398, 399, 400)}


def known_failure(command: str, expect: dict) -> Optional[Tuple[int, str]]:
    """(exit code, stderr marker) with which the op fails at that commit, if
    it does. The CLI names RootCountMismatch on stderr; for ClosureViolation
    it prints only the message."""
    if command == "roots" and expect["n"] in KNOWN_ROOTS_FAIL:
        return (1, "RootCountMismatch")
    if command == "gen" and expect["k"] in KNOWN_GEN_FAIL.get(expect["m"], ()):
        return (2, "does not close")
    return None


def matches_known(known: Optional[Tuple[int, str]], code, err: str) -> bool:
    return known is not None and code == known[0] and known[1] in err


def search_reference() -> dict:
    with open(os.path.join(HERE, "search_reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- helpers -----------------------------------------------------------------

def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _report(code, out: str, want_code: int):
    if code != want_code:
        raise _Wrong(f"exit {code}, expected {want_code}")
    try:
        return json.loads(out)
    except ValueError as exc:
        raise _Wrong(f"stdout is not JSON: {exc}") from exc


class _Wrong(Exception):
    pass


def _oracle(fn):
    def wrapped(expect, code, out, err):
        try:
            fn(expect, code, out, err)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None

    wrapped.__name__ = fn.__name__
    return wrapped


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise _Wrong(what)


def _asymmetric(row, tol: float) -> bool:
    s = sorted(row)
    return any(abs(s[j] + s[-1 - j]) > tol for j in range((len(s) + 1) // 2))


def _row(vecs, i):
    return [_det(vecs[i], v) for j, v in enumerate(vecs) if j != i]


def _check_unbalanced_row(vecs, index) -> None:
    _require(isinstance(index, int) and 0 <= index < len(vecs), f"witness index {index!r}")
    row = _row(vecs, index)
    top = max(abs(d) for d in row)
    _require(_asymmetric(row, DET_REL_TOL * top), f"row {index} is symmetric")


def _exact(vecs):
    return [(Fraction(x), Fraction(y)) for x, y in vecs]


def _check_collinear_pair(vecs, pair) -> None:
    i, j = pair
    _require(i != j and 0 <= min(i, j) and max(i, j) < len(vecs), f"pair {pair!r}")
    _require(_det(vecs[i], vecs[j]) == 0, f"members {i}, {j} are not collinear")


# -- check -------------------------------------------------------------------

@_oracle
def check_image(e, code, out, err):
    r = _report(code, out, 0)
    m, n = e["m"], (e["m"] - 1) // 2
    _require(r["m"] == m and r["mode"] == "float", "m or mode")
    _require(r["balanced"] is True and r["balance_witness"] is None, "balance verdict")
    _require(r["uniform"] is True and r["uniform_witness"] is None, "uniform verdict")
    _require(r["even_m_witness"] is None, "even_m_witness on odd m")
    a1 = e["det"] * math.sin(2 * math.pi / m)
    an = e["det"] * math.sin(2 * math.pi * n / m)
    sc = r["step_constants"]
    _require(_close(sc["A1"], a1, DET_REL_TOL) and _close(sc["An"], an, DET_REL_TOL), "step constants")


@_oracle
def check_perturbed(e, code, out, err):
    r = _report(code, out, 1)
    _require(r["balanced"] is False, "balance verdict")
    w = r["balance_witness"]
    _check_unbalanced_row(e["vectors"], w["index"])
    row = _row(e["vectors"], w["index"])
    tol = DET_REL_TOL * max(abs(d) for d in row)
    _require(any(abs(d - w["value"]) <= tol for d in row), "witness value is not in its row")


@_oracle
def check_exact_even(e, code, out, err):
    r = _report(code, out, 0)
    vecs = _exact(e["vectors"])
    _require(r["m"] == e["m"] and r["mode"] == "exact", "m or mode")
    _require(r["balanced"] is True and r["balance_witness"] is None, "balance verdict")
    _require(r["uniform"] is False, "uniform verdict")
    _check_collinear_pair(vecs, r["uniform_witness"])
    j = r["even_m_witness"]
    _require(isinstance(j, int) and 1 <= j < len(vecs), f"even_m_witness {j!r}")
    _require(_det(vecs[0], vecs[j]) == 0, f"det(v_0, v_{j}) != 0")
    _require(r["step_constants"] is None, "step constants on even m")


# -- canon -------------------------------------------------------------------

@_oracle
def canon_image(e, code, out, err):
    r = _report(code, out, 0)
    m, n, vecs = e["m"], (e["m"] - 1) // 2, e["vectors"]
    _require(r["ok"] is True and r["k"] == n, f"k = {r['k']}, expected {n}")
    index_map = r["index_map"]
    _require(sorted(index_map) == list(range(m)), "index_map is not a permutation")
    (a, b), (c, d) = r["map"]
    # slot order: members by increasing argument in [0, 2 pi)
    order = sorted(range(m), key=lambda i: math.atan2(vecs[i][1], vecs[i][0]) % (2 * math.pi))
    worst = 0.0
    for slot, i in enumerate(order):
        x, y = vecs[i]
        angle = 2 * math.pi * index_map[slot] / m
        worst = max(worst, math.hypot(a * x + b * y - math.cos(angle), c * x + d * y - math.sin(angle)))
    _require(worst <= CANON_TOL, f"map misses the roots of unity by {worst:.3e}")


@_oracle
def canon_perturbed(e, code, out, err):
    r = _report(code, out, 1)
    _require(r["ok"] is False and r["error"] == "NotBalanced", f"error {r['error']!r}")
    _check_unbalanced_row(e["vectors"], r["witness"][0])


@_oracle
def canon_exact_even(e, code, out, err):
    r = _report(code, out, 1)
    _require(r["ok"] is False and r["error"] == "NotUniform", f"error {r['error']!r}")
    _check_collinear_pair(_exact(e["vectors"]), r["witness"])


# -- render ------------------------------------------------------------------

_LINE = re.compile(r'<line x1="([-0-9.]+)" y1="([-0-9.]+)" x2="([-0-9.]+)" y2="([-0-9.]+)"')
_LABEL = re.compile(r">(\d+)</text>")


@_oracle
def render(e, code, out, err):
    _require(code == 0, f"exit {code}, expected 0")
    vecs = e["vectors"]
    lines = [tuple(map(float, g)) for g in _LINE.findall(out)]
    _require(len(lines) == len(vecs), f"{len(lines)} arrows for {len(vecs)} members")
    _require([int(t) for t in _LABEL.findall(out)] == list(range(len(vecs))), "labels")
    cx, cy = lines[0][0], lines[0][1]
    far = max(range(len(vecs)), key=lambda i: math.hypot(*vecs[i]))
    unit = math.hypot(lines[far][2] - cx, lines[far][3] - cy) / math.hypot(*vecs[far])
    for (x1, y1, x2, y2), (x, y) in zip(lines, vecs):
        _require((x1, y1) == (cx, cy), "arrows do not share the origin")
        _require(abs(x2 - cx - unit * x) <= SVG_TOL and abs(y2 - cy + unit * y) <= SVG_TOL,
                 "arrow tip is not the scaled member")


# -- gen ---------------------------------------------------------------------

def model_vectors(m: int, k: int):
    """The model configuration at t_k: the frame sending 1 and w^k to (1, 0)
    and (0, 1), applied to w^{-2ki} (slot i < n), w^k (slot n) and
    w^{-k(2i+1)} (slot n+1+i), with w = e^{2 pi i / m}."""
    n = (m - 1) // 2
    theta = 2 * math.pi * k / m
    exps = [-2 * k * i for i in range(n)] + [k] + [-k * (2 * i + 1) for i in range(n)]
    out = []
    for e in exps:
        phi = 2 * math.pi * (e % m) / m
        x, y = math.cos(phi), math.sin(phi)
        # inverse of the matrix with columns (1, 0) and (cos theta, sin theta)
        out.append((x - y * math.cos(theta) / math.sin(theta), y / math.sin(theta)))
    return out


@_oracle
def gen_model(e, code, out, err):
    r = _report(code, out, 0)
    _require(r["mode"] == "float" and len(r["vectors"]) == e["m"], "mode or size")
    for (x, y), (ex, ey) in zip(r["vectors"], model_vectors(e["m"], e["k"])):
        _require(_close(x, ex, GEN_TOL) and _close(y, ey, GEN_TOL), "vector off the model")


# -- roots -------------------------------------------------------------------

@_oracle
def roots(e, code, out, err):
    r = _report(code, out, 0)
    n = e["n"]
    m = 2 * n + 1
    _require(r["n"] == n and r["m"] == m, "n or m")
    grid = sorted(2 * math.cos(2 * math.pi * k / m) for k in range(1, n + 1))
    solved = r["solver_roots"]
    _require(len(solved) == n, f"{len(solved)} roots, expected {n}")
    _require(all(abs(a - b) <= ROOT_TOL for a, b in zip(solved, grid)), "root off 2cos(2k pi/m)")
    _require(all(abs(a - b) <= ROOT_TOL for a, b in zip(r["grid"], grid)), "grid value")


# -- search ------------------------------------------------------------------

@_oracle
def search(e, code, out, err):
    r = _report(code, out, 0)
    _require(r["m"] == e["m"] and ",".join(r["coords"]) == e["coords"], "m or coords")
    _require(r["count"] == e["count"], f"count {r['count']}, reference {e['count']}")
    _require(r["uniform_count"] == e["uniform_count"], "uniform_count")
    # a balanced configuration of even size is never uniform
    _require(e["m"] % 2 == 1 or r["uniform_count"] == 0, "uniform hit of even size")
