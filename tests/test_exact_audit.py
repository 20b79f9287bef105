"""An exact audit of check's float verdicts (ROADMAP item 22, first slice).

Every float coordinate is a dyadic rational, so the exact verdict on the same
numbers at the same tolerance is a complete oracle: every determinant row in
Fractions, eff = Fraction(1e-9) * the exact maximum |det|, balanced when every
sorted pair sum |d_j + d_{N-1-j}| <= eff and an odd row's middle entry has
|d| <= eff (balance's module docstring), uniform when every |det| > eff.
check, run through cli.main, must report both verdicts as the oracle does,
and exit 1 only when the oracle says "not balanced".
"""

import json
import math
import random
from fractions import Fraction

import pytest

from balcfg.cli import main
from balcfg.geometry import roots_of_unity
from balcfg.search import perturb, random_invertible

REL_TOL = Fraction(1e-9)


def exact_verdicts(vectors):
    """(balanced, uniform) of the float vectors read as exact rationals."""
    points = [(Fraction(x), Fraction(y)) for x, y in vectors]
    rows = [
        sorted(xi * yj - yi * xj for j, (xj, yj) in enumerate(points) if j != i)
        for i, (xi, yi) in enumerate(points)
    ]
    eff = REL_TOL * max(abs(d) for row in rows for d in row)
    half = (len(points) - 1) // 2
    balanced = all(
        all(abs(row[j] + row[-1 - j]) <= eff for j in range(half))
        and (len(row) % 2 == 0 or abs(row[half]) <= eff)
        for row in rows
    )
    uniform = all(abs(d) > eff for row in rows for d in row)
    return balanced, uniform


def disagreements(capsys, tmp_path, family):
    """The members of family (lists of [x, y] floats) on which check's
    verdicts or exit code differ from the exact oracle's, with what check
    reported: (balanced, uniform, exit code)."""
    path = tmp_path / "audit.json"
    wrong = []
    for vectors in family:
        path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
        code = main(["check", str(path)])
        report = json.loads(capsys.readouterr().out)
        balanced, uniform = exact_verdicts(vectors)
        got = (report["balanced"], report["uniform"], code)
        if got != (balanced, uniform, 0 if balanced else 1):
            wrong.append((vectors, got))
    return wrong


def image_family(m):
    """Eight seeded GL2 images of U_m, each followed by a copy perturbed by
    10^-11 to 10^-9."""
    family = []
    for seed in range(8):
        image = random_invertible(seed=100 * m + seed).apply_configuration(roots_of_unity(m))
        eps = 10.0 ** random.Random(seed).uniform(-11.0, -9.0)
        for c in (image, perturb(image, eps, seed=seed)):
            family.append([[x, y] for x, y in zip(c.xs, c.ys)])
    return family


@pytest.mark.parametrize("m", range(3, 42, 2))
def test_check_of_u_m_images_and_perturbed_copies_is_the_exact_verdict(capsys, tmp_path, m):
    assert disagreements(capsys, tmp_path, image_family(m)) == []


def item13_triples(count=740, seed=13):
    """Nearly collinear triples v1, v2, -(v1 + v2), each on the lattice
    2^-50 Z with every coordinate below 4 in magnitude, so that the third
    member is exact and the triple sums to exactly (0, 0)."""
    rng = random.Random(seed)

    def on_lattice(r, angle):
        return [round(r * f(angle) * 2.0**50) * 2.0**-50 for f in (math.cos, math.sin)]

    triples = []
    for _ in range(count):
        theta, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.8)
        v1 = on_lattice(r, theta)
        v2 = on_lattice(r * rng.uniform(0.9, 1.1), theta + 10.0 ** rng.uniform(-9.0, -5.0))
        triples.append([v1, v2, [-(v1[0] + v2[0]), -(v1[1] + v2[1])]])
    return triples


def test_item13_triples_sum_to_zero_and_are_exactly_balanced_and_uniform():
    # each row is {d, -d}, and every |det| is |d| = det_max > eff
    for triple in item13_triples():
        assert [sum(map(Fraction, column)) for column in zip(*triple)] == [0, 0]
        assert exact_verdicts(triple) == (True, True)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_check_of_exactly_balanced_nearly_collinear_triples_is_the_exact_verdict(
    capsys, tmp_path
):
    assert disagreements(capsys, tmp_path, item13_triples()) == []
