"""An exact audit of check's and canon's float verdicts (ROADMAP item 22).

Every float coordinate is a dyadic rational, so the exact verdict on the same
numbers at the same tolerance is a complete oracle: every determinant row
exactly, eff = Fraction(1e-9) * the exact maximum |det|, balanced when every
sorted pair sum |d_j + d_{N-1-j}| <= eff and an odd row's middle entry has
|d| <= eff (balance's module docstring), uniform when every |det| > eff.
check, run through cli.main, must report both verdicts as the oracle does,
and exit 1 only when the oracle says "not balanced"; canon's verdict must
not contradict the oracle on the copy that canon decides. The families:
seeded GL2 images of U_m and perturbed copies, item 14's copies perturbed
near the tolerance, nearly antipodal sets, the nearly collinear triples of
item 13, ill-conditioned images of U_m, and images scaled by 2^k.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from balcfg.balance import in_safe_range
from balcfg.cli import main
from balcfg.geometry import LinearMap2, roots_of_unity
from balcfg.search import perturb, random_invertible

REL_TOL = Fraction(1e-9)


def exact_verdicts(vectors):
    """(balanced, uniform) of the float vectors read as exact rationals. The
    rows hold the ints D^2 * det for D the lcm of the denominators, and
    |value| <= REL_TOL * max |det| is compared as den * |value| <= num * max
    |det| for REL_TOL = num / den; both sides scale by D^2 alike."""
    points = [(Fraction(x), Fraction(y)) for x, y in vectors]
    scale = math.lcm(*(f.denominator for point in points for f in point))
    ints = [(int(x * scale), int(y * scale)) for x, y in points]
    rows = [
        sorted(xi * yj - yi * xj for j, (xj, yj) in enumerate(ints) if j != i)
        for i, (xi, yi) in enumerate(ints)
    ]
    num, den = REL_TOL.numerator, REL_TOL.denominator
    eff = num * max(abs(d) for row in rows for d in row)
    half = (len(points) - 1) // 2
    balanced = all(
        all(den * abs(row[j] + row[-1 - j]) <= eff for j in range(half))
        and (len(row) % 2 == 0 or den * abs(row[half]) <= eff)
        for row in rows
    )
    uniform = all(den * abs(d) > eff for row in rows for d in row)
    return balanced, uniform


def run(capsys, tmp_path, command, vectors):
    """(exit code, report) of command on the float vectors through cli.main;
    the report is None on exit 2, which writes only an error line."""
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    code = main([command, str(path)])
    out = capsys.readouterr().out
    return code, None if code == 2 else json.loads(out)


def disagreements(capsys, tmp_path, family):
    """The members of family (lists of [x, y] floats) on which check's
    verdicts or exit code differ from the exact oracle's, with what check
    reported: (balanced, uniform, exit code), or the exit code 2 alone."""
    wrong = []
    for vectors in family:
        code, report = run(capsys, tmp_path, "check", vectors)
        if report is None:
            wrong.append((vectors, code))
            continue
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


def near_tolerance_family():
    """Item 14's copies at m <= 41: for each odd m <= 41, eight seeded GL2
    images of U_m (map seeds other than image_family's), each perturbed by
    1e-14, 1e-13 and 1e-10, near the default tolerance 1e-9 * det_max."""
    family = []
    for m in range(3, 42, 2):
        for seed in range(8):
            g = random_invertible(seed=100 * m + seed + 7)
            image = g.apply_configuration(roots_of_unity(m))
            for eps in (1e-14, 1e-13, 1e-10):
                c = perturb(image, eps, seed=seed)
                family.append([[x, y] for x, y in zip(c.xs, c.ys)])
    return family


def test_check_of_near_tolerance_copies_is_the_exact_verdict(capsys, tmp_path):
    family = near_tolerance_family()
    # both verdicts occur, so the family tests each side of the tolerance
    assert {exact_verdicts(vectors)[0] for vectors in family} == {True, False}
    assert disagreements(capsys, tmp_path, family) == []


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


def canon_disagreements(capsys, tmp_path, family):
    """The members of family on which canon's verdict contradicts the exact
    verdicts of the copy that canon decides, each coordinate times s =
    1 / max |v| (canonicalize's docstring), with canon's error class (None
    for a map). A map needs that copy balanced and uniform, NotBalanced
    needs it not balanced, and NotUniform balanced and not uniform; canon's
    later refusals and its exit 2 claim no verdict."""
    claims = {None: (True, True), "NotBalanced": (False,), "NotUniform": (True, False)}
    wrong = []
    for vectors in family:
        _, report = run(capsys, tmp_path, "canon", vectors)
        if report is None or report["error"] not in claims:
            continue
        error = report["error"]
        s = 1.0 / max(math.hypot(x, y) for x, y in vectors)
        verdicts = exact_verdicts([[s * x, s * y] for x, y in vectors])
        if verdicts[: len(claims[error])] != claims[error]:
            wrong.append((vectors, error, verdicts))
    return wrong


@pytest.mark.parametrize("m", range(3, 42, 2))
def test_canon_of_u_m_images_and_perturbed_copies_agrees_with_the_exact_verdict(
    capsys, tmp_path, m
):
    assert canon_disagreements(capsys, tmp_path, image_family(m)) == []


def test_canon_of_near_tolerance_copies_agrees_with_the_exact_verdict(capsys, tmp_path):
    assert canon_disagreements(capsys, tmp_path, near_tolerance_family()) == []


def antipodal_family(count=300, seed=22):
    """Nearly antipodal sets: m drawn from {3, 4, 5, 6, 7, 8, 10, 12},
    ceil(m/2) members of norm 0.5 to 2, and floor(m/2) of them with a
    partner of the same norm at their angle + pi +- 10^U(-13, -7), shuffled.
    The partners straddle the default tolerance: an even set is balanced
    within 1e-9 * det_max roughly where every offset is below 1e-9."""
    rng = random.Random(seed)
    family = []
    for _ in range(count):
        m = rng.choice((3, 4, 5, 6, 7, 8, 10, 12))
        members = []
        for i in range((m + 1) // 2):
            r, theta = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            angles = [theta]
            if i < m // 2:
                angles.append(theta + math.pi + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-13, -7))
            members += [[r * math.cos(a), r * math.sin(a)] for a in angles]
        rng.shuffle(members)
        family.append(members)
    return family


def test_check_of_nearly_antipodal_sets_is_the_exact_verdict(capsys, tmp_path):
    family = antipodal_family()
    # both verdicts occur, so the family tests each side of the tolerance
    assert {exact_verdicts(vectors)[0] for vectors in family} == {True, False}
    assert disagreements(capsys, tmp_path, family) == []


def test_canon_of_nearly_antipodal_sets_agrees_with_the_exact_verdict(capsys, tmp_path):
    assert canon_disagreements(capsys, tmp_path, antipodal_family()) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_canon_of_exactly_balanced_nearly_collinear_triples_agrees_with_the_exact_verdict(
    capsys, tmp_path
):
    assert canon_disagreements(capsys, tmp_path, item13_triples()) == []


# the one error that canon's route raises after the verdicts: it claims that
# the canonical map misses the roots of unity
ROUTE_REFUSALS = {"ResidualTooLarge"}


def route_refusals(capsys, tmp_path, family):
    """The members of family on which canon exits 1 with a route refusal."""
    found = []
    for vectors in family:
        code, report = run(capsys, tmp_path, "canon", vectors)
        if code == 1 and report["error"] in ROUTE_REFUSALS:
            found.append((vectors, report["error"], report["witness"]))
    return found


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 25")
def test_canon_makes_no_route_refusal_on_exact_images_of_u_3(capsys, tmp_path):
    # each triple is exactly G.U_3 for G = [v1 v2] [1 w]^-1, as G w^2 =
    # -v1 - v2 = v3, so no refusal that claims "not equivalent" is true;
    # 26 of the 740 exit 1 with ResidualTooLarge
    assert route_refusals(capsys, tmp_path, item13_triples()) == []


def ill_conditioned_family(m, c, count=30):
    """Images of U_m under R(theta) diag(1, 10^-c) R(phi), theta and phi
    seeded per (m, c, seed): condition number 10^c, every coordinate in
    the safe range."""
    family = []
    for seed in range(count):
        rng = random.Random(10_000 * m + 100 * c + seed)
        theta, phi = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        rotations = [
            LinearMap2(math.cos(a), -math.sin(a), math.sin(a), math.cos(a)) for a in (theta, phi)
        ]
        g = rotations[0].compose(LinearMap2(1.0, 0.0, 0.0, 10.0**-c)).compose(rotations[1])
        image = g.apply_configuration(roots_of_unity(m))
        family.append([[x, y] for x, y in zip(image.xs, image.ys)])
    return family


ILL_CONDITIONED_CASES = [(m, c) for m in (5, 11, 51) for c in (6, 7, 8, 9)]
# the (m, c) whose families hold a file on which check disagrees (item 13)
ILL_CONDITIONED_DISAGREE = [(5, 7), (5, 8), (11, 7), (51, 7)]


def test_ill_conditioned_images_lie_in_the_safe_range():
    for m, c in ILL_CONDITIONED_CASES:
        assert all(in_safe_range(sum(vectors, [])) for vectors in ill_conditioned_family(m, c))


@pytest.mark.parametrize(
    "m, c", [case for case in ILL_CONDITIONED_CASES if case not in ILL_CONDITIONED_DISAGREE]
)
def test_check_of_ill_conditioned_images_is_the_exact_verdict(capsys, tmp_path, m, c):
    assert disagreements(capsys, tmp_path, ill_conditioned_family(m, c)) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_check_of_the_ill_conditioned_images_that_item_13_flips_is_the_exact_verdict(
    capsys, tmp_path
):
    family = [v for m, c in ILL_CONDITIONED_DISAGREE for v in ill_conditioned_family(m, c)]
    assert disagreements(capsys, tmp_path, family) == []


# the (m, c) whose families hold a file on which canon exits 1 with
# NotBalanced though the copy it decides is exactly balanced and uniform
# (item 13): 3, 1 and 4 of their 30 files
ILL_CONDITIONED_CANON_DISAGREE = [(5, 7), (5, 8), (11, 7)]


@pytest.mark.parametrize(
    "m, c", [case for case in ILL_CONDITIONED_CASES if case not in ILL_CONDITIONED_CANON_DISAGREE]
)
def test_canon_of_ill_conditioned_images_agrees_with_the_exact_verdict(capsys, tmp_path, m, c):
    assert canon_disagreements(capsys, tmp_path, ill_conditioned_family(m, c)) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 13")
def test_canon_of_the_ill_conditioned_images_that_item_13_flips_agrees_with_the_exact_verdict(
    capsys, tmp_path
):
    family = [v for m, c in ILL_CONDITIONED_CANON_DISAGREE for v in ill_conditioned_family(m, c)]
    assert canon_disagreements(capsys, tmp_path, family) == []


def scaled_family(k):
    """The first 8 sets of image_family(m), m = 3, 5, 7, 9 and 11, every
    coordinate times 2^k (exact, while it stays a normal float)."""
    return [
        [[math.ldexp(x, k), math.ldexp(y, k)] for x, y in vectors]
        for m in (3, 5, 7, 9, 11)
        for vectors in image_family(m)[:8]
    ]


@pytest.mark.parametrize("k", [-470, -400, -200, 200, 400, 470])
def test_check_of_sets_scaled_by_2_to_the_k_is_the_exact_verdict(capsys, tmp_path, k):
    family = scaled_family(k)
    assert all(in_safe_range(sum(vectors, [])) for vectors in family)
    assert disagreements(capsys, tmp_path, family) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
def test_check_of_sets_scaled_past_the_safe_coordinate_range_is_the_exact_verdict(
    capsys, tmp_path
):
    family = [vectors for k in (-700, -600, -520, 520, 600, 700) for vectors in scaled_family(k)]
    assert disagreements(capsys, tmp_path, family) == []
