"""An exact audit of check's and canon's float verdicts (ROADMAP item 22).

Every float coordinate is a dyadic rational, so the exact verdict on the same
numbers at the same tolerance is a complete oracle: tests/exact_oracle.py
reads every determinant row exactly, eff = Fraction(1e-9) * the exact
maximum |det|, balanced when every sorted pair sum |d_j + d_{N-1-j}| <= eff
and an odd row's middle entry has |d| <= eff (balance's module docstring),
uniform when every |det| > eff. check, run through cli.main, must report
both verdicts as the oracle does, and exit 1 only when the oracle says "not
balanced"; canon's verdict must not contradict the oracle on the copy that
canon decides. The families: seeded GL2 images of U_m and perturbed copies,
item 14's copies perturbed near the tolerance, nearly antipodal sets, the
nearly collinear triples of item 13, ill-conditioned images of U_m, and
images scaled by 2^k, with Hypothesis differentials of check and of canon
over the same kinds of sets. check's verdicts read the same exact table as
the oracle, so they must agree everywhere. One family is exact input: nearly
collinear exact images of U_3, on which canon has no certificate to make.
"""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from balcfg.balance import RESIDUAL_TOL, canonicalize, in_safe_range
from balcfg.cli import main
from balcfg.errors import BalcfgError
from balcfg.geometry import Configuration, LinearMap2, roots_of_unity
from balcfg.search import perturb, random_invertible
import exact_oracle


def run(capsys, tmp_path, command, vectors, mode="float"):
    """(exit code, report) of command on the vectors (floats, or "p/q"
    strings in exact mode) through cli.main; the report is None on exit 2,
    which writes only an error line."""
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"mode": mode, "vectors": vectors}) + "\n")
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
        balanced, uniform = exact_oracle.verdicts(vectors)
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
    assert {exact_oracle.verdicts(vectors)[0] for vectors in family} == {True, False}
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
        assert exact_oracle.verdicts(triple) == (True, True)


def test_check_of_exactly_balanced_nearly_collinear_triples_is_the_exact_verdict(
    capsys, tmp_path
):
    assert disagreements(capsys, tmp_path, item13_triples()) == []


# what canon's outcome claims of the (balanced, uniform) verdicts of the copy
# it decides, by its error class (None for a map): a map needs that copy
# balanced and uniform, NotBalanced needs it not balanced, and NotUniform
# balanced and not uniform
CANON_CLAIMS = {None: (True, True), "NotBalanced": (False,), "NotUniform": (True, False)}


def canon_copy_verdicts(vectors):
    """The exact verdicts of the copy that canon decides: each coordinate
    times s = 1 / max |v|, as canonicalize rescales it, after an exact
    2^600 when that reciprocal overflows."""
    s = 1.0 / max(math.hypot(x, y) for x, y in vectors)
    if s == math.inf:
        vectors = [[x * 2.0**600, y * 2.0**600] for x, y in vectors]
        s = 1.0 / max(math.hypot(x, y) for x, y in vectors)
    return exact_oracle.verdicts([[s * x, s * y] for x, y in vectors])


def canon_disagreements(capsys, tmp_path, family):
    """The members of family on which canon's verdict contradicts the exact
    verdicts of the copy that canon decides (CANON_CLAIMS), with canon's
    error class; canon's later refusals and its exit 2 claim no verdict."""
    wrong = []
    for vectors in family:
        _, report = run(capsys, tmp_path, "canon", vectors)
        if report is None or report["error"] not in CANON_CLAIMS:
            continue
        error = report["error"]
        verdicts = canon_copy_verdicts(vectors)
        if verdicts[: len(CANON_CLAIMS[error])] != CANON_CLAIMS[error]:
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
    assert {exact_oracle.verdicts(vectors)[0] for vectors in family} == {True, False}
    assert disagreements(capsys, tmp_path, family) == []


def test_canon_of_nearly_antipodal_sets_agrees_with_the_exact_verdict(capsys, tmp_path):
    assert canon_disagreements(capsys, tmp_path, antipodal_family()) == []


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


def exact_u3_family(count=300, seed=3):
    """Seeded exact triples v1, v2 = c.v1 + 10^-k.(-v1.y, v1.x), v3 = -v1 -
    v2 for k = 3..14, where c and v1's coordinates are ratios p/q with |p|
    and q at most 10^6, as "p/q" strings. det(v1, v2) = 10^-k |v1|^2 is not
    0 and the triple sums to (0, 0), so each is exactly G.U_3 for G = [v1 v2]
    [1 w]^-1, nearly collinear for large k."""
    rng = random.Random(seed)

    def ratio():
        return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))

    family = []
    for _ in range(count):
        x, y, c = ratio(), ratio(), ratio()
        eps = Fraction(1, 10 ** rng.randint(3, 14))
        v2 = (c * x - eps * y, c * y + eps * x)
        family.append([[str(f) for f in v] for v in ((x, y), v2, (-x - v2[0], -y - v2[1]))])
    return family


def test_check_of_exact_images_of_u_3_is_balanced_and_uniform(capsys, tmp_path):
    # each triple is balanced and uniform by construction, and check
    # decides exact input exactly
    for vectors in exact_u3_family():
        code, report = run(capsys, tmp_path, "check", vectors, mode="exact")
        assert (code, report["balanced"], report["uniform"]) == (0, True, True), vectors


def route_residual(vectors):
    """The residual of canon's float map on the exact vectors, or None where
    the route refuses them as a precision limit."""
    c = Configuration([tuple(map(Fraction, v)) for v in vectors])
    try:
        return canonicalize(c, sys.float_info.max).residual
    except (BalcfgError, ValueError):
        return None


def test_canon_of_exact_images_of_u_3_never_exits_1(capsys, tmp_path):
    # each triple is an image of U_3, so canon has no certificate to make:
    # it exits 0 where its map's residual clears the tolerance and 2 (a
    # precision limit) everywhere else: 149 of the 300 exit 0, and of the
    # 151 that exit 2, 87 name their residual and 64 are DuplicateArgument
    # or SingularFrame
    for vectors in exact_u3_family():
        code, report = run(capsys, tmp_path, "canon", vectors, mode="exact")
        residual = route_residual(vectors)
        cleared = residual is not None and residual <= RESIDUAL_TOL
        assert code == (0 if cleared else 2), (vectors, code, residual)
        if cleared:
            assert report["residual"] == residual


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
# the (m, c) whose families held a file on which check disagreed while it
# read a rounded float table (ROADMAP item 13)
ILL_CONDITIONED_DISAGREE = [(5, 7), (5, 8), (11, 7), (51, 7)]


def test_ill_conditioned_images_lie_in_the_safe_range():
    for m, c in ILL_CONDITIONED_CASES:
        assert all(in_safe_range(sum(vectors, [])) for vectors in ill_conditioned_family(m, c))


@pytest.mark.parametrize(
    "m, c", [case for case in ILL_CONDITIONED_CASES if case not in ILL_CONDITIONED_DISAGREE]
)
def test_check_of_ill_conditioned_images_is_the_exact_verdict(capsys, tmp_path, m, c):
    assert disagreements(capsys, tmp_path, ill_conditioned_family(m, c)) == []


def test_check_of_the_ill_conditioned_images_that_item_13_flips_is_the_exact_verdict(
    capsys, tmp_path
):
    family = [v for m, c in ILL_CONDITIONED_DISAGREE for v in ill_conditioned_family(m, c)]
    assert disagreements(capsys, tmp_path, family) == []


# the (m, c) whose families held a file on which canon exited 1 with
# NotBalanced though the copy it decides is exactly balanced and uniform,
# while it read a rounded float table (item 13): 3, 1 and 4 of their 30 files
ILL_CONDITIONED_CANON_DISAGREE = [(5, 7), (5, 8), (11, 7)]


@pytest.mark.parametrize(
    "m, c", [case for case in ILL_CONDITIONED_CASES if case not in ILL_CONDITIONED_CANON_DISAGREE]
)
def test_canon_of_ill_conditioned_images_agrees_with_the_exact_verdict(capsys, tmp_path, m, c):
    assert canon_disagreements(capsys, tmp_path, ill_conditioned_family(m, c)) == []


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


def test_check_of_sets_scaled_below_the_safe_coordinate_range_is_the_exact_verdict(
    capsys, tmp_path
):
    # the rows are exact ints at any scale, and every value check reports
    # is at most about |v|^2, which stays a finite float below the range
    family = [vectors for k in (-700, -600, -520) for vectors in scaled_family(k)]
    assert disagreements(capsys, tmp_path, family) == []


# above the range the verdicts are exact too, but a witness or step
# constant near |v|^2 overflows as a float and check exits 2 on all 120
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2's reporting rule")
def test_check_of_sets_scaled_past_the_safe_coordinate_range_is_the_exact_verdict(
    capsys, tmp_path
):
    family = [vectors for k in (-700, -600, -520, 520, 600, 700) for vectors in scaled_family(k)]
    assert disagreements(capsys, tmp_path, family) == []


# the one report check cannot make: a witness or step constant, the float
# entry of the exact pair that decided, that is not finite (ROADMAP item 2)
NOT_FINITE = "error: cannot serialize non-finite float"
angles = st.floats(0.0, 2.0 * math.pi)


@st.composite
def conditioned_images(draw):
    """An image of U_m, m odd in 3..41, under R(theta) diag(1, 10^-c)
    R(phi) for c in [0, 12] (condition 1 to 1e12), perturbed by up to
    10^-k for a drawn k or not at all."""
    m = 2 * draw(st.integers(1, 20)) + 1
    c, theta, phi = draw(st.floats(0.0, 12.0)), draw(angles), draw(angles)
    rotations = [LinearMap2(math.cos(a), -math.sin(a), math.sin(a), math.cos(a)) for a in (theta, phi)]
    g = rotations[0].compose(LinearMap2(1.0, 0.0, 0.0, 10.0**-c)).compose(rotations[1])
    image = g.apply_configuration(roots_of_unity(m))
    eps = draw(st.sampled_from([0.0, 0.0, 1e-16, 1e-13, 1e-10, 1e-7]))
    if eps:
        image = perturb(image, eps, seed=draw(st.integers(0, 2**31 - 1)))
    return [[x, y] for x, y in zip(image.xs, image.ys)]


@st.composite
def zero_sum_triples(draw):
    """v1, v2 at a relative angle of 10^-9..10^-3 and -(v1 + v2), on the
    lattice 2^-50 Z, so the triple sums to exactly (0, 0)."""
    theta, r = draw(angles), draw(st.floats(0.5, 1.8))
    turn = 10.0 ** draw(st.floats(-9.0, -3.0))
    v1, v2 = (
        [round(size * f(a) * 2.0**50) * 2.0**-50 for f in (math.cos, math.sin)]
        for size, a in ((r, theta), (r * draw(st.floats(0.9, 1.1)), theta + turn))
    )
    return [v1, v2, [-(v1[0] + v2[0]), -(v1[1] + v2[1])]]


@st.composite
def antipodal_sets(draw):
    """ceil(m/2) members of norm 0.5 to 2 for m in 3..12, floor(m/2) of them
    with a partner at their angle + pi +- 10^-13..10^-7, shuffled."""
    m = draw(st.integers(3, 12))
    members = []
    for i in range((m + 1) // 2):
        r, theta = draw(st.floats(0.5, 2.0)), draw(angles)
        turns = [0.0] if i >= m // 2 else [0.0, math.pi + draw(st.sampled_from([-1, 1])) * 10.0 ** draw(st.floats(-13.0, -7.0))]
        members += [[r * math.cos(theta + t), r * math.sin(theta + t)] for t in turns]
    return draw(st.permutations(members))


@st.composite
def fuzz_sets(draw):
    """A set of one of the three families, scaled by 2^k: k = 0, or a k
    that takes a unit set to subnormals or toward the top of the float
    range. A scaling that overflows or flushes a member to (0, 0) is no
    input."""
    vectors = draw(st.one_of(conditioned_images(), zero_sum_triples(), antipodal_sets()))
    k = draw(st.one_of(st.just(0), st.integers(-1090, -1000), st.integers(-700, 1000)))
    try:
        scaled = [[math.ldexp(x, k), math.ldexp(y, k)] for x, y in vectors]
    except OverflowError:
        scaled = None
    assume(scaled is not None and [0.0, 0.0] not in scaled)
    return scaled


@settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fuzz_sets())
def test_check_is_the_exact_verdict_on_fuzzed_float_sets(capsys, tmp_path, vectors):
    # check reads the oracle's exact table, so its verdicts and exit code
    # are the oracle's everywhere; the one named exception is a report that
    # holds a float entry that is not finite
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith(NOT_FINITE), err
        assert max(x * x + y * y for x, y in vectors) > sys.float_info.max / 4
        return
    report = json.loads(out)
    balanced, uniform = exact_oracle.verdicts(vectors)
    assert (report["balanced"], report["uniform"], code) == (balanced, uniform, 0 if balanced else 1)


@settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(fuzz_sets())
def test_canon_agrees_with_the_exact_verdict_on_fuzzed_float_sets(capsys, tmp_path, vectors):
    # canon's verdict must not contradict the oracle on the copy it decides
    # (CANON_CLAIMS); a route refusal is item 25's one named exception, and
    # exit 2 is a precision refusal, not a verdict. No run is an internal error
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    code = main(["canon", str(path)])
    out, err = capsys.readouterr()
    assert "error: internal" not in err, err
    if code == 2:
        return
    error = json.loads(out)["error"]
    assert code == (0 if error is None else 1)
    if error in ROUTE_REFUSALS:
        return
    claim = CANON_CLAIMS[error]
    assert canon_copy_verdicts(vectors)[: len(claim)] == claim
