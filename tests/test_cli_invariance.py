"""check and canon end to end, through cli.main in process, under the exact
symmetries of their input file: the swap (x, y) -> (y, x), a permuted file
order and a scaling by 2^k. Each keeps the exit codes, check's balanced and
uniform verdicts and canon's ok and error; the swap negates every det2 and
2^k multiplies it by 4^k, so check's balance witness keeps its index and its
value maps by -1 and 4^k. Inputs are float U_m images, copies perturbed well
past the tolerance, exact {v, -v} sets and exact zero-sum triples; draws near
the tolerance are left to the exact audit (tests/test_exact_audit.py). Past
|k| = 512 a product of two float coordinates overflows or underflows; the
verdicts read the exact table and keep, but above 2^512 a reported value
overflows as a float: strict xfails pin that until ROADMAP item 2's
reporting rule lands."""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from balcfg.balance import SAFE_COORDINATE_RANGE
from balcfg.cli import main
from balcfg.geometry import Configuration, roots_of_unity
from balcfg.search import perturb, random_invertible
from balcfg.serialization import serialize_config

rational_coords = st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)
rational_vectors = st.tuples(rational_coords, rational_coords).filter(lambda v: v != (0, 0))


def _image(draw):
    m = draw(st.integers(1, 15)) * 2 + 1
    return random_invertible(draw(st.integers(0, 2**16))).apply_configuration(roots_of_unity(m))


def _perturbed(draw):
    return perturb(_image(draw), draw(st.floats(1e-6, 1e-3)), seed=draw(st.integers(0, 2**16)))


def _pairs(draw):
    half = draw(st.lists(rational_vectors, min_size=1, max_size=4))
    return Configuration(half + [(-x, -y) for x, y in half])


def _triple(draw):
    (ax, ay), (bx, by) = draw(rational_vectors), draw(rational_vectors)
    assume((ax + bx, ay + by) != (0, 0))
    return Configuration([(ax, ay), (bx, by), (-ax - bx, -ay - by)])


INPUTS = {"image": _image, "perturbed": _perturbed, "pairs": _pairs, "triple": _triple}


def _in_safe_range(c):
    tiny, huge = SAFE_COORDINATE_RANGE
    return c.mode != "float" or all(v == 0 or tiny <= abs(v) <= huge for v in c.xs + c.ys)


def _reports(c, path):
    """(exit code, report) of check and of canon on c, saved to path; an
    exit-2 error writes no report, read as {}."""
    path.write_text(serialize_config(c))
    out = []
    for command in ("check", "canon"):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        out.append((code, json.loads(stdout.getvalue() or "{}")))
    return out


def _verdicts(reports):
    (check_code, check), (canon_code, canon) = reports
    fields = check.get("balanced"), check.get("uniform"), canon.get("ok"), canon.get("error")
    return (check_code, canon_code) + fields


def _witness(reports):
    """check's balance witness as (index, exact value), or None."""
    witness = reports[0][1].get("balance_witness")
    return None if witness is None else (witness["index"], Fraction(witness["value"]))


@pytest.mark.parametrize("kind", list(INPUTS))
@settings(deadline=None, max_examples=40)
@given(st.integers(-400, 400), st.data())
def test_check_and_canon_survive_the_exact_maps(tmp_path_factory, kind, k, data):
    c = INPUTS[kind](data.draw)
    path = tmp_path_factory.mktemp("invariance") / "c.json"
    base = _reports(c, path)
    verdicts, witness = _verdicts(base), _witness(base)
    # a float times 2.0**k is exact while the product stays a normal float
    scale = 2.0**k if c.mode == "float" else Fraction(2) ** k
    scaled = Configuration([x * scale for x in c.xs], [y * scale for y in c.ys])
    images = [(Configuration(c.ys, c.xs), -1)]
    if _in_safe_range(scaled):
        images.append((scaled, Fraction(4) ** k))
    for image, factor in images:
        reports = _reports(image, path)
        assert _verdicts(reports) == verdicts
        assert _witness(reports) == (None if witness is None else (witness[0], factor * witness[1]))
    order = data.draw(st.permutations(range(c.m)))
    relabeled = Configuration([c.xs[i] for i in order], [c.ys[i] for i in order])
    assert _verdicts(_reports(relabeled, path)) == verdicts


# the random_invertible(3) image of U_51, and its copy perturbed by 1e-3
# (seed 1): check exits 1 on the copy, and canon reports NotBalanced
U51_IMAGE = random_invertible(3).apply_configuration(roots_of_unity(51))
U51_PERTURBED = perturb(U51_IMAGE, 1e-3, seed=1)


def test_u51_verdicts_hold_up_to_2_to_the_512(tmp_path):
    # (check exit, canon exit, balanced, uniform, canon ok, canon error)
    path = tmp_path / "c.json"
    for c, verdicts in [
        (U51_IMAGE, (0, 0, True, True, True, None)),
        (U51_PERTURBED, (1, 1, False, True, False, "NotBalanced")),
    ]:
        for k in (0, 512, -512):
            scaled = Configuration([x * 2.0**k for x in c.xs], [y * 2.0**k for y in c.ys])
            assert _verdicts(_reports(scaled, path)) == verdicts, k


# above 2^512 check exits 2 on a witness or step constant that overflows
# as a float (ROADMAP item 2's reporting rule)
REPORT_OVERFLOWS = pytest.mark.xfail(strict=True, reason="float reporting rule, ROADMAP item 2")


@pytest.mark.parametrize(
    "c, k",
    [
        pytest.param(U51_PERTURBED, 520, id="perturbed-520", marks=REPORT_OVERFLOWS),
        pytest.param(U51_PERTURBED, 600, id="perturbed-600", marks=REPORT_OVERFLOWS),
        pytest.param(U51_PERTURBED, -600, id="perturbed-minus-600"),
        pytest.param(U51_IMAGE, 520, id="image-520", marks=REPORT_OVERFLOWS),
        pytest.param(U51_IMAGE, -600, id="image-minus-600"),
    ],
)
def test_check_and_canon_survive_float_scalings_past_2_to_the_512(tmp_path, c, k):
    path = tmp_path / "c.json"
    verdicts = _verdicts(_reports(c, path))
    scaled = Configuration([x * 2.0**k for x in c.xs], [y * 2.0**k for y in c.ys])
    assert _verdicts(_reports(scaled, path)) == verdicts
