import argparse
import hashlib
import json
import math
import random
import runpy
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balcfg import balance, cli, geometry, search, sequences
from balcfg.balance import is_uniform, step_constants
from balcfg.cli import main
from balcfg.errors import DuplicateArgument
from balcfg.geometry import Configuration, LinearMap2, det2, roots_of_unity
from balcfg.render import render_svg
from balcfg.search import SearchSpec, enumerate_balanced, perturb, search_balanced
from balcfg.serialization import load_config, parse_config, serialize_config

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_balanced_golden_bytes(capsys):
    code, out, err = run(capsys, "check", str(DATA / "u5.json"))
    assert code == 0
    assert out == (GOLDEN / "check_u5.json").read_text()
    assert "elapsed_ms=" in err


# A GL2 image of U_201 (`gen --m 201 --seed 11`), the same members in a
# seeded shuffled order, and a copy moved by search.perturb(..., 1e-3,
# seed=5): the clean image in label order, one that check must relabel for
# its step constants, and one that fails balance at row 0.
U201_FILES = [
    ("u201_image", 0, 0),
    ("u201_image_shuffled", 0, 0),
    ("u201_image_perturbed", 1, 1),
]


@pytest.mark.parametrize("name, check_code, canon_code", U201_FILES)
def test_u201_image_golden_bytes(capsys, name, check_code, canon_code):
    path = str(DATA / f"{name}.json")
    code, out, _ = run(capsys, "check", path)
    assert code == check_code
    assert out == (GOLDEN / f"check_{name}.json").read_text()
    code, out, _ = run(capsys, "canon", path)
    assert code == canon_code
    assert out == (GOLDEN / f"canon_{name}.json").read_text()


def test_check_unbalanced_golden_bytes(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "not_balanced.json"))
    assert code == 1
    assert out == (GOLDEN / "check_not_balanced.json").read_text()


def test_check_is_deterministic_across_runs(capsys):
    _, first, _ = run(capsys, "check", str(DATA / "u5.json"))
    _, second, _ = run(capsys, "check", str(DATA / "u5.json"))
    assert first == second


def test_check_unbalanced_exits_one(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "not_balanced.json"))
    assert code == 1
    report = json.loads(out)
    assert report["balanced"] is False
    assert report["balance_witness"] == {"index": 0, "value": 1.0}


def test_check_tol_flag_loosens_the_verdict(capsys, tmp_path):
    path = tmp_path / "close.json"
    path.write_text(
        '{"mode": "float", "vectors": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0005]]}\n'
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    code, out, _ = run(capsys, "check", str(path), "--tol", "1e-3")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-3


@pytest.mark.parametrize(
    "vectors, tol, code",
    [
        # det = 2^-53 - 2^-105 > tol, while its float entry rounds to 0
        ([[1.0000000000000002, 1.0], [1.0, 0.9999999999999999]], "1e-17", 1),
        # det = 1.5 * 2^-52 <= tol = 1.75 * 2^-52, while its float entry
        # rounds up to 2^-52 * 2
        ([[1.0000000000000002, 1.5], [1.0, 1.5]], "3.885780586188048e-16", 0),
    ],
    ids=["exact-above", "exact-within"],
)
def test_check_reads_an_explicit_tol_exactly(capsys, tmp_path, vectors, tol, code):
    # two members: each row's one entry pairs with nothing, so the set is
    # balanced exactly when |det(v_0, v_1)| <= tol. The float entry and the
    # exact det fall on opposite sides of tol, and check follows the exact
    # det. The witness names row 0; its value, the rounded float entry, is
    # left unpinned, as it reads 0.0 where the exact det exceeds tol (the
    # strict xfail below)
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    got, out, _ = run(capsys, "check", str(path), "--tol", tol)
    report = json.loads(out)
    assert (got, report["balanced"], report["uniform"]) == (code, code == 0, code == 1)
    witness = report["balance_witness"]
    assert witness is None if code == 0 else witness["index"] == 0


# ROADMAP item 2's reporting rule: a witness shows the failure it names. Here
# the exact det 2^-53 - 2^-105 exceeds tol, and check exits 1, while the
# witness value, the float entry det2(v_0, v_1), rounds to 0
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2's reporting rule")
def test_check_exits_one_with_no_balance_witness_that_reads_zero(capsys, tmp_path):
    vectors = [[1.0000000000000002, 1.0], [1.0, 0.9999999999999999]]
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    code, out, _ = run(capsys, "check", str(path), "--tol", "1e-17")
    assert code != 1 or json.loads(out)["balance_witness"]["value"] != 0


def test_check_overflowing_diagonal_keeps_the_default_tolerance(capsys, tmp_path):
    # x*y of v_0 overflows as a float, where the diagonal entry x*y - y*x
    # would be NaN and a NaN det_max would pass every row; the table's ints
    # hold it exactly, and the witness is the float entry det2(v_0, v_1)
    path = tmp_path / "huge.json"
    path.write_text('{"mode": "float", "vectors": [[1e200, 1e200], [1, 0]]}\n')
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["balanced"] is False
    assert report["balance_witness"] == {"index": 0, "value": -1e200}


def test_check_reports_an_unlabeled_file_with_label_order_step_constants(capsys, tmp_path):
    u5 = roots_of_unity(5)
    path = tmp_path / "u5_swapped.json"
    path.write_text(serialize_config(Configuration([u5[0], u5[2], u5[1], u5[3], u5[4]])))
    code, out, err = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] is True
    assert report["uniform"] is True
    constants = step_constants(u5)
    assert report["step_constants"] == {"A1": constants.A1, "An": constants.An}
    assert "certificate" not in err


def test_check_reports_null_step_constants_when_the_labeling_ties(capsys, tmp_path):
    # the file's order has no step constants, and the squeeze collapses the
    # arguments under ARGUMENT_TIE_TOL, so there is no label order either
    u5 = roots_of_unity(5)
    squeezed = LinearMap2(1.0, 0.0, 0.0, 1e-13).apply_configuration(
        Configuration([u5[0], u5[2], u5[1], u5[3], u5[4]])
    )
    path = tmp_path / "squeezed_u5.json"
    path.write_text(serialize_config(squeezed))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] is True and report["uniform"] is True
    assert report["step_constants"] is None


def test_check_reports_square_witnesses(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "square.json"))
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "exact"
    assert report["balanced"] is True
    assert report["uniform"] is False
    assert report["uniform_witness"] == [0, 2]
    assert report["even_m_witness"] == 2
    assert report["step_constants"] is None


def _exact_file(tmp_path, vectors):
    path = tmp_path / "exact.json"
    rows = ", ".join(f'["{x}", "{y}"]' for x, y in vectors)
    path.write_text(f'{{"mode": "exact", "vectors": [{rows}]}}\n')
    return path, Configuration([(Fraction(x), Fraction(y)) for x, y in vectors])


def test_canon_decides_exact_input_by_the_exact_verdicts(capsys, tmp_path):
    # the float copy of this triple sums to zero; the input does not, and
    # canon reports check's witness in the input's units
    near = str(Fraction(-1) + Fraction(1, 10**15))
    path, _ = _exact_file(tmp_path, [("1", "0"), ("0", "1"), ("-1", near)])
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1 and json.loads(out)["balance_witness"] == {"index": 0, "value": "1"}
    code, out, _ = run(capsys, "canon", str(path))
    report = json.loads(out)
    assert code == 1 and report["error"] == "NotBalanced" and report["witness"] == [0, "1"]


@pytest.mark.parametrize(
    "vectors, error",
    [
        # 1 / det(v_0, v_1) = 1 / 5e-324 overflows: the frame sends v_2 to t = -inf
        ([[5e-324, 0.0], [0.0, 1.0], [-5e-324, -1.0]], "vector (-inf, -1.0) is not finite"),
        # a nearly collinear triple: its map at max norm 1 is finite, and
        # scaled back by 1 / 1.6e-302 it overflows
        (
            [
                [4.03148894516698e-303, 3.697332915781015e-303],
                [8.062989015703253e-303, 7.394671394246676e-303],
                [-1.2094477960870233e-302, -1.1092004310027691e-302],
            ],
            "the map (6486493.171756335, -7072728.995687583, -5617469.981102549, 6125167.210122775)"
            " scaled by 1/1.6410635477020646e-302 is not finite",
        ),
    ],
    ids=["frame", "scaled-map"],
)
def test_canon_of_a_map_that_overflows_exits_two(capsys, tmp_path, vectors, error):
    # balanced and uniform, but the map overflows: a precision refusal, not a certificate
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["balanced"] and json.loads(out)["uniform"]
    assert run(capsys, "canon", str(path)) == (2, "", f"error: {error}\n")


def test_check_reports_exact_step_constants_in_input_units(capsys, tmp_path):
    # the members' denominators differ, so the table's scale is 6^2
    path, _ = _exact_file(tmp_path, [("1/2", "0"), ("0", "1/3"), ("-1/2", "-1/3")])
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["balanced"] is True and report["uniform"] is True
    assert report["step_constants"] == {"A1": "1/6", "An": "1/6"}


def test_check_reports_an_exact_balance_witness_in_input_units(capsys, tmp_path):
    path, cfg = _exact_file(tmp_path, [("1/2", "0"), ("0", "1/3"), ("-1/2", "-1/5")])
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    witness = json.loads(out)["balance_witness"]
    i, value = witness["index"], Fraction(witness["value"])
    assert value in [det2(cfg[i], w) for w in cfg]


def test_check_reports_an_exact_even_m_witness(capsys, tmp_path):
    path, cfg = _exact_file(
        tmp_path, [("1/2", "1/3"), ("1/5", "0"), ("-1/2", "-1/3"), ("-1/5", "0")]
    )
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    j = json.loads(out)["even_m_witness"]
    assert j >= 1 and det2(cfg[0], cfg[j]) == 0


# Each row is computed afresh wherever a verdict reads it. u5.json is a
# float U_5, certified by the canonical route, which reads no row, and
# step_constants' bracket takes its lower end from the step determinants,
# so no row is computed. square.json is exact and closed under negation, so its row 0
# decides balance; exact uniformity and the even-m witness compare the
# members' lines and read no row. u3_exact.json is exact U_3: balance reads
# its 3 rows.
@pytest.mark.parametrize(
    "name, rows",
    [
        ("u5.json", []),
        ("square.json", [(4, 0)]),
        ("u3_exact.json", [(3, 0), (3, 1), (3, 2)]),
    ],
    ids=["u5", "square", "u3_exact"],
)
def test_check_computes_each_row_where_it_is_read(capsys, rows_computed, name, rows):
    code, _, _ = run(capsys, "check", str(DATA / name))
    assert code == 0
    assert rows_computed == rows


def test_check_past_the_safe_range_reads_only_the_balance_rows(capsys, tmp_path, rows_computed):
    # a U_51 image at scale 2^-1000 gets no certificate, so is_balanced
    # reads all 51 rows; the gap floor decides uniformity on the ints
    image = search.random_invertible(3).scale(2.0**-1000).apply_configuration(roots_of_unity(51))
    path = tmp_path / "u51_tiny.json"
    path.write_text(serialize_config(image))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["uniform"]
    assert rows_computed == [(51, i) for i in range(51)]


def _u801_image(tmp_path, variant):
    """A GL2 image of U_801 written by gen, as is, with its members in a
    seeded shuffled order, or moved by perturb as the certify workload's
    copies are."""
    path = tmp_path / f"u801_{variant}.json"
    assert main(["gen", "--m", "801", "--seed", "3", "--out", str(path)]) == 0
    cfg = load_config(str(path))
    if variant == "shuffled":
        vecs = list(cfg.vectors)
        random.Random(7).shuffle(vecs)
        path.write_text(serialize_config(Configuration(vecs)))
    elif variant == "perturbed":
        path.write_text(serialize_config(perturb(cfg, 1e-3, seed=9)))
    return path


@pytest.mark.parametrize(
    "command, variant, code, rows",
    [
        ("check", "clean", 0, 0),
        ("check", "shuffled", 0, 0),
        ("check", "perturbed", 1, 1),
        ("canon", "clean", 0, 0),
        ("canon", "shuffled", 0, 0),
        ("canon", "perturbed", 1, 1),
    ],
)
def test_u801_images_compute_only_row_0(
    capsys, tmp_path, rows_computed, command, variant, code, rows
):
    # the verdicts certify the clean and shuffled images by the canonical
    # map's residual, which reads no row, and check's step_constants reads
    # its 2m entries off the columns, of the file order and of the route's
    # labeled copy, and no row. The perturbed copy fails balance at row 0,
    # whose extremes are also its bracket's lower end, and its arguments'
    # smallest gap certifies uniformity
    path = _u801_image(tmp_path, variant)
    assert run(capsys, command, str(path))[0] == code
    assert rows_computed == [(801, 0)] * rows


@pytest.mark.parametrize("command, code, rows", [("check", 0, 1), ("canon", 1, 1)])
def test_exact_symmetric_set_computes_only_row_0(
    capsys, tmp_path, rows_computed, command, code, rows
):
    # {v, -v} for 50 exact v: balanced, even m = 100, never uniform; row 0
    # passes, the member set is closed under negation, so every row is
    # symmetric; uniformity, and check's even-m witness, find v_0 and -v_0
    # on one line with no row
    rng = random.Random(5)
    half = set()
    while len(half) < 50:
        v = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2))
        if v != (0, 0) and (-v[0], -v[1]) not in half:
            half.add(v)
    vecs = sorted(half) + [(-x, -y) for x, y in sorted(half)]
    path, _ = _exact_file(tmp_path, vecs)
    assert run(capsys, command, str(path))[0] == code
    assert rows_computed == [(100, 0)] * rows


# Float scale extremes (ROADMAP item 2). check decides on the exact table,
# which has no range, so at 1e-200, where float determinants underflow to
# 0, it agrees with canon, which certifies U_3. At 1e308 the step constants
# it reports overflow as floats, so check exits 2: item 2's reporting rule.
@pytest.mark.parametrize(
    "s",
    [
        pytest.param(
            "1e308",
            marks=pytest.mark.xfail(strict=True, reason="float reporting rule, ROADMAP item 2"),
        ),
        "1e-200",
    ],
)
def test_item4_check_agrees_with_canon_at_float_scale_extremes(capsys, tmp_path, s):
    path = tmp_path / "u3_extreme.json"
    path.write_text(f'{{"mode": "float", "vectors": [[{s}, 0.0], [0.0, {s}], [-{s}, -{s}]]}}\n')
    assert run(capsys, "canon", str(path))[0] == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["uniform"] is True


# ROADMAP item 13: a float triple that sums to exactly (0, 0) is balanced,
# and its exact file checks balanced; a float table's rounding made the
# witness (0, -2.1646847425671467e-07), and check of the float file exited
# 1, until the rows were read on the exact ints
ITEM13_TRIPLE = [
    [1.4316555559635162, 0.8170396685600281],
    [1.43165692129665, 0.8170405989512801],
    [-2.863312477260166, -1.6340802675113082],
]


def test_item13_triple_sums_to_zero_and_its_exact_file_checks_balanced(capsys, tmp_path):
    exact = [[Fraction(x), Fraction(y)] for x, y in ITEM13_TRIPLE]
    assert [sum(column) for column in zip(*exact)] == [0, 0]
    path, _ = _exact_file(tmp_path, exact)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["balanced"] is True


def test_item13_check_of_an_exactly_balanced_float_triple_exits_zero(capsys, tmp_path):
    path = tmp_path / "item13.json"
    path.write_text(json.dumps({"mode": "float", "vectors": ITEM13_TRIPLE}) + "\n")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and json.loads(out)["balanced"] is True


def test_search_builds_no_grid_table(capsys, rows_computed):
    # m = 4 over {-1, 0, 1}^2: no table of the 8 grid vectors, and no row;
    # each zero-sum candidate is decided on the grid's ints and lines (on 2
    # lines by closure under negation, and one with a member alone on its
    # line is not balanced at even m), and each of the 6 hits carries its
    # lines, which decide uniformity
    code, out, _ = run(capsys, "search", "--m", "4", "--coords", "-1,0,1")
    assert code == 0
    assert json.loads(out)["count"] == 6
    assert rows_computed == []


@pytest.mark.parametrize(
    "m, values, count, rows", [(1, 100, 9999, 0), (2, 10, 136, 0)]
)
def test_small_m_search_builds_no_grid_table(
    capsys, rows_computed, m, values, count, rows
):
    # a table of the whole grid (9999 vectors for 100 values) would only
    # cost memory
    coords = ",".join(str(k) for k in range(values))
    code, out, _ = run(capsys, "search", "--m", str(m), "--coords", coords)
    assert code == 0
    assert json.loads(out)["count"] == count
    # the hits are listed by line, with no balance verdict, and uniformity
    # compares their lines, so no row is computed
    assert rows_computed == [(m, 0)] * rows


def test_canon_golden_bytes(capsys):
    code, out, _ = run(capsys, "canon", str(DATA / "u7_moved.json"))
    assert code == 0
    assert out == (GOLDEN / "canon_u7_moved.json").read_text()


def test_canon_failure_is_a_report_not_a_crash(capsys):
    code, out, _ = run(capsys, "canon", str(DATA / "square.json"))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert report["error"] == "NotUniform"
    assert report["witness"] == [0, 2]


def test_canon_residual_above_its_tolerance_is_a_certificate(capsys):
    # the golden map misses the roots of unity by its residual, which a
    # residual tolerance of 0 refuses
    golden = json.loads((GOLDEN / "canon_u7_moved.json").read_text())
    code, out, _ = run(capsys, "canon", str(DATA / "u7_moved.json"), "--tol", "0")
    assert code == 1
    report = json.loads(out)
    assert (report["ok"], report["error"]) == (False, "ResidualTooLarge")
    assert report["witness"] == golden["residual"]
    assert '"witness": 5.7219584981527971e-16' in out


def test_canon_precision_refusal_is_not_a_certificate(capsys, tmp_path, count_calls):
    # the verdicts' route refuses, so it certifies nothing and memoizes no
    # form; canonicalize runs it again on the same copy (max norm 1) and
    # reports the route's own refusal
    path = tmp_path / "u5_squeezed.json"
    squeezed = LinearMap2(1.0, 0.0, 0.0, 1e-13).apply_configuration(roots_of_unity(5))
    path.write_text(serialize_config(squeezed))
    with pytest.raises(DuplicateArgument) as refusal:
        balance._map_onto_roots(squeezed)
    calls = count_calls(balance._map_onto_roots)
    code, out, err = run(capsys, "canon", str(path))
    assert code == 2
    assert out == ""
    assert "share an argument" in err
    assert err.splitlines() == [f"error: {refusal.value}"]
    assert [work.m for (work,) in calls] == [5, 5]


def test_canon_of_exact_input_never_exits_one_on_its_residual(capsys):
    # exact U_3 is exactly an image of U_3, so the float map's residual
    # above --tol 0 is a precision limit, not a certificate
    code, out, err = run(capsys, "canon", str(DATA / "u3_exact.json"), "--tol", "0")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: residual 3.140e-16 exceeds 0.000e+00")


@pytest.mark.parametrize("command", ["canon", "render"])
def test_exact_input_whose_float_copy_overflows_exits_two(capsys, tmp_path, command):
    # check decides this triple exactly and exits 0; the float copy that
    # canon and render need does not exist, which is an input error, not a
    # certificate
    big = str(10**400)
    path, _ = _exact_file(tmp_path, [(big, "0"), ("0", big), ("-" + big, "-" + big)])
    assert run(capsys, "check", str(path))[0] == 0
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: exact x coordinate 1000") and "does not fit a float" in err


TINY, HUGE = Fraction(1, 10**400), 10**400


@pytest.mark.parametrize("command", ["canon", "render"])
@pytest.mark.parametrize(
    "vectors",
    [
        [("1e-400", "0"), ("0", "1e-400"), ("-1e-400", "-1e-400")],
        # member 1 overflows a float as well; member 0 comes first
        [(TINY, 0), (HUGE, 1), (-TINY - HUGE, -1)],
    ],
    ids=["tiny", "under_over"],
)
def test_exact_input_whose_float_copy_underflows_exits_two(capsys, tmp_path, command, vectors):
    # no member is zero, but each coordinate's float copy is 0.0, so member
    # 0 has no nonzero float copy: an input error, named by its coordinates
    path, _ = _exact_file(tmp_path, vectors)
    assert run(capsys, "check", str(path))[0] == 0
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: exact coordinates ({TINY}, 0) have no nonzero float copy\n"


@pytest.mark.parametrize(
    "mode, s, norm",
    [
        # hypot overflows, so 1 / max |v| is 0
        ("float", "1.5e308", "inf"),
        # max |v| is subnormal, so 1 / max |v| overflows: the copy is scaled
        # up by 2^600 first, and the map onto U_3, scaled back, overflows
        ("float", "1e-310", "1.4142135623731e-310"),
        ("exact", '"1e-320"', "1.414e-320"),
    ],
)
def test_canon_refuses_a_rescale_that_is_zero_or_not_finite(capsys, tmp_path, mode, s, norm):
    neg = f'"-{s[1:]}' if s.startswith('"') else f"-{s}"
    zero = '"0"' if mode == "exact" else "0.0"
    path = tmp_path / "u3_extreme.json"
    path.write_text(
        f'{{"mode": "{mode}", "vectors": [[{s}, {zero}], [{zero}, {s}], [{neg}, {neg}]]}}\n'
    )
    code, out, err = run(capsys, "canon", str(path))
    assert code == 2
    assert out == ""
    if norm == "inf":
        assert err == f"error: largest norm {norm} has no finite nonzero reciprocal to rescale by\n"
    else:
        assert err.startswith("error: the map (")
        assert err.endswith(f") scaled by 1/{norm} is not finite\n")


@pytest.mark.parametrize(
    "vectors, error, witness",
    [
        (
            [[1e-310, 0.0], [0.0, 1e-310], [-1e-310, -2e-310]],
            "NotBalanced",
            [0, -0.39999999999999997],
        ),
        (
            [[1e-310, 0.0], [0.0, 1e-310], [-1e-310, -1e-310], [2e-310, 0.0], [-2e-310, 0.0]],
            "NotUniform",
            [0, 3],
        ),
    ],
)
def test_canon_decides_a_set_whose_largest_norm_is_subnormal(
    capsys, tmp_path, vectors, error, witness
):
    # 1 / max |v| overflows, so canon scales its copy up by 2^600 first,
    # exactly, and then to max norm 1, where the verdicts decide it
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps({"mode": "float", "vectors": vectors}) + "\n")
    code, out, _ = run(capsys, "canon", str(path))
    report = json.loads(out)
    assert (code, report["error"], report["witness"]) == (1, error, witness)


def test_canon_refuses_a_rescale_that_flushes_a_member(capsys, tmp_path):
    # 1 / max|v| = 0.5 is finite, but it halves (0, 5e-324) to (0, 0): canon
    # names the rescale and the input member before it builds the copy
    path = tmp_path / "flushed.json"
    path.write_text(
        '{"mode": "float", "vectors": [[0.0, 2.0], [0.0, 5e-324], [-0.0, -2.0], [-0.0, -5e-324]]}\n'
    )
    code, out, err = run(capsys, "canon", str(path))
    assert (code, out) == (2, "")
    assert err == "error: rescaling by 1/2.0 flushes member 1 (0.0, 5e-324) to zero\n"


def test_roots_golden_bytes(capsys):
    code, out, _ = run(capsys, "roots", "--n", "3")
    assert code == 0
    assert out == (GOLDEN / "roots_n3.json").read_text()


def test_roots_keeps_the_bytes_of_n_1_to_100(capsys):
    # roots_n1-100.sha256 holds the SHA-256 of `roots --n N` stdout for
    # N = 1..100, one "<digest>  roots_nN.json" line each, as sha256sum writes
    lines = (GOLDEN / "roots_n1-100.sha256").read_text().splitlines()
    assert [line.split()[1] for line in lines] == [f"roots_n{n}.json" for n in range(1, 101)]
    for n, line in enumerate(lines, 1):
        code, out, _ = run(capsys, "roots", "--n", str(n))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == line.split()[0], f"--n {n}"


def test_roots_keeps_the_bytes_of_n_400(capsys):
    # roots_n400.sha256 holds the SHA-256 of `roots --n 400` stdout (m = 801)
    # in the same sha256sum format
    digest, name = (GOLDEN / "roots_n400.sha256").read_text().split()
    assert name == "roots_n400.json"
    code, out, _ = run(capsys, "roots", "--n", "400")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_ops_of_seeds_1_to_10_keep_their_bytes(capsys, monkeypatch, tmp_path):
    # certify_seeds_1-10.sha256 holds one "<digest>  seed<S>_op<I>_<command>"
    # line per op of the benchmark's certify workload (bench/workloads.py,
    # read only) for seeds 1..10, in op order; the digest is the SHA-256 of
    # "<seed>\n<op id>\n<exit code>\n<stdout>". A benchmark change to the op
    # list re-records the file.
    monkeypatch.syspath_prepend(str(HERE.parent / "bench"))
    import workloads

    got = []
    for seed in range(1, 11):
        workdir = tmp_path / f"seed{seed}"
        workdir.mkdir()
        for op in workloads.build("certify", seed, str(workdir)):
            code, out, _ = run(capsys, *op.argv)
            digest = hashlib.sha256(f"{seed}\n{op.op_id}\n{code}\n{out}".encode()).hexdigest()
            got.append(f"{digest}  seed{seed}_op{op.op_id}_{op.command}")
    lines = (GOLDEN / "certify_seeds_1-10.sha256").read_text().splitlines()
    assert [line.split()[1] for line in got] == [line.split()[1] for line in lines]
    for mine, recorded in zip(got, lines):
        assert mine == recorded


def test_roots_accepts_m_spelling(capsys):
    _, by_n, _ = run(capsys, "roots", "--n", "3")
    _, by_m, _ = run(capsys, "roots", "--m", "7")
    assert by_n == by_m


@pytest.mark.parametrize("n", [21, 24, 100, 400])
def test_roots_beyond_twenty_match_the_closed_form(capsys, n):
    code, out, _ = run(capsys, "roots", "--n", str(n))
    assert code == 0
    m = 2 * n + 1
    grid = sorted(2 * math.cos(2 * math.pi * k / m) for k in range(1, n + 1))
    report = json.loads(out)
    solved = report["solver_roots"]
    assert len(solved) == n
    assert all(abs(a - b) <= 1e-10 for a, b in zip(solved, grid))
    assert report["max_deviation"] <= 1e-10
    # each root is the midpoint or the zero-width end of a cell of the
    # lattice 2^-40 Z
    assert all((r * 2.0**41).is_integer() for r in solved)


@pytest.mark.parametrize(
    "flag, value, m", [("--n", 1, 3), ("--n", 3, 7), ("--m", 49, 49), ("--n", 61, 123)]
)
def test_roots_refuses_when_the_signs_prove_nothing(capsys, monkeypatch, flag, value, m):
    # certify_cells forced to None: closure_roots raises the ValueError that
    # main maps to one error line and exit 2, a refusal that names m
    monkeypatch.setattr(sequences, "certify_cells", lambda p, guesses: None)
    code, out, err = run(capsys, "roots", flag, str(value))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
    assert f"m = {m} " in err
    assert "certificate" not in err


def test_internal_fault_exits_two(capsys, monkeypatch):
    # an exception that no command expects is an internal fault, never exit 1
    def fault(args):
        raise ArithmeticError("no such number")

    monkeypatch.setattr(cli, "_cmd_roots", fault)
    code, out, err = run(capsys, "roots", "--n", "3")
    assert code == 2
    assert out == ""
    assert err == "error: internal ArithmeticError: no such number\n"


def test_roots_flag_validation(capsys):
    code, _, err = run(capsys, "roots", "--n", "2", "--m", "7")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, "roots")
    assert code == 2


def test_gen_matches_committed_fixture(capsys):
    code, out, _ = run(capsys, "gen", "--m", "5")
    assert code == 0
    assert out == (DATA / "u5.json").read_text()
    code, out, _ = run(capsys, "gen", "--m", "7", "--seed", "7")
    assert code == 0
    assert out == (DATA / "u7_moved.json").read_text()


def test_gen_model_configuration(capsys):
    code, out, _ = run(capsys, "gen", "--m", "5", "--k", "2")
    assert code == 0
    c = parse_config(out)
    assert c.m == 5
    assert tuple(c[2]) == (0.0, 1.0)


def test_gen_model_configuration_closes_at_m801(capsys):
    # at k = 1 and k = n the float vector recurrence misses closure by up to 1.6e-9
    for k in ("1", "400"):
        code, out, _ = run(capsys, "gen", "--m", "801", "--k", k)
        assert code == 0
        c = parse_config(out)
        assert c.m == 801
        assert tuple(c[400]) == (0.0, 1.0)


def test_gen_rejects_even_m(capsys):
    code, _, err = run(capsys, "gen", "--m", "4")
    assert code == 2
    assert "odd" in err


def test_gen_svg_format(capsys):
    code, out, _ = run(capsys, "gen", "--m", "5", "--format", "svg")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.rstrip().endswith("</svg>")


def test_render_golden_bytes(capsys):
    code, out, _ = run(capsys, "render", str(DATA / "u5.json"), "--format", "svg")
    assert code == 0
    assert out == (GOLDEN / "u5.svg").read_text()
    assert "-0.000000" not in out


def _ref_render_svg(c):
    """The former renderer: two f-strings per member through a formatter
    that wrote a negative zero unsigned."""

    def fmt(value):
        text = f"{value:.6f}"
        return "0.000000" if text == "-0.000000" else text

    floats = c.as_float()
    reach = max(1.0, max(map(math.hypot, floats.xs, floats.ys)))
    unit = 330.0 / reach
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" viewBox="0 0 800 800">',
        "  <defs>",
        '    <marker id="tip" markerWidth="10" markerHeight="8" refX="9" refY="4" '
        'orient="auto" markerUnits="userSpaceOnUse">',
        '      <path d="M0,0 L10,4 L0,8 z" fill="#1f5fa8"/>',
        "    </marker>",
        "  </defs>",
        '  <rect width="800" height="800" fill="#ffffff"/>',
        f'  <circle cx="{fmt(400.0)}" cy="{fmt(400.0)}" r="{fmt(unit)}" '
        'fill="none" stroke="#bbbbbb" stroke-dasharray="6 4"/>',
    ]
    tips = [(400.0 + unit * x, 400.0 - unit * y, x, y) for x, y in zip(floats.xs, floats.ys)]
    for tip_x, tip_y, _, _ in tips:
        lines.append(
            f'  <line x1="{fmt(400.0)}" y1="{fmt(400.0)}" x2="{fmt(tip_x)}" y2="{fmt(tip_y)}" '
            'stroke="#1f5fa8" stroke-width="2" marker-end="url(#tip)"/>'
        )
    for i, (tip_x, tip_y, x, y) in enumerate(tips):
        length = math.hypot(x, y)
        lines.append(
            f'  <text x="{fmt(tip_x + 14.0 * x / length)}" y="{fmt(tip_y - 14.0 * y / length)}" '
            'font-family="monospace" font-size="14" fill="#222222" '
            f'text-anchor="middle">{i}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# the extremes of the float range, whose norms overflow or are tiny, and
# signed zeros
render_coords = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 1.7976931348623157e308, -1e308, 5e-324, -1e-12, 1e-200]),
)


@settings(deadline=None)
@given(
    st.lists(st.tuples(render_coords, render_coords), min_size=1, max_size=12).filter(
        lambda vecs: (0, 0) not in vecs
    )
)
def test_render_svg_matches_the_former_renderer(vecs):
    # where the largest norm overflows, the former renderer drew every arrow
    # at the center, and where 14 times it overflows, it wrote inf into the
    # labels; the renderer refuses both inputs instead
    c = Configuration(vecs)
    reach = max(map(math.hypot, c.xs, c.ys))
    if reach == math.inf:
        with pytest.raises(ValueError, match="^largest norm inf is not finite"):
            render_svg(c)
    elif 14.0 * reach == math.inf:
        with pytest.raises(ValueError, match="overflows its 14-pixel label offset"):
            render_svg(c)
    else:
        assert render_svg(c) == _ref_render_svg(c)


@pytest.mark.parametrize("scale", [1e-12, 1e-200])
def test_render_puts_a_short_members_label_14_pixels_beyond_its_tip(scale):
    # the label offset divides by the member's own norm, which no floor
    # replaces, however short the member
    svg = render_svg(Configuration([(1.0, 0.0), (scale, 0.0), (-1.0, 0.0)]))
    line = [row for row in svg.splitlines() if row.startswith("  <line")][1]
    text = [row for row in svg.splitlines() if row.startswith("  <text")][1]
    tip_x = float(line.split('x2="')[1].split('"')[0])
    label_x = float(text.split('x="')[1].split('"')[0])
    assert (tip_x, label_x) == (400.0, 414.0)


def test_render_refuses_a_largest_norm_that_overflows(capsys, tmp_path):
    # each coordinate is finite, but hypot of the third member overflows, so
    # no scale fits it on the canvas: one error line, no SVG
    path = tmp_path / "huge.json"
    path.write_text(
        '{"mode": "float", "vectors": [[1.5e308, 0.0], [0.0, 1.5e308], [-1.5e308, -1.5e308]]}\n'
    )
    code, out, err = run(capsys, "render", str(path))
    assert (code, out) == (2, "")
    assert err == "error: largest norm inf is not finite, so no scale draws the members\n"
    # at 1e308 the largest norm is finite, but 14 times it is not, so the
    # label offsets 14 * x / |v| would be inf
    path.write_text('{"mode": "float", "vectors": [[1e308, 0], [0, 1e308], [-1e308, -1e308]]}\n')
    code, out, err = run(capsys, "render", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: largest norm 1.4142135623730951e+308 overflows its 14-pixel label offset, "
        "so no scale draws the members\n"
    )


@pytest.mark.parametrize("name", ["u5", "u3_exact", "u5_exact_rounded"])
def test_render_json_round_trips_the_file(capsys, name):
    code, out, _ = run(capsys, "render", str(DATA / f"{name}.json"), "--format", "json")
    assert code == 0
    assert out == (DATA / f"{name}.json").read_text()


def test_gen_m801_image_round_trips_and_certifies(capsys, tmp_path):
    # the file that gen writes keeps its bytes when read and written again,
    # and the verdicts certify the image by its canonical map: check finds
    # it balanced and uniform with step constants, and canon maps all 801
    # members onto the roots of unity
    path = str(tmp_path / "a.json")
    assert main(["gen", "--m", "801", "--seed", "7", "--out", path]) == 0
    code, out, _ = run(capsys, "render", path, "--format", "json")
    assert code == 0
    assert out == Path(path).read_text()
    code, out, _ = run(capsys, "check", path)
    report = json.loads(out)
    assert code == 0 and report["balanced"] is True and report["uniform"] is True
    assert report["step_constants"] is not None
    code, out, _ = run(capsys, "canon", path)
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    assert report["k"] == 400 and report["index_map"] == list(range(801))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", str(DATA / "u5.json")], GOLDEN / "check_u5.json"),
        (["canon", str(DATA / "u7_moved.json")], GOLDEN / "canon_u7_moved.json"),
        (["roots", "--n", "3"], GOLDEN / "roots_n3.json"),
        (["gen", "--m", "5"], DATA / "u5.json"),
        (["render", str(DATA / "u5.json"), "--format", "svg"], GOLDEN / "u5.svg"),
    ],
    ids=["check", "canon", "roots", "gen", "render"],
)
def test_out_flag_writes_stdout_bytes(capsys, tmp_path, argv, expected):
    target = tmp_path / "report"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == expected.read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--n", "2", "--m", "7"],
        ["roots", "--n", "0"],
        ["gen", "--m", "4"],
        ["search", "--m", "3", "--coords", "1/0"],
        ["roots", "--m", "4"],
        ["roots", "--m", "1"],
        ["search", "--m", "0", "--coords", "0,1"],
    ],
    ids=[
        "roots-n-and-m",
        "roots-n0",
        "gen-even-m",
        "search-bad-coords",
        "roots-m4",
        "roots-m1",
        "search-m0",
    ],
)
def test_usage_errors_take_the_one_error_path(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_module_entry_point_runs_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["balcfg", "roots", "--n", "3"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("balcfg", run_name="__main__")
    assert exit_.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / "roots_n3.json").read_text()


def test_timing_flag_embeds_elapsed(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "u5.json"), "--timing")
    assert code == 0
    report = json.loads(out)
    assert "elapsed_ms" in report
    assert report["elapsed_ms"] >= 0


def test_search_summary_and_files(capsys, tmp_path):
    out_dir = tmp_path / "hits"
    code, out, _ = run(
        capsys, "search", "--m", "3", "--coords", "-1,0,1", "--out", str(out_dir)
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["count"] == 4
    assert summary["uniform_count"] == 4
    assert summary["files"] == [f"balanced_{i:04d}.json" for i in range(4)]
    for name in summary["files"]:
        cfg = parse_config((out_dir / name).read_text())
        assert cfg.m == 3
    assert (out_dir / "summary.json").read_text() == out


# uniform_count counts the hits whose members lie on distinct lines, with
# or without --uniform
@pytest.mark.parametrize(
    "coords, flags, count, uniform_count",
    [
        ("-1,0,1,2", ["--uniform"], 11, 11),
        ("-1,0,1,2", [], 14, 11),
        ("-2,-1,0,1,2", ["--uniform"], 44, 44),
        ("-2,-1,0,1,2", [], 60, 44),
    ],
)
def test_search_uniform_flag_keeps_the_uniform_hits(capsys, coords, flags, count, uniform_count):
    code, out, _ = run(capsys, "search", "--m", "3", "--coords", coords, *flags)
    assert code == 0
    summary = json.loads(out)
    assert summary["require_uniform"] is bool(flags)
    assert (summary["count"], summary["uniform_count"]) == (count, uniform_count)


@pytest.mark.parametrize("flags", [["--uniform"], []])
@pytest.mark.parametrize("m, count, uniform_count", [(3, 60, 44), (4, 66, 0)])
def test_search_counts_uniform_hits_with_no_is_uniform_call_and_no_hit_built(
    capsys, monkeypatch, count_calls, flags, m, count, uniform_count
):
    # the summary's uniform_count is the number of enumerate_balanced's hits
    # that is_uniform accepts: 44 of the 60 at m = 3, none of the 66 at m = 4
    spec = SearchSpec(m, tuple(map(Fraction, (-2, -1, 0, 1, 2))))
    hits = enumerate_balanced(spec)
    assert (len(hits), sum(is_uniform(cfg)[0] for cfg in hits)) == (count, uniform_count)
    # a plain search counts them from their index tuples and the grid's
    # lines: it calls is_uniform on none, and builds no Configuration but
    # the grid of 24 vectors
    calls = count_calls(balance.is_uniform)
    built = []
    of_checked, init = Configuration._of_checked.__func__, Configuration.__init__
    monkeypatch.setattr(
        Configuration,
        "_of_checked",
        classmethod(lambda cls, xs, ys: built.append(len(xs)) or of_checked(cls, xs, ys)),
    )
    monkeypatch.setattr(
        Configuration, "__init__", lambda self, *args: built.append(args) or init(self, *args)
    )
    code, out, _ = run(capsys, "search", "--m", str(m), "--coords", "-2,-1,0,1,2", *flags)
    summary = json.loads(out)
    expected = (uniform_count, uniform_count) if flags else (count, uniform_count)
    assert code == 0 and (summary["count"], summary["uniform_count"]) == expected
    assert calls == [] and built == [24]


@pytest.mark.parametrize("flags", [["--uniform"], []])
def test_search_enumerates_once_per_command(capsys, tmp_path, count_calls, flags):
    # with --out the hits are listed once, written, and counted; without it
    # they are listed once and counted; neither path calls is_uniform
    calls, uniform_calls = count_calls(search._hits), count_calls(balance.is_uniform)
    argv = ["search", "--m", "3", "--coords", "-2,-1,0,1,2", *flags]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    code, written, _ = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 0 and len(calls) == 2 and uniform_calls == []
    counts = [[json.loads(out)[key] for key in ("count", "uniform_count")] for out in (plain, written)]
    assert counts[0] == counts[1] == ([44, 44] if flags else [60, 44])


# (m, coords, count, uniform_count) of search, at least one spec per route
SEARCH_COUNTS = [
    (5, "-2,-1,0,1,2", 92, 0),
    # on 2 lines, a zero-sum set not closed under v -> -v is not balanced
    (6, "-3,0,1,2", 0, 0),
    # odd m: the 2-line sets and the sets on 4 or more lines with a nonzero
    # third moment are refused; is_balanced finds the 14 hits, each on 3
    # lines
    (5, "-3,-1,0,1,2", 14, 0),
    # even m: a member alone on its line, as every set of 4 on 3 or more
    # lines has
    (4, "-2,-1,0,1,2", 66, 0),
    # even m lists its hits on two lines from the pairs {v, -v}, and m = 4
    # runs no join; these are the counts the search gave when it joined
    # every zero-sum set
    (4, "-3,-2,-1,0,1,2,3", 324, 0),
    (6, "-2,-1,0,1,2", 228, 0),
    (8, "-2,-1,0,1,2", 495, 0),
    # at even m a set with no member alone on its line spans at most m/2
    # lines: 360 of these hits lie on 5 = m/2 lines
    (10, "-2,-1,0,1,2", 792, 0),
    # C(99, 3) left halves are within the budget: the hits are the 6-subsets
    # of three lines of 9 points
    (6, "0,1,2,3,4,5,6,7,8,9", 252, 0),
]


@pytest.mark.parametrize("m, coords, count, uniform_count", SEARCH_COUNTS)
def test_search_counts(capsys, m, coords, count, uniform_count):
    code, out, _ = run(capsys, "search", "--m", str(m), "--coords", coords)
    assert code == 0
    summary = json.loads(out)
    assert (summary["count"], summary["uniform_count"]) == (count, uniform_count)


@pytest.mark.parametrize("require_uniform", [False, True])
@pytest.mark.parametrize("m, coords, count, uniform_count", SEARCH_COUNTS)
def test_count_balanced_agrees_with_enumerate_balanced_on_search_counts(
    m, coords, count, uniform_count, require_uniform
):
    spec = SearchSpec(m, tuple(map(Fraction, coords.split(","))), require_uniform)
    hits = enumerate_balanced(spec)
    assert search_balanced(spec)[:2] == (len(hits), sum(is_uniform(cfg)[0] for cfg in hits))
    assert len(hits) == (uniform_count if require_uniform else count)


@pytest.mark.parametrize("flags", [[], ["--uniform"]])
def test_search_gives_the_frozen_reference_counts(capsys, flags):
    # [count, uniform_count] of each of the benchmark's 660 search specs, as
    # recorded when the benchmark was introduced; under --uniform both are
    # the uniform count
    reference = json.loads((HERE.parent / "bench" / "search_reference.json").read_text())
    got, expected = {}, {}
    for key, (count, uniform_count) in reference.items():
        m, coords = key.split(":")
        code, out, _ = run(capsys, "search", "--m", m, "--coords", coords, *flags)
        summary = json.loads(out)
        got[key] = [code, summary["count"], summary["uniform_count"]]
        expected[key] = [0, uniform_count if flags else count, uniform_count]
    assert len(got) == 660 and got == expected


BAD_COORDS = {
    "1,1/0": "Fraction(1, 0)",
    "0, -0/0": "Fraction(0, 0)",
    "1,--1": "Invalid literal for Fraction: '--1'",
    "1,1/2/3": "Invalid literal for Fraction: '1/2/3'",
    "0,abc": "Invalid literal for Fraction: 'abc'",
    "0,1,1e1000000": "exponent 1000000 exceeds the limit of 4300 digits",
}


@pytest.mark.parametrize("coords, message", BAD_COORDS.items(), ids=list(BAD_COORDS))
def test_search_names_a_bad_coordinate_as_fraction_does(capsys, coords, message):
    code, out, err = run(capsys, "search", "--m", "3", "--coords", coords)
    assert (code, out) == (2, "")
    assert err == f"error: search: bad --coords: {message}\n"


def test_search_reads_other_fraction_forms_as_p_q(capsys):
    _, twin, _ = run(capsys, "search", "--m", "3", "--coords", "-1,-1/2,0,1/2,1")
    code, out, _ = run(capsys, "search", "--m", "3", "--coords", "-1e0, -0.5,+0,+1/2,1.0")
    assert code == 0
    assert out == twin


def test_search_budget_exit(capsys):
    # C(99, 6) left halves exceed the budget
    code, _, err = run(capsys, "search", "--m", "12", "--coords", "0,1,2,3,4,5,6,7,8,9")
    assert code == 2
    assert "error" in err


def test_search_within_the_prefix_budget_runs(capsys):
    code, out, _ = run(capsys, "search", "--m", "8", "--coords", "-1,0,1")
    assert code == 0
    assert json.loads(out)["count"] == 1


@pytest.mark.skipif(sys.version_info < (3, 11), reason="Fraction reads '_' from Python 3.11")
@pytest.mark.parametrize("command", ["check", "canon"])
def test_u3_exact_in_other_fraction_forms_gives_its_golden_report(capsys, tmp_path, command):
    # the reports of u3_exact.json's "p/q" file, whose name they carry
    path = tmp_path / "u3_exact.json"
    path.write_text(
        '{"mode": "exact", "vectors": [["+1", "0.0"], ["0", "1_0/10"], ["-1e0", "-1"]]}\n'
    )
    code, out, _ = run(capsys, command, str(path))
    assert code == 0
    assert out == (GOLDEN / f"{command}_u3_exact.json").read_text()


@pytest.mark.parametrize(
    "entry, message",
    [
        ("[NaN, 0.0]", "coordinate nan is not a finite number"),
        # the Configuration constructor refuses a coordinate that overflows a
        # float and a zero member, and the per-entry parser names the entry
        ("[1e400, 1.0]", "coordinate inf is not a finite number"),
        ("[0.0, 0.0]", "zero vector not allowed"),
    ],
    ids=["nan", "overflow", "zero"],
)
def test_check_names_a_bad_entry_on_one_error_line(capsys, tmp_path, entry, message):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"mode": "float", "vectors": [[1.0, 0.0], {entry}, [-1.0, -1.0]]}}\n')
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: bad.json: vectors[1]: {message}\n"


def test_check_refuses_a_file_whose_top_level_is_a_list(capsys, tmp_path):
    path = tmp_path / "list.json"
    path.write_text('[[1.0, 0.0], [0.0, 1.0]]\n')
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and err.rstrip().endswith("top level must be an object")


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "no_such_file.json")
    assert code == 2
    assert "error" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "float", "vectors": [[1, 2],]}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "line" in err


# a coordinate past the int-string limit: an exact exponent, which Fraction
# would first raise 10 to; an exact value whose numerator or denominator str
# could not write back, though its exponent is within the limit; and a JSON
# int, which json.loads refuses. And JSON nested past the recursion limit
OVER_THE_LIMIT = {
    "exponent": (
        '{"mode": "exact", "vectors": [["1", "0"], ["0", "1e1000000"]]}',
        "vectors[1]: not a rational: '1e1000000'"
        " (exponent 1000000 exceeds the limit of 4300 digits)",
    ),
    "value": (
        '{"mode": "exact", "vectors": [["1", "0"], ["0", "1e4300"], ["-1", "0"]]}',
        "vectors[1]: not a rational: '1e4300' (the value exceeds the limit of 4300 digits)",
    ),
    "mantissa": (
        '{"mode": "exact", "vectors": [["1", "0"], ["0", "1"], ["-1", "12e4299"]]}',
        "vectors[2]: not a rational: '12e4299' (the value exceeds the limit of 4300 digits)",
    ),
    "denominator": (
        '{"mode": "exact", "vectors": [["1", "0"], ["0", "3e-4300"]]}',
        "vectors[1]: not a rational: '3e-4300' (the value exceeds the limit of 4300 digits)",
    ),
    "int": ('{"mode": "float", "vectors": [[%s, 0]]}' % ("1" * 5000), "Exceeds the limit"),
    "nested": (
        '{"mode": "float", "vectors": %s%s}' % ("[" * 100_000, "]" * 100_000),
        "maximum recursion depth exceeded",
    ),
}


@pytest.mark.parametrize(
    "command",
    [("check",), ("canon",), ("render",), ("render", "--format", "json")],
    ids=["check", "canon", "render", "render-json"],
)
@pytest.mark.parametrize("text, message", OVER_THE_LIMIT.values(), ids=list(OVER_THE_LIMIT))
def test_a_coordinate_past_the_limit_exits_two_at_once_naming_the_file(
    capsys, tmp_path, command, text, message
):
    path = tmp_path / "big.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith(f"error: big.json: {message}") and err.count("\n") == 1


def test_render_json_writes_back_every_coordinate_at_the_limit(capsys, tmp_path):
    # each coordinate has 4300 digits in its numerator or denominator, the
    # most that the reader accepts, by the two-int path or by Fraction's
    nines = "9" * 4300
    vectors = [("1e4299", "0"), ("0", "-" + nines), ("1/" + nines, "-1e-4299"), ("5e4299", "1")]
    path, c = _exact_file(tmp_path, vectors)
    code, out, _ = run(capsys, "render", str(path), "--format", "json")
    assert code == 0
    assert parse_config(out) == c and out == serialize_config(c)


@pytest.mark.parametrize(
    "command, vectors",
    [
        # balanced and uniform: the step constants are 10^4400
        ("check", [("1e2200", "0"), ("0", "1e2200"), ("-1e2200", "-1e2200")]),
        # not balanced: the witness is a determinant near 10^4400
        ("check", [("1e2200", "0"), ("0", "1e2200"), ("-1e2200", "-2e2200")]),
        ("canon", [("1e2200", "0"), ("0", "1e2200"), ("-1e2200", "-2e2200")]),
    ],
    ids=["check-constants", "check-witness", "canon-witness"],
)
def test_a_report_value_past_the_limit_exits_two_naming_the_limit(
    capsys, tmp_path, command, vectors
):
    # every coordinate is within the limit, and the file reads back; a
    # product of two coordinates is not, so the report cannot be written
    path, c = _exact_file(tmp_path, vectors)
    code, out, _ = run(capsys, "render", str(path), "--format", "json")
    assert (code, parse_config(out)) == (0, c)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == "error: report value past the 4300-digit limit\n"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
def test_render_rejects_non_finite_coordinates(capsys, tmp_path, literal):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mode": "float", "vectors": [[1.0, 0.0], [%s, 1.0]]}' % literal)
    code, out, err = run(capsys, "render", str(bad))
    assert code == 2
    assert out == ""
    assert "not a finite number" in err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(DATA / "u5.json"), "--tol", "-1"],
        ["canon", str(DATA / "u7_moved.json"), "--tol", "-1"],
        ["canon", str(DATA / "u7_moved.json"), "--tol", "nan"],
        ["check", str(DATA / "u5.json"), "--tol", "nan"],
        ["check", str(DATA / "u5.json"), "--tol", "inf"],
        ["canon", str(DATA / "u7_moved.json"), "--tol=-inf"],
    ],
)
def test_tol_that_would_forge_a_verdict_exits_two_at_parse_time(capsys, argv):
    # -1 called U_5 unbalanced, and NaN switched canon's residual gate off
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid tolerance value" in captured.err


def test_tol_zero_stays_legal(capsys):
    code, out, _ = run(capsys, "check", str(DATA / "square.json"), "--tol", "0")
    assert code == 0
    assert json.loads(out)["tol"] == 0.0


# argparse's own text: every --help and the usage errors that reach the
# top-level parser. The goldens pin what main prints; argparse words and
# wraps these lines differently from one Python minor version to the next,
# so the bytes are compared on the version that wrote them, and every
# version compares main with the parser's own parse_args.
HELP_GOLDEN = GOLDEN / "cli_help"
HELP_GOLDEN_PYTHON = (3, 11)
# the commands in the order build_parser adds them
COMMANDS = ("check", "canon", "roots", "gen", "search", "render")
PARSER_CASES = [
    ("help.out", ["--help"], 0),
    *((f"{name}_help.out", [name, "--help"], 0) for name in COMMANDS),
    ("no_command.err", [], 2),
    ("bogus.err", ["bogus"], 2),
    ("check_unrecognized.err", ["check", str(DATA / "u5.json"), "-z"], 2),
    ("roots_unknown_option.err", ["roots", "--n", "3", "--bogus"], 2),
    ("gen_bad_format.err", ["gen", "--m", "5", "--format", "png"], 2),
    ("check_missing_path.err", ["check"], 2),
    ("check_ambiguous_option.err", ["check", str(DATA / "u5.json"), "--t", "1"], 2),
    # Python 3.11 reads "--" as the command name; later versions may drop it
    # and then miss the path: both exit 2
    ("dashdash_before_command.err", ["--", "check"], 2),
    ("roots_extra_argument.err", ["roots", "--n", "3", "extra"], 2),
]
# argvs whose bytes a golden above already holds: (id, golden, argv, code).
# An abbreviation and an argument after "--" reach the command's subparser,
# so only -z is left over
PARSER_REPEATS = [
    ("check_abbreviation", "check_unrecognized.err", ["check", str(DATA / "u5.json"), "--to", "1e-3", "-z"], 2),
    ("check_dashdash_after_command", "check_unrecognized.err", ["check", "--", str(DATA / "u5.json"), "-z"], 2),
    ("check_help_after_path", "check_help.out", ["check", str(DATA / "u5.json"), "-h"], 0),
]


def _parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "name, argv, code",
    [pytest.param(*case, id=case[0]) for case in PARSER_CASES]
    + [pytest.param(*case[1:], id=case[0]) for case in PARSER_REPEATS],
)
def test_parser_output_golden_bytes(capsys, monkeypatch, name, argv, code):
    # main parses an argv that starts with a command name with that
    # command's subparser alone, and must write the full parse's bytes
    monkeypatch.setenv("COLUMNS", "80")
    got = _parser_exit(capsys, main, argv)
    assert got == _parser_exit(capsys, cli.build_parser().parse_args, argv)
    if sys.version_info[:2] == HELP_GOLDEN_PYTHON:
        text = (HELP_GOLDEN / name).read_text()
        assert got == ((code, text, "") if name.endswith(".out") else (code, "", text))


@pytest.mark.parametrize(
    "argv",
    [
        ["check", str(DATA / "u5.json"), "--to", "1e-3"],
        ["check", "--", str(DATA / "u5.json")],
        ["check", "--timing", str(DATA / "u5.json"), "--tol=0"],
        ["canon", str(DATA / "u7_moved.json")],
        ["roots", "--m", "7", "--timing"],
        ["gen", "--m", "5", "--k", "1", "--seed", "2", "--format", "svg"],
        ["search", "--m", "3", "--coords", "-1,0,1", "--uniform"],
        ["search", "--coords=-1/2,1", "--m", "2"],
        ["render", str(DATA / "u5.json"), "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv[:1] + [a for a in argv[1:] if a.startswith("-")]),
)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # the command's subparser alone gives the namespace of the full parse
    seen = []
    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: (seen.append(args), ("", 0))[1])
    assert main(argv) == 0
    capsys.readouterr()
    assert seen == [cli.build_parser().parse_args(cli._fuse_coords(argv))]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    add_parser = argparse._SubParsersAction.add_parser
    calls = []

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    cli.build_parser.cache_clear()
    for argv in (["roots", "--n", "3"], ["check", str(DATA / "u5.json")], ["--help"]):
        try:
            main(argv)
        except SystemExit:
            pass
    capsys.readouterr()
    # the first call builds every subparser, once
    assert calls == list(COMMANDS)


# Each command works on the configuration's coordinate columns; a
# PlaneVector is built only for the few members the canonical frame reads.
PLANE_VECTOR_BUDGETS = [
    (["check", str(DATA / "u201_image.json")], 8),
    (["canon", str(DATA / "u201_image.json")], 8),
    (["gen", "--m", "201", "--seed", "5"], 0),
    (["render", str(DATA / "u201_image.json")], 0),
    (["search", "--m", "3", "--coords", "-1,0,1,2"], 0),
]


@pytest.mark.parametrize(
    "argv, budget", PLANE_VECTOR_BUDGETS, ids=[argv[0] for argv, _ in PLANE_VECTOR_BUDGETS]
)
def test_commands_build_few_plane_vectors(capsys, monkeypatch, argv, budget):
    new = geometry.PlaneVector.__new__
    built = []

    def counting(cls, x, y):
        built.append((x, y))
        return new(cls, x, y)

    monkeypatch.setattr(geometry.PlaneVector, "__new__", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(built) <= budget


def test_main_calls_the_handler_bound_at_call_time(capsys, monkeypatch):
    # the parser exists before the patch, and main still runs the patched
    # handler: it looks the handler up by the command's name on each call
    run(capsys, "roots", "--n", "3")
    monkeypatch.setattr(cli, "_cmd_roots", lambda args: ({"patched": args.n}, 0))
    code, out, _ = run(capsys, "roots", "--n", "3")
    assert code == 0
    assert json.loads(out) == {"patched": 3}


def test_check_reads_each_argument_once(capsys, monkeypatch):
    # the labeling and the uniformity gap floor share one argument column,
    # whose atan2 pass is the package's only use of atan2 here
    atan2, calls = math.atan2, []

    def counting(y, x):
        calls.append((y, x))
        return atan2(y, x)

    monkeypatch.setattr(math, "atan2", counting)
    code, _, _ = run(capsys, "check", str(DATA / "u201_image_perturbed.json"))
    assert code == 1
    assert len(calls) == 201


def test_roots_builds_one_grid(capsys, count_calls):
    # the closure certificate's guesses are the grid the report prints
    calls = count_calls(sequences.t_grid)
    code, out, _ = run(capsys, "roots", "--n", "5")
    assert code == 0
    assert calls == [(11,)]
    assert json.loads(out)["grid"] == list(sequences.t_grid(11).values)
