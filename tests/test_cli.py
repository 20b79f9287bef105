import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from balcfg import cli, sequences
from balcfg.balance import step_constants
from balcfg.canonical import LinearMap2
from balcfg.cli import main
from balcfg.geometry import Configuration, det2, roots_of_unity
from balcfg.search import perturb
from balcfg.serialization import load_config, parse_config, save_config

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


def test_check_overflowing_diagonal_keeps_the_default_tolerance(capsys, tmp_path):
    # x*y of v_0 overflows, so the table's diagonal entry x*y - y*x is NaN;
    # a NaN det_max would make the default tolerance NaN and pass every row
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
    save_config(Configuration([u5[0], u5[2], u5[1], u5[3], u5[4]]), path)
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
    save_config(squeezed, path)
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


# u5.json is a float U_5, certified by the canonical route with no table;
# square.json is exact and not uniform, so its one table is scanned
@pytest.mark.parametrize("name, pairs", [("u5.json", 0), ("square.json", 6)])
def test_check_evaluates_each_determinant_once(capsys, tables_built, name, pairs):
    code, _, _ = run(capsys, "check", str(DATA / name))
    assert code == 0
    assert sum(math.comb(size, 2) for size in tables_built) == pairs


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
        save_config(Configuration(vecs), path)
    elif variant == "perturbed":
        save_config(perturb(cfg, 1e-3, seed=9), path)
    return path


@pytest.mark.parametrize(
    "variant, code", [("clean", 0), ("shuffled", 0), ("perturbed", 1)]
)
@pytest.mark.parametrize("command", ["check", "canon"])
def test_u801_images_build_no_table(capsys, tmp_path, tables_built, command, variant, code):
    # the clean and shuffled images are certified by the canonical map's
    # residual (the shuffled check relabels with the route's own labeling);
    # the perturbed copy fails balance at row 0 within the tolerance's
    # bracket, and its arguments' smallest gap certifies uniformity
    path = _u801_image(tmp_path, variant)
    assert run(capsys, command, str(path))[0] == code
    assert tables_built == []


@pytest.mark.parametrize("command, code", [("check", 0), ("canon", 1)])
def test_exact_symmetric_set_builds_one_table(capsys, tmp_path, tables_built, command, code):
    # {v, -v} for 50 exact v: balanced, even m = 100, never uniform; the
    # uniformity scan needs the one table, and nothing else builds one
    rng = random.Random(5)
    half = set()
    while len(half) < 50:
        v = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(2))
        if v != (0, 0) and (-v[0], -v[1]) not in half:
            half.add(v)
    vecs = sorted(half) + [(-x, -y) for x, y in sorted(half)]
    path, _ = _exact_file(tmp_path, vecs)
    assert run(capsys, command, str(path))[0] == code
    assert tables_built == [100]


# The float scale bug (ROADMAP item 2): at 1e308 the determinants overflow,
# at 1e-200 they underflow to 0, and check reports "uniform": false while
# canon certifies U_3. The certificate route declines coordinates outside the
# range where its bounds hold, so the bug stands until the scale is
# normalized.
@pytest.mark.xfail(strict=True, reason="float scale normalization, ROADMAP item 2")
@pytest.mark.parametrize("s", ["1e308", "1e-200"])
def test_item4_check_agrees_with_canon_at_float_scale_extremes(capsys, tmp_path, s):
    path = tmp_path / "u3_extreme.json"
    path.write_text(f'{{"mode": "float", "vectors": [[{s}, 0.0], [0.0, {s}], [-{s}, -{s}]]}}\n')
    assert run(capsys, "canon", str(path))[0] == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert json.loads(out)["uniform"] is True


def test_search_builds_no_grid_table(capsys, tables_built):
    # m = 4 over {-1, 0, 1}^2: no table of the 8 grid vectors; the zero-sum
    # candidates are decided on rows built on demand, and only the 6 hits
    # build their own tables, when the summary tests them for uniformity
    code, out, _ = run(capsys, "search", "--m", "4", "--coords", "-1,0,1")
    assert code == 0
    assert json.loads(out)["count"] == 6
    assert tables_built == [4] * 6


@pytest.mark.parametrize(
    "m, values, count, calls", [(1, 100, 9999, 0), (2, 10, 136, 136)]
)
def test_small_m_search_builds_no_grid_table(capsys, tables_built, m, values, count, calls):
    # a table of the whole grid (9999 vectors for 100 values) would only
    # cost memory
    coords = ",".join(str(k) for k in range(values))
    code, out, _ = run(capsys, "search", "--m", str(m), "--coords", coords)
    assert code == 0
    assert json.loads(out)["count"] == count
    # only a hit builds its own table, of m members, when the summary tests
    # it for uniformity: for m = 2 the 136 hits hold one pair each
    assert set(tables_built) == {m}
    assert sum(math.comb(size, 2) for size in tables_built) == calls


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


def test_canon_precision_refusal_is_not_a_certificate(capsys, tmp_path):
    path = tmp_path / "u5_squeezed.json"
    save_config(LinearMap2(1.0, 0.0, 0.0, 1e-13).apply_configuration(roots_of_unity(5)), path)
    code, out, err = run(capsys, "canon", str(path))
    assert code == 2
    assert out == ""
    assert "share an argument" in err


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


def test_roots_golden_bytes(capsys):
    code, out, _ = run(capsys, "roots", "--n", "3")
    assert code == 0
    assert out == (GOLDEN / "roots_n3.json").read_text()


def test_roots_accepts_m_spelling(capsys):
    _, by_n, _ = run(capsys, "roots", "--n", "3")
    _, by_m, _ = run(capsys, "roots", "--m", "7")
    assert by_n == by_m


@pytest.mark.parametrize("n", [21, 24])
def test_roots_beyond_twenty_match_the_closed_form(capsys, n):
    code, out, _ = run(capsys, "roots", "--n", str(n))
    assert code == 0
    m = 2 * n + 1
    grid = sorted(2 * math.cos(2 * math.pi * k / m) for k in range(1, n + 1))
    solved = json.loads(out)["solver_roots"]
    assert len(solved) == n
    assert all(abs(a - b) <= 1e-10 for a, b in zip(solved, grid))


def test_roots_solver_fault_is_not_a_certificate(capsys, monkeypatch):
    # closure_roots turns the solver's ArithmeticError into the ValueError
    # that main maps to exit 2; uncaught, it would be a traceback
    def give_up(p, width):
        raise ArithmeticError("root isolation did not terminate")

    monkeypatch.setattr(sequences.ip, "certified_roots", give_up)
    code, out, err = run(capsys, "roots", "--n", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: root isolation did not terminate")
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
    assert c[2].as_tuple() == (0.0, 1.0)


def test_gen_model_configuration_closes_at_m801(capsys):
    # at k = 1 and k = n the float vector recurrence misses closure by up to 1.6e-9
    for k in ("1", "400"):
        code, out, _ = run(capsys, "gen", "--m", "801", "--k", k)
        assert code == 0
        c = parse_config(out)
        assert c.m == 801
        assert c[400].as_tuple() == (0.0, 1.0)


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


def test_render_json_round_trips_the_file(capsys):
    code, out, _ = run(capsys, "render", str(DATA / "u5.json"), "--format", "json")
    assert code == 0
    assert out == (DATA / "u5.json").read_text()


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
    ],
    ids=["roots-n-and-m", "roots-n0", "gen-even-m", "search-bad-coords"],
)
def test_usage_errors_take_the_one_error_path(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


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


def test_search_budget_exit(capsys):
    code, _, err = run(capsys, "search", "--m", "6", "--coords", "0,1,2,3,4,5,6,7,8,9")
    assert code == 2
    assert "error" in err


def test_search_within_the_prefix_budget_runs(capsys):
    code, out, _ = run(capsys, "search", "--m", "8", "--coords", "-1,0,1")
    assert code == 0
    assert json.loads(out)["count"] == 1


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
# top-level parser. The goldens pin what main prints whichever parser it
# builds; argparse words and wraps these lines differently from one Python
# minor version to the next, so the bytes are compared on the version that
# wrote them, and every version compares main with the full parser.
HELP_GOLDEN = GOLDEN / "cli_help"
HELP_GOLDEN_PYTHON = (3, 11)
PARSER_CASES = [
    ("help.out", ["--help"], 0),
    *((f"{name}_help.out", [name, "--help"], 0) for name in cli.COMMANDS),
    ("no_command.err", [], 2),
    ("bogus.err", ["bogus"], 2),
    ("check_unrecognized.err", ["check", str(DATA / "u5.json"), "-z"], 2),
    ("roots_unknown_option.err", ["roots", "--n", "3", "--bogus"], 2),
    ("gen_bad_format.err", ["gen", "--m", "5", "--format", "png"], 2),
]


def _parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as info:
        parse(argv)
    captured = capsys.readouterr()
    return info.value.code, captured.out, captured.err


@pytest.mark.parametrize("name, argv, code", PARSER_CASES, ids=[c[0] for c in PARSER_CASES])
def test_parser_output_golden_bytes(capsys, monkeypatch, name, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    got = _parser_exit(capsys, main, argv)
    assert got == _parser_exit(capsys, cli.build_parser().parse_args, argv)
    if sys.version_info[:2] == HELP_GOLDEN_PYTHON:
        text = (HELP_GOLDEN / name).read_text()
        assert got == ((code, text, "") if name.endswith(".out") else (code, "", text))


@pytest.mark.parametrize("argv, subparsers", [(["roots", "--n", "3"], 1), (["--help"], 6)])
def test_main_builds_only_the_named_subparser(capsys, monkeypatch, argv, subparsers):
    add_parser = argparse._SubParsersAction.add_parser
    calls = []

    def counting(self, name, **kwargs):
        calls.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert len(calls) == subparsers
