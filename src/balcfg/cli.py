"""Command-line front end.

Subcommands: check (balance/uniformity verdicts), canon (canonical form),
roots (closure parameters, solver vs closed form), gen (write a
configuration), search (exhaustive grid enumeration), render (SVG figure).

Exit codes: 0 the property holds; 1 the property provably fails, and the
report names the certificate; 2 input, usage or internal error, including
float precision limits such as DuplicateArgument, exact input whose float
copy overflows, and a largest norm that overflows for render. Each command
catches CertificateError itself, so a certificate that escapes one is an
internal fault and exits 2, as does any other exception a command raises
("error: internal <class>: ...").

One parser per process: build_parser builds the full parser on the first
main call, not at import, and every later call in the process parses with
it, so every help text and usage message comes from that one parser.
main looks up the chosen command's _cmd_ function when it runs.

Each command returns its report (a dict) or text with its exit code, and
main writes it through the one writer to --out or stdout: a report as
canonical JSON, with elapsed_ms only under --timing so that default output
stays byte-deterministic, then an elapsed_ms= line on stderr. search writes
its hit files and summary.json through the same writer. Past argparse,
every exit-2 error is one "error: ..." line on stderr instead, with no
elapsed_ms.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from fractions import Fraction
from typing import Optional, Tuple

from .balance import even_m_witness, is_balanced, is_uniform, require_tolerance, step_constants
from .canonical import RESIDUAL_TOL, canonicalize
from .errors import BalcfgError, CertificateError, DuplicateArgument, InconsistentConstants
from .geometry import Configuration, label_by_increasing_arguments, roots_of_unity
from .render import render_svg
from .search import SearchSpec, enumerate_balanced, random_invertible
from .sequences import chebyshev_s, closure_roots, model_configuration, t_grid
from .serialization import dumps_canonical, load_config, serialize_config


def tolerance(text: str) -> float:
    """The argparse type of --tol: a finite float >= 0, so that a NaN,
    infinite or negative tolerance exits 2 before any verdict."""
    return require_tolerance(float(text))


def _write(text: str, path: Optional[str]) -> None:
    """The one writer: text to the file at path, or to stdout when None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _config_text(cfg: Configuration, fmt: str) -> str:
    return render_svg(cfg) if fmt == "svg" else serialize_config(cfg)


def _cmd_check(args) -> Tuple[dict, int]:
    cfg = load_config(args.path)
    report = {
        "command": "check",
        "input": os.path.basename(args.path),
        "m": cfg.m,
        "mode": cfg.mode,
        "tol": args.tol,
        "balanced": None,
        "balance_witness": None,
        "uniform": None,
        "uniform_witness": None,
        "even_m_witness": None,
        "step_constants": None,
    }
    bal = is_balanced(cfg, args.tol)
    uniform, pair = is_uniform(cfg, args.tol)
    report.update(balanced=bal.balanced, uniform=uniform)
    if bal.witness is not None:
        report["balance_witness"] = dict(zip(("index", "value"), bal.witness))
    if pair is not None:
        report["uniform_witness"] = list(pair)
    if bal.balanced and cfg.m % 2 == 0:
        report["even_m_witness"] = even_m_witness(cfg, args.tol)
    if bal.balanced and uniform and cfg.m % 2 == 1 and cfg.m >= 3:
        # constants exist in label order: the file's own determinants have
        # them when the file is in that order; null when no order has them.
        # A certificate's labeling is reused: it is memoized per member set
        try:
            try:
                constants = step_constants(cfg, args.tol)
            except InconsistentConstants:
                constants = step_constants(label_by_increasing_arguments(cfg), args.tol)
            report["step_constants"] = {"A1": constants.A1, "An": constants.An}
        except (InconsistentConstants, DuplicateArgument):
            pass
    return report, 0 if bal.balanced else 1


def _cmd_canon(args) -> Tuple[dict, int]:
    cfg = load_config(args.path)
    form = exc = None
    try:
        form = canonicalize(cfg, args.tol)
    except CertificateError as caught:
        exc = caught
    ok = form is not None
    report = {
        "command": "canon",
        "input": os.path.basename(args.path),
        "m": cfg.m,
        "mode": cfg.mode,
        "ok": ok,
        "t": form.t if ok else None,
        "k": form.k if ok else None,
        "residual": form.residual if ok else None,
        "map": [[float(x) for x in row] for row in form.g.rows()] if ok else None,
        "index_map": form.index_map if ok else None,
        "error": None if ok else type(exc).__name__,
        "witness": None if ok else getattr(exc, "witness", None),
    }
    return report, 0 if ok else 1


def _cmd_roots(args) -> Tuple[dict, int]:
    if (args.n is None) == (args.m is None):
        raise ValueError("roots: give exactly one of --n or --m")
    if args.n is not None:
        if args.n < 1:
            raise ValueError(f"roots: --n must be >= 1, got {args.n}")
        n, m = args.n, 2 * args.n + 1
    else:
        if args.m < 3 or args.m % 2 == 0:
            raise ValueError(f"roots: --m must be odd and >= 3, got {args.m}")
        m, n = args.m, (args.m - 1) // 2
    grid = t_grid(m)
    solved = closure_roots(grid)
    deviation = max(abs(a - b) for a, b in zip(solved.values, grid.values))
    report = {
        "command": "roots",
        "n": n,
        "m": m,
        "solver_roots": list(solved.values),
        "grid": list(grid.values),
        "max_deviation": deviation,
        "wn_x_coefficients": list(chebyshev_s(2 * n + 1)),
        "wn_y_coefficients": [-c for c in chebyshev_s(2 * n)],
    }
    return report, 0


def _cmd_gen(args) -> Tuple[str, int]:
    if args.m < 1 or args.m % 2 == 0:
        raise ValueError(f"gen: --m must be odd and >= 1, got {args.m}")
    cfg = roots_of_unity(args.m) if args.k is None else model_configuration(args.m, args.k)
    if args.seed is not None:
        cfg = random_invertible(args.seed).apply_configuration(cfg)
    return _config_text(cfg, args.format), 0


def _cmd_search(args) -> Tuple[dict, int]:
    try:
        coords = tuple(Fraction(part.strip()) for part in args.coords.split(",") if part.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"search: bad --coords: {exc}") from exc
    spec = SearchSpec(m=args.m, coordinate_set=coords, require_uniform=args.uniform)
    hits = enumerate_balanced(spec)
    summary = {
        "command": "search",
        "m": args.m,
        "coords": [str(x) for x in spec.coordinate_set],
        "require_uniform": args.uniform,
        "count": len(hits),
        "uniform_count": sum(is_uniform(cfg)[0] for cfg in hits),
        "files": None,
    }
    if args.out_dir is not None:
        os.makedirs(args.out_dir, exist_ok=True)
        summary["files"] = [f"balanced_{idx:04d}.json" for idx in range(len(hits))]
        for name, cfg in zip(summary["files"], hits):
            _write(serialize_config(cfg), os.path.join(args.out_dir, name))
        _write(dumps_canonical(summary) + "\n", os.path.join(args.out_dir, "summary.json"))
    return summary, 0


def _cmd_render(args) -> Tuple[str, int]:
    return _config_text(load_config(args.path), args.format), 0


COMMANDS = ("check", "canon", "roots", "gen", "search", "render")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The balcfg parser, with one subparser per command in the order of
    COMMANDS. It is built on first use and then shared by every main call
    in the process: building it takes some 30 times as long as parsing
    with it."""
    parser = argparse.ArgumentParser(
        prog="balcfg",
        description="Balanced plane vector configurations: verdicts, canonical "
        "forms, closure-parameter grids, generators, and SVG figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="balance/uniformity verdicts for a configuration file")
    check.add_argument("path")
    check.add_argument(
        "--tol", type=tolerance, default=None, help="absolute determinant tolerance"
    )
    check.add_argument("--out", default=None, help="write the report here instead of stdout")
    check.add_argument("--timing", action="store_true", help="embed elapsed time in the report")

    canon = sub.add_parser("canon", help="canonical map onto the roots of unity")
    canon.add_argument("path")
    canon.add_argument(
        "--tol",
        type=tolerance,
        default=RESIDUAL_TOL,
        help="residual tolerance (default %(default)g)",
    )
    canon.add_argument("--out", default=None)
    canon.add_argument("--timing", action="store_true")

    roots = sub.add_parser("roots", help="closure parameters: certified solver vs closed form")
    roots.add_argument("--n", type=int, default=None)
    roots.add_argument("--m", type=int, default=None)
    roots.add_argument("--out", default=None)
    roots.add_argument("--timing", action="store_true")

    gen = sub.add_parser("gen", help="write a configuration file")
    gen.add_argument("--m", type=int, required=True, help="configuration size (odd)")
    gen.add_argument("--k", type=int, default=None, help="emit the model at grid index k")
    gen.add_argument("--seed", type=int, default=None, help="apply a seeded invertible map")
    gen.add_argument("--out", default=None)
    gen.add_argument("--format", choices=("json", "svg"), default="json")

    search = sub.add_parser("search", help="exhaustive balanced-configuration search on a grid")
    search.add_argument("--m", type=int, required=True)
    search.add_argument("--coords", required=True, help="comma-separated exact coordinates")
    search.add_argument("--uniform", action="store_true", help="keep only uniform hits")
    search.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="directory for hit files and summary.json"
    )

    render = sub.add_parser("render", help="render a configuration file")
    render.add_argument("path")
    render.add_argument("--out", default=None)
    render.add_argument("--format", choices=("svg", "json"), default="svg")

    return parser


def _fuse_coords(argv):
    # argparse mistakes "-1,0,1" for an option; pass the value through "="
    fused, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token == "--coords" else None
        fused.append(token if value is None else f"--coords={value}")
    return fused


def main(argv=None) -> int:
    argv = _fuse_coords(sys.argv[1:] if argv is None else list(argv))
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        payload, code = globals()[f"_cmd_{args.command}"](args)
        if isinstance(payload, dict):
            if getattr(args, "timing", False):
                payload["elapsed_ms"] = (time.perf_counter() - t0) * 1000.0
            payload = dumps_canonical(payload) + "\n"
        _write(payload, getattr(args, "out", None))
    except (BalcfgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
