#!/usr/bin/env python3
"""balcfg benchmark: seeded workloads driven through the CLI, in process.

Usage, from the root of a checkout:
    python3 bench/run.py --workload {certify,closure,search} --seed N \
        --seconds S --trace {0,1}

Each workload is a fixed, seeded list of `balcfg` command lines (see
workloads.py). One process with one thread calls `balcfg.cli.main(argv)`
for each op, with stdout and stderr captured, times the call, and checks
the output against an oracle computed by the benchmark (oracles.py). A run
makes a number of whole passes over the list that follows from the workload
and S alone (workloads.passes), sized so that the passes take about S
seconds; every run of a workload thus attempts the same ops. Op times are
scaled to a reference host by a kernel timed around every op (hostspeed.py). Interpreter start-up is kept out of op timing
and measured on its own as `setup_s`.

--trace 0 prints the end-to-end metrics. --trace 1 alternates whole
untraced and traced passes, half as many of each and prints the per-layer metrics, from spans
recorded around the calls into each module (tracing.py). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
the lines before it show the same numbers for people. The program is loaded
from `src/` of the checkout; without it the benchmark exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from typing import List, NamedTuple, Optional

import hostspeed
import oracles
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench-out")

# fresh interpreters timed per run for setup_s, after one that fills the
# bytecode cache under src/ (as an installed package has one)
SETUP_SPAWNS = 15
SETUP_ENV_DROP = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import balcfg.cli; t = time.perf_counter() - t; "
    "import hostspeed; print(t, hostspeed.time_kernel(5))"
)
# kernel runs timed just before and just after every op; the op's host
# speed is the mean of the two medians
KERNEL_REPEATS = 3
# an op's spans may exceed its wall time by clock rounding only
CLOCK_SLACK_S = 1e-9


class Attempt(NamedTuple):
    latency_s: float
    kernel_s: float  # the reference kernel, timed around the op
    code: Optional[int]
    verdict: str  # "ok", "known" (a recorded seed failure) or "wrong"
    reason: Optional[str]
    det2_calls: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description="balcfg benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup() -> List[float]:
    """Seconds to import balcfg.cli in fresh interpreters, each scaled to
    the reference host by the kernel timed in the same interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in SETUP_ENV_DROP}
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, HERE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"importing balcfg.cli failed:\n{done.stderr}")
        if spawn:
            seconds, kernel_s = map(float, done.stdout.split())
            times.append(hostspeed.scaled(seconds, kernel_s))
    return times


def load_cli():
    sys.path.insert(0, SRC)
    import balcfg.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"balcfg was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op, tracer=None) -> Attempt:
    kernel_before = hostspeed.time_kernel(KERNEL_REPEATS)
    out, err = io.StringIO(), io.StringIO()
    det2_before = tracer.calls("geometry.det2") if tracer else 0
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a wrong answer, not the end of the run
            code = None
            err.write(traceback.format_exc())
        latency = time.perf_counter() - start
    kernel_s = (kernel_before + hostspeed.time_kernel(KERNEL_REPEATS)) / 2
    det2 = tracer.calls("geometry.det2") - det2_before if tracer else 0
    reason = op.oracle(op.expect, code, out.getvalue(), err.getvalue())
    if reason is None:
        verdict = "ok"
    elif oracles.matches_known(op.known, code, err.getvalue()):
        verdict = "known"
    else:
        verdict = "wrong"
        reason = f"{reason}; stderr: {err.getvalue().strip()[-300:]}"
    return Attempt(latency, kernel_s, code, verdict, reason, det2)


def run_pass(cli, ops, tracer=None, first_attempt=0) -> List[Attempt]:
    """Run the op list once."""
    gc.collect()
    attempts = []
    for op in ops:
        if tracer is not None:
            tracer.op = first_attempt + op.op_id
        attempts.append(run_op(cli, op, tracer))
    return attempts


def tail_percentile(values):
    """(percentile, nearest rank, value) for the highest whole percentile
    that leaves at least ten values above it; (100, n, max) below 11 values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100, n, ordered[-1]
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, rank, ordered[rank - 1]


def end_to_end(ops, passes, setup_times):
    """Metrics over the op list, in reference-host time (hostspeed.py). An
    op's latency is the median of its samples: one per pass, pooled across
    identical ops (same argv and input), each scaled by the kernel time
    around it."""
    samples, ok = {}, {}
    for op, a in ((op, a) for p in passes for op, a in zip(ops, p)):
        samples.setdefault(op.argv, []).append(hostspeed.scaled(a.latency_s, a.kernel_s))
        ok.setdefault(op.argv, []).append(a.verdict == "ok")
    typical = [statistics.median(samples[op.argv]) for op in ops]
    latencies = [1000.0 * t for op, t in zip(ops, typical) if all(ok[op.argv])]
    good = len(latencies)
    if not good:  # nothing succeeded: report the slowest op, correct is false
        latencies = [1000.0 * max(typical)]
    pct, rank, tail = tail_percentile(latencies)
    metrics = {
        "ops_per_s": (good / sum(typical), "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "success_rate": (good / len(ops), "fraction"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "ops_per_s": f"{good} of {len(ops)} ops succeed; {sum(map(len, passes))} attempts",
        "op_tail_ms": f"p{pct}: rank {rank} of {good} successful ops",
        "success_rate": f"error_rate {1 - good / len(ops):.4f}",
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
    }
    return metrics, notes


def src_lines() -> int:
    total = 0
    for folder, _, names in os.walk(os.path.join(SRC, "balcfg")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def scaled_wall(passes) -> float:
    """Summed op wall time of `passes`, scaled by their median kernel time."""
    attempts = [a for p in passes for a in p]
    return hostspeed.scaled(sum(a.latency_s for a in attempts),
                            statistics.median(a.kernel_s for a in attempts))


def per_layer(tracer, ops, traced, untraced):
    inclusive, own, calls, per_op, nested = tracer.summary()
    attempts = [a for p in traced for a in p]
    n = len(attempts)

    def ms(table, name):
        return 1000.0 * table[name] / n

    def ratio(num, den):
        return num / den if den else 0.0

    checks = [a.det2_calls / (op.m * (op.m - 1))
              for p in traced for op, a in zip(ops, p) if op.command == "check"]
    candidates = nested[("search.enumerate_balanced", "balance.is_balanced")]
    descartes = calls["polynomials.descartes_count"]
    metrics = {
        "cli.self_ms": (1000.0 * sum(v for k, v in own.items() if k.startswith("cli.")) / n, "ms"),
        "serialization.load_config_ms": (ms(inclusive, "serialization.load_config"), "ms"),
        "serialization.dumps_canonical_ms": (ms(inclusive, "serialization.dumps_canonical"), "ms"),
        "serialization.bytes_out": (tracer.counts["serialization.bytes_out"] / n, "bytes"),
        "render.render_svg_ms": (ms(inclusive, "render.render_svg"), "ms"),
        "render.bytes_out": (tracer.counts["render.bytes_out"] / n, "bytes"),
        "geometry.det2_calls": (tracer.calls("geometry.det2") / n, "count"),
        "geometry.label_ms": (ms(inclusive, "geometry.label_by_increasing_arguments"), "ms"),
        "balance.is_balanced_ms": (ms(inclusive, "balance.is_balanced"), "ms"),
        "balance.is_balanced_calls": (calls["balance.is_balanced"] / n, "count"),
        "balance.is_uniform_ms": (ms(inclusive, "balance.is_uniform"), "ms"),
        "balance.step_constants_ms": (ms(inclusive, "balance.step_constants"), "ms"),
        "balance.even_m_witness_ms": (ms(inclusive, "balance.even_m_witness"), "ms"),
        "balance.tables_per_check": (statistics.fmean(checks) if checks else 0.0, "ratio"),
        "canonical.canonicalize_self_ms": (ms(own, "canonical.canonicalize"), "ms"),
        "canonical.frame_map_ms": (ms(inclusive, "canonical.frame_map"), "ms"),
        "canonical.extract_t_ms": (ms(inclusive, "canonical.extract_t"), "ms"),
        "canonical.match_k_ms": (ms(inclusive, "canonical.match_k"), "ms"),
        "sequences.model_configuration_ms": (ms(inclusive, "sequences.model_configuration"), "ms"),
        "sequences.symbolic_sequences_ms": (ms(inclusive, "sequences.symbolic_sequences"), "ms"),
        "sequences.symbolic_sequences_calls": (calls["sequences.symbolic_sequences"] / n, "count"),
        "sequences.wn_equation_roots_self_ms": (ms(own, "sequences.wn_equation_roots"), "ms"),
        "sequences.t_grid_ms": (ms(inclusive, "sequences.t_grid"), "ms"),
        "polynomials.certified_roots_ms": (ms(inclusive, "polynomials.certified_roots"), "ms"),
        "polynomials.descartes_count_ms": (ms(inclusive, "polynomials.descartes_count"), "ms"),
        "polynomials.descartes_count_calls": (descartes / n, "count"),
        "polynomials.refine_root_ms": (ms(inclusive, "polynomials.refine_root"), "ms"),
        "polynomials.sign_at_calls": (tracer.calls("polynomials.sign_at") / n, "count"),
        "polynomials.nodes_per_root": (ratio(descartes, tracer.counts["polynomials.roots"]), "ratio"),
        "search.enumerate_balanced_self_ms": (ms(own, "search.enumerate_balanced"), "ms"),
        "search.candidates": (candidates / n, "count"),
        "search.hits": (tracer.counts["search.hits"] / n, "count"),
        "search.hit_ratio": (ratio(tracer.counts["search.hits"], candidates), "ratio"),
        "package.src_lines": (src_lines(), "lines"),
        "trace.overhead_ratio": (scaled_wall(traced) / scaled_wall(untraced[: len(traced)]), "ratio"),
    }
    # the self times of an op's spans partition its root spans, which lie
    # inside the op's wall time
    problems = []
    for i, p in enumerate(traced):
        for op, a in zip(ops, p):
            spent = per_op[i * len(ops) + op.op_id]
            if spent > a.latency_s + CLOCK_SLACK_S:
                problems.append(f"op {op.argv}: span self time {spent:.6f} s "
                                f"exceeds its wall time {a.latency_s:.6f} s")
    notes = {"trace.overhead_ratio": f"{len(traced)} traced vs untraced passes"}
    return metrics, notes, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "balcfg", "cli.py")):
        print(f"bench: no balcfg sources under {SRC}", file=sys.stderr)
        return 2
    try:
        setup_times = measure_setup()
        cli = load_cli()
    except (RuntimeError, ImportError, subprocess.SubprocessError) as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        # keep the benchmark's own objects out of the collections that the
        # program's allocations trigger
        gc.collect()
        gc.freeze()
        passes = workloads.passes(args.workload, args.seconds)
        untraced, traced = [], []
        tracer = tracing.Tracer() if args.trace else None
        if tracer is None:
            for _ in range(passes):
                untraced.append(run_pass(cli, ops))
        else:
            for _ in range(max(1, passes // 2)):
                untraced.append(run_pass(cli, ops))
                tracer.install()
                try:
                    traced.append(run_pass(cli, ops, tracer, len(traced) * len(ops)))
                finally:
                    tracer.uninstall()

    problems = []
    if tracer is None:
        metrics, notes = end_to_end(ops, untraced, setup_times)
    else:
        metrics, notes, problems = per_layer(tracer, ops, traced, untraced)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))

    attempts = [a for p in untraced + traced for a in p]
    failed = [a for a in attempts if a.verdict != "ok"]
    wrong = [a for a in failed if a.verdict == "wrong"]
    for a in wrong[:10]:
        print(f"bench: wrong result (exit {a.code}): {a.reason}", file=sys.stderr)
    for line in problems[:10]:
        print(f"bench: {line}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)}+{len(traced)}  ops/pass {len(ops)}")
    if tracer is None:
        print("  (times as on the reference host of bench/hostspeed.py)")
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:>14.6g} {unit}{extra}")
    print(f"  known seed failures {sum(a.verdict == 'known' for a in failed)}, "
          f"wrong results {len(wrong)}")
    result = {
        "correct": not wrong and not problems,
        "attempted": len(attempts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
