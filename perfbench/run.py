#!/usr/bin/env python3
"""mvkit benchmark: four closed-loop workloads driven through the CLI.

    python3 perfbench/run.py --workload family --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, each in a fresh process
    python3 perfbench/run.py --self-test           # a wrong expectation must be counted

One client issues one operation at a time (an in-process `mvkit.cli.run`
call, or a library call where the CLI has no command), in the workload's
fixed order, whole passes at a time (at least one), until the next pass would
end after `--seconds`.  Each operation's latency is the median of its times
over the passes.
Every outcome is checked against what the
generator knows by construction, and the sha256 of every report must be the
same in every pass, in the traced and untraced runs, and in every earlier run
of the same code and seed in this checkout.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of traced passes, alternated with
untraced ones to measure the tracing overhead.  See NOTES.md.
"""

from time import monotonic, perf_counter

T_START = perf_counter()

import os  # noqa: E402

# one BLAS thread: the closed loop has exactly one client and no helper threads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7       # fresh processes timed from start to ready; setup_s is their median

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class BenchmarkError(Exception):
    """The run cannot produce a trustworthy result."""


def import_mvkit():
    """Import mvkit from this checkout's src/, never from an installed copy."""
    if not (SRC / "mvkit" / "__init__.py").is_file():
        raise BenchmarkError(f"no mvkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mv = types.SimpleNamespace(**{
        name: importlib.import_module(f"mvkit.{name}")
        for name in ("cli", "finite", "ideals", "completion", "symbolic")})
    if not Path(mv.cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"mvkit imported from {mv.cli.__file__}, not {SRC}")
    return mv


def source_digest():
    """Digest of mvkit's sources and of this benchmark's own code."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "mvkit").rglob("*"), *HERE.glob("*.py")]):
        if path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def setup_once(args):
    """Start-to-ready time of one fresh process.

    The process is this script with `--setup-only`: interpreter start, numpy,
    mvkit and the seeded documents, then it prints the moment it is ready on
    the system-wide monotonic clock and exits.  The caller waits for it, so
    it never runs beside a measured pass.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up process exited with {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - t0


@dataclass
class Pass:
    times: list      # seconds per operation, in list order
    digests: list    # sha256 of each report, None where the operation failed
    crashed: list    # "op: exception" for operations that raised
    wrong: list      # "op: mismatch" for outcomes that differ from the construction

    @property
    def op_seconds(self):
        return sum(self.times)


def run_pass(mv, ops, tracer=None, first_op=0):
    """One pass over `ops`: per-op latency, report digest and failures."""
    ctx = {}
    times, digests, crashed, wrong = [], [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = first_op + i
        t0 = perf_counter()
        try:
            outcome = op.call(mv, ctx)
        except Exception as exc:  # a crash is a failed operation, not a broken run
            times.append(perf_counter() - t0)
            digests.append(None)
            crashed.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            continue
        else:
            times.append(perf_counter() - t0)
            if tracer is not None and isinstance(op, workloads.CliOp):
                tracer.add("cli.report_bytes", len(outcome[1].encode()))
            try:
                digests.append(hashlib.sha256(op.verify(outcome).encode()).hexdigest())
            except Exception as exc:  # any malformed or unexpected report is a wrong answer
                digests.append(None)
                wrong.append(f"{op.name}: {type(exc).__name__}: {exc}")
        finally:
            for key in getattr(op, "drop", ()):
                ctx.pop(key, None)
    return Pass(times, digests, crashed, wrong)


def check_digests(passes, workload, seed):
    """Every pass, and every earlier run of this code and seed, gave the same reports."""
    first = passes[0].digests
    for p in passes[1:]:
        if p.digests != first:
            raise BenchmarkError("report digests differ between passes with the same seed")
    ledger = OUT / "digests" / f"{source_digest()}-{workload}-{seed}.json"
    if ledger.is_file():
        if json.loads(ledger.read_text()) != first:
            raise BenchmarkError(f"report digests differ from an earlier run ({ledger.name})")
    else:
        write_json(ledger, first)


def write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=1))
    os.replace(tmp, path)


def tail(latencies):
    """(percentile, value): the highest percentile with ten samples beyond it."""
    s = sorted(latencies)
    rank = max(len(s) - 10, 1)
    return 100.0 * rank / len(s), s[rank - 1]


def measure(mv, ops, seconds, traced, setup=None):
    """Whole passes until the next one would end after `seconds`; at least one.

    With `setup`, SETUP_RUNS set-ups are timed between untraced passes, spread
    evenly over the run, so their median sees the same host as the passes.
    """
    passes, traced_passes, tracer, setups = [], [], None, []
    if traced:
        tracer = tracing.Tracer()
    start = perf_counter()
    while True:
        if traced:
            # pairs alternate which pass runs first, so warm-up favours neither side
            untraced_first = len(passes) % 2 == 1
            if untraced_first:
                passes.append(run_pass(mv, ops))
            tracer.install()
            try:
                traced_passes.append(run_pass(mv, ops, tracer, len(traced_passes) * len(ops)))
            finally:
                tracer.uninstall()
            if not untraced_first:
                passes.append(run_pass(mv, ops))
        else:
            passes.append(run_pass(mv, ops))
            if setup is not None and perf_counter() - start >= len(setups) * seconds / SETUP_RUNS:
                setups.append(setup())
        elapsed = perf_counter() - start
        per_round = elapsed / len(passes)
        if elapsed + per_round > seconds:
            break
    while setup is not None and len(setups) < SETUP_RUNS:
        setups.append(setup())
    return passes, traced_passes, tracer, setups, start


def env_line(args):
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas_threads="
            + ",".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
            + f" workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")


def run_workload(args):
    print(env_line(args), flush=True)
    mv = import_mvkit()
    ops = workloads.build(args.workload, args.seed)
    print(f"ready {perf_counter() - T_START:.3f} s after the script started; "
          f"{len(ops)} operations per pass", flush=True)
    setup = None if args.trace else lambda: setup_once(args)
    passes, traced_passes, tracer, setups, start = measure(mv, ops, args.seconds, args.trace, setup)
    every = passes + traced_passes
    check_digests(every, args.workload, args.seed)

    attempted = sum(len(p.times) for p in every)
    crashed = [c for p in every for c in p.crashed]
    wrong = [w for p in every for w in p.wrong]
    for line in sorted(set(crashed + wrong)):
        print(f"FAILED {line}")
    failed = len(crashed) + len(wrong)

    if args.trace:
        base = statistics.median(p.op_seconds for p in passes)
        with_spans = statistics.median(p.op_seconds for p in traced_passes)
        overhead = with_spans / base - 1
        print(f"tracing overhead {100 * overhead:+.2f}% (pass {with_spans:.4f} s traced vs "
              f"{base:.4f} s untraced, medians of {len(passes)} pairs)")
        values = tracer.metrics(len(traced_passes))
        metrics = {name: {"value": values[name], "unit": tracing.metric_unit(name)}
                   for name in tracing.metric_names()}
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
        spans = OUT / "spans" / f"{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans, start)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    else:
        # An operation's latency is the median of its times over the run's
        # passes (the lower middle one for an even count).  The shared host has
        # brief fast moments and slow stretches of up to two minutes; a best
        # time or a low quartile follows the fast moments, which come and go
        # from run to run, and the median ignores both unless a stretch covers
        # half the run.
        latency = [statistics.median_low(p.times[i] for p in passes) for i in range(len(ops))]
        write_json(OUT / "ops" / f"{args.workload}-{args.seed}.json",
                   {op.name: {"latency_ms": 1000 * t, "passes_ms": [1000 * p.times[i] for p in passes]}
                    for i, (op, t) in enumerate(zip(ops, latency))})
        pct, tail_s = tail(latency)
        note = f"{len(ops)} ops, median of {len(passes)} passes each"
        metrics = {
            "setup_s": (statistics.median(setups), "s",
                        f"median of {len(setups)} fresh processes, start to ready; "
                        f"{min(setups):.3f}-{max(setups):.3f} s"),
            "ops_per_s": (len(ops) / sum(latency), "1/s", f"one pass at the latencies below; {note}"),
            "op_p50_ms": (1000 * statistics.median(latency), "ms", note),
            "op_tail_ms": (1000 * tail_s, "ms", f"p{pct:.1f}; {note}"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                            "ru_maxrss of this process"),
        }
        for name, (value, unit, note) in metrics.items():
            print(f"{name:<13} {value:12.4f} {unit:<4} ({note})")
        print(f"{'failed_share':<13} {failed / attempted:12.4f} ratio "
              f"({failed} of {attempted} ops: {len(crashed)} raised, {len(wrong)} wrong)")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Each workload in a fresh process (peak RSS is per process), then a summary."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchmarkError(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary")
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<44}" + "".join(f"{w:>14}" for w in results))
    for metric in names + ["failed_share"]:
        row = []
        for res in results.values():
            value = res["failed"] / res["attempted"] if metric == "failed_share" \
                else res["metrics"][metric]["value"]
            row.append(f"{value:14.4f}")
        print(f"{metric:<44}" + "".join(row))


def self_test(args):
    """A deliberately wrong expectation must show up in failed_share."""
    mv = import_mvkit()
    ops = workloads.build("family", args.seed)
    op = next(op for op in ops if op.name.startswith("center "))
    op.payload = {**op.payload, "center_size": op.payload["center_size"] + 1}
    result = run_pass(mv, ops)
    failed = len(result.crashed) + len(result.wrong)
    print(f"self-test: expected center_size off by one on '{op.name}': "
          f"failed_share {failed / len(ops):.4f} ({failed} of {len(ops)})")
    for line in result.wrong + result.crashed:
        print(f"FAILED {line}")
    if result.wrong != [f"{op.name}: Mismatch: payload differs from the construction"]:
        raise BenchmarkError("self-test: the wrong expectation was not the one failure counted")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload in this process (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    try:
        if args.setup_only:
            import_mvkit()
            workloads.build(args.workload, args.seed)
            print(f"ready {monotonic()!r}")
        elif args.self_test:
            self_test(args)
        elif args.workload:
            run_workload(args)
        else:
            run_all(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)


if __name__ == "__main__":
    main()
