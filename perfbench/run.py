#!/usr/bin/env python3
"""hexcover benchmark: run one workload through ``hexcover.cli.main`` and report it.

Run from the repository root:

    python3 perfbench/run.py --workload tables-t2 --seed 42 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55      # every workload, both modes

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from checks import Check, rows_digest
from setup_probe import warm_up
from workloads import DIGESTS_FILE, PINNED_SEED, make_workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = tuple(make_workloads())
SETUP_REPEATS = 9
# Printed by name and unit, but not in the JSON result: certify latencies
# switch between the machine's fast and slow regimes, and the median call
# lands in whichever held longer, so its run-to-run spread exceeds any
# allowed bound (README.md, Steadiness).  certify_p99_ms is in the result.
PRINTED_ONLY_UNITS = {"certify_p50_ms": "ms"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--record-digests", action="store_true",
                   help="write perfbench/digests.json from one pass at the pinned seed")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_program():
    """Import hexcover from this checkout's src/, never from an installed copy."""
    if not (SRC / "hexcover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hexcover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from hexcover import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported hexcover from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds() -> list[float]:
    """Import plus warm-up, timed in fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")], cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_calls(cli, argvs):
    """Call ``cli.main`` once per argv; returns exit codes, captured stdout and latencies."""
    rcs, stdouts, latencies = [], [], []
    for argv in argvs:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)  # looked up per call, so the tracer's wrapper is used
        except Exception:  # an exception is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = None
        latencies.append(time.perf_counter() - start)
        rcs.append(rc)
        stdouts.append(buf.getvalue())
    return rcs, stdouts, latencies


@dataclass
class Run:
    """Everything one benchmark run measured."""

    pass_s: dict = field(default_factory=lambda: {False: [], True: []})  # keyed by traced
    monte_carlo_s: list = field(default_factory=list)  # the Monte-Carlo commands, untraced passes
    certify_s: list = field(default_factory=list)    # per untraced pass, seconds of each certify call
    bytes_out: list = field(default_factory=list)    # per pass
    checks: list = field(default_factory=list)


def measure(cli, workload, seconds: float, tracer=None) -> Run:
    """Run passes until the next one would end after ``seconds``.

    Without a tracer every pass is untraced.  With one, passes alternate
    untraced/traced and at least one of each is made.
    """
    run = Run()
    start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        argvs, certify_argvs = workload.plan(index)
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            rcs, stdouts, _ = run_calls(cli, argvs)
            monte_carlo_s = time.perf_counter() - t0
            certify_rcs, certify_stdouts, certify_latencies = run_calls(cli, certify_argvs)
            elapsed = time.perf_counter() - t0
        run.pass_s[traced].append(elapsed)
        if not traced:
            run.monte_carlo_s.append(monte_carlo_s)
            run.certify_s.append(certify_latencies)
        checks, size = workload.check(rcs, certify_rcs, stdouts + certify_stdouts)
        run.checks += checks
        run.bytes_out.append(size)
        index += 1
        need_traced = tracer is not None and not run.pass_s[True]
        if not need_traced and time.perf_counter() - start + elapsed > seconds:
            return run


def percentile_ms(seconds: list[float], p: int) -> float:
    return statistics.quantiles([x * 1e3 for x in seconds], n=100, method="inclusive")[p - 1]


def end_to_end(run: Run, workload, setup: list[float]) -> dict[str, float]:
    # Certify percentiles are taken per pass, then the median over passes, so
    # that one pass hit by a burst of interference does not set the run's p99.
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(run.monte_carlo_s),
        "samples_per_s": statistics.median(workload.samples_per_pass() / t for t in run.monte_carlo_s),
        "certify_p50_ms": statistics.median(percentile_ms(s, 50) for s in run.certify_s),
        "certify_p99_ms": statistics.median(percentile_ms(s, 99) for s in run.certify_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, tracer, threads: int) -> dict[str, float]:
    from tracing import layer_metrics

    metrics = layer_metrics(tracer, len(run.pass_s[True]), threads)
    metrics["cli.bytes_out"] = statistics.median(run.bytes_out)
    metrics["certify.verdict_disagreements"] = sum(
        1 for c in run.checks if c.name == "certify:exit code" and not c.ok)
    # Each traced pass against the untraced pass just before it, so slow drift cancels.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(run.pass_s[False], run.pass_s[True]))
    return metrics


def summarize(values: dict, wanted: list[dict], checks: list):
    """The result object, and the failed checks.

    Every wanted metric is reported with its unit from BENCHMARK.json; a
    wanted metric without a value is one more failed check.
    """
    checks = checks + [Check(f"metric present:{m['name']}", m["name"] in values) for m in wanted]
    failures = [c for c in checks if not c.ok]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    return {"correct": not failures, "attempted": len(checks), "failed": len(failures),
            "metrics": metrics}, failures


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def manifest(workload) -> dict:
    from hexcover import experiment

    digest = hashlib.sha256()
    for path in sorted((SRC / "hexcover").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "threads": workload.threads,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "raw_block": experiment.RAW_BLOCK,
        "bit_generator": experiment.Philox.__name__,
    }


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_program()
    from tracing import Tracer

    workload = make_workloads()[args.workload]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        warm_up(cli.main, ROOT)
        setup = setup_seconds() if not args.trace else []
        workload.prepare(args.seed, Path(tmp))
        tracer = Tracer() if args.trace else None
        run = measure(cli, workload, args.seconds, tracer)

    if args.trace:
        values, wanted = per_layer(run, tracer, workload.threads), spec["per_layer"]
    else:
        values, wanted = end_to_end(run, workload, setup), spec["end_to_end"]
    result, failures = summarize(values, wanted, run.checks)
    units = {m["name"]: m["unit"] for m in wanted} | PRINTED_ONLY_UNITS
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} checks)")
    for traced in (False, True):
        if run.pass_s[traced]:
            print(f"{'traced' if traced else 'untraced'} passes = {len(run.pass_s[traced])}: "
                  + " ".join(f"{t:.3f}" for t in run.pass_s[traced]) + " s")
    print(f"certify calls timed = {sum(map(len, run.certify_s))}")
    for c in failures[:20]:
        print(f"FAILED {c.name}: {c.detail}")
    print("manifest: " + json.dumps(manifest(workload), sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results, status = {}, 0
    timeout = 3 * args.seconds + 120  # the run, its last pass overrunning, and set-up
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} --trace {trace}")
            try:
                out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                print(f"FAILED: no result within {timeout:g} s")
                status = 1
                continue
            sys.stderr.write(out.stderr)
            lines = out.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if out.returncode != 0 or not lines:
                status = 1
                continue
            result = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = result
            status |= not result["correct"]
    print(json.dumps(results))
    return status


def record_digests() -> int:
    """Reference data-row digests of every Monte-Carlo command at the pinned seed."""
    cli = load_program()
    digests = {}
    for name, workload in make_workloads().items():
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            workload.prepare(PINNED_SEED, Path(tmp))
            rcs, _, _ = run_calls(cli, workload.plan(0)[0])
            if any(rc != 0 for rc in rcs):
                raise SystemExit(f"perfbench: {name} failed with exit codes {rcs}")
            digests[name] = {label: rows_digest(text) for label, text in workload.outputs()[0].items()}
    DIGESTS_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        raise SystemExit("perfbench: --workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
