"""One workload in one fresh process: set up, run rounds for a fixed time
as a single-threaded closed loop, check every output, report.

Usage (run.py starts it; it can also be run by hand from the repository
root):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

The last line of stdout is one JSON object.  `ready` is the
CLOCK_MONOTONIC time at which set-up ended, so the parent can measure
set-up from the moment it started this process.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import resource
import shutil
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method
    of statistics.quantiles): q = 0.5 is the median."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "qperiod")):
        raise SystemExit(f"error: no qperiod package under {src}")
    sys.path.insert(0, src)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"qperiod.{m}")
        for m in ("cli", "tau", "liedata", "linkdiag", "qpoly", "cyclo", "modular")
    })


def run_round(ops, latencies: list, outs: list) -> None:
    clock = time.perf_counter
    for call in ops:
        t = clock()
        try:
            out = call()
        except (Exception, SystemExit) as exc:  # a refused or crashed operation
            latencies.append(None)
            outs.append(exc)
            continue
        latencies.append(clock() - t)
        outs.append(out)


def check_rounds(wl, rounds: list[list]) -> list[str]:
    """Check every output once per distinct (op, output); return errors."""
    import checks

    errors = []
    seen = set()
    for outs in rounds:
        for i, out in enumerate(outs):
            if isinstance(out, BaseException):
                continue  # counted as failed, not as wrong
            key = (i, wl.key(i, out))
            if key in seen:
                continue
            seen.add(key)
            try:
                wl.check(i, out, outs)
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = os.path.join(HERE, "_work", str(os.getpid()))
    try:
        q = import_program()
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.setup(q)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        report = measure(wl, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no other worker uses it
    report["ready"] = ready
    print(json.dumps(report))
    return 0


def stop(t0: float, rounds: int, seconds: float) -> bool:
    """Whole rounds only: stop once another round would end further past
    the deadline than stopping now falls short of it."""
    elapsed = time.perf_counter() - t0
    return elapsed + 0.5 * elapsed / rounds >= seconds


def measure(wl, seconds: float, trace: int) -> dict:
    clock = time.perf_counter
    latencies: list = []
    rounds: list[list] = []
    report: dict = {}
    t0 = clock()
    if not trace:
        while True:
            rounds.append([])
            run_round(wl.ops, latencies, rounds[-1])
            if stop(t0, len(rounds), seconds):
                break
        wall = clock() - t0
        report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        import tracer

        rec = tracer.Recorder()
        overhead = 0.0
        pairs = 0
        while True:
            # an untraced round and the same round traced, back to back
            for traced in (False, True):
                if traced:
                    last_round = len(rec)
                    rec.install()
                rounds.append([])
                t = clock()
                try:
                    run_round(wl.ops, latencies, rounds[-1])
                finally:
                    rec.uninstall()
                overhead += (clock() - t) if traced else -(clock() - t)
            pairs += 1
            if stop(t0, pairs, seconds):
                break
        wall = clock() - t0
        layers = tracer.layer_metrics(tracer.table_of(rec), pairs)
        layers["trace.overhead_s"] = (overhead / pairs, "s")
        calls, distinct = tracer.repeats(rec, tracer.TAU_LEVELS)
        report["layers"] = layers
        report["spans"] = len(rec)
        report["tau_levels_distinct"] = [calls, distinct]
        os.makedirs(RESULTS, exist_ok=True)
        rec.write(os.path.join(RESULTS, f"spans-{wl.name}.tsv"), first=last_round)
    done = [x for x in latencies if x is not None]
    errors = check_rounds(wl, rounds)
    report.update(
        attempted=len(latencies),
        failed=len(latencies) - len(done),
        rounds=len(rounds),
        ops_per_round=len(wl.ops),
        wall_s=wall,
        ops_per_s=len(done) / wall,
        p50_ms=percentile(done, 0.5) * 1000 if done else None,
        p90_ms=percentile(done, 0.9) * 1000 if done else None,
        errors=errors[:10],
        n_errors=len(errors),
        failures=sorted({repr(o)[:200] for r in rounds for o in r if isinstance(o, BaseException)})[:5],
    )
    if hasattr(wl, "draws"):
        report["pd_draws"], report["pd_excluded"] = wl.draws, wl.excluded
    return report


if __name__ == "__main__":
    sys.exit(main())
