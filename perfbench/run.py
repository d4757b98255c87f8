"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One workload runs in fresh processes
started here (see worker.py): the measured process, then six more that
only set up, so set-up time is the median of seven.  With --trace 0 the
last line of stdout is the end-to-end result, with --trace 1 the
per-layer result of a separate traced process.  `--workload all` runs
every workload both ways, prints each result and writes a record with
the git sha, the Python version and the CPU count to perfbench/results/.

Exit status: 0 when every output was checked correct, 1 when a check
failed or a worker did not finish, 2 on a usage error or when the
program's sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 7
# a run ends within 120 + 6 * 8 s even when every worker runs to its limit
MAIN_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 8


class WorkerError(RuntimeError):
    pass


def start_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run one worker to completion; return (its start time, its report)."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} ran past {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    spawned, rep = start_worker(common + ["--seconds", str(seconds), "--trace", str(trace)],
                                MAIN_TIMEOUT_S)
    if rep["attempted"] == rep["failed"]:
        raise WorkerError(f"no {name} operation completed: {rep['failures']}")
    setups = [rep["ready"] - spawned]
    for _ in range(SETUP_SAMPLES - 1):
        t, s = start_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
        setups.append(s["ready"] - t)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in rep["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": rep["ops_per_s"], "unit": "ops/s"},
            "op_p50_ms": {"value": rep["p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": rep["p90_ms"], "unit": "ms"},
            "peak_rss_mib": {"value": rep["rss_mib"], "unit": "MiB"},
        }
    detail = {k: rep[k] for k in ("rounds", "ops_per_round", "wall_s", "errors", "failures")}
    detail.update({k: rep[k] for k in ("spans", "tau_levels_distinct", "pd_draws", "pd_excluded") if k in rep})
    detail["setup_samples_s"] = setups
    return {
        "correct": rep["n_errors"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
        "detail": detail,
    }


def print_result(name: str, res: dict) -> None:
    print(f"# {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    for metric, m in res["metrics"].items():
        print(f"{name}  {metric:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{name}  detail {json.dumps(res['detail'])}")


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_all(seed: int, seconds: float) -> int:
    record = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        record["workloads"][name] = {}
        for trace in (0, 1):
            res = run_workload(name, seed, seconds, trace)
            print_result(name if not trace else f"{name} (traced)", res)
            record["workloads"][name]["traced" if trace else "untraced"] = res
            ok = ok and res["correct"] and res["failed"] == 0
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"record-{record['utc'].replace(':', '')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"record": os.path.relpath(path, ROOT), "correct": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the qperiod benchmark.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "qperiod")):
        print(f"error: the program's sources (src/qperiod) are missing under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
