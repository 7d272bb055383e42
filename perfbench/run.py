#!/usr/bin/env python3
"""fdgnn benchmark: wall-clock cost of training updates on four workloads.

Run from the repository root:

    python3 perfbench/run.py                 # every workload, each in a fresh process
    python3 perfbench/run.py --trace 1       # traced runs: per-layer metrics, tracing overhead
    python3 perfbench/run.py --workload desk-amsgrad --seed 3 --seconds 20 --trace 0

Each workload run trains repeatedly for about --seconds, checks the outputs
(ledger round counts, final test MSE against perfbench/reference.json,
traced against untraced), prints every metric with its unit, writes a result
file with its manifest under perfbench/results/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
check fails or an update fails, and 2 when the fdgnn sources are missing.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)


def run_one(args) -> int:
    if not (SRC / "fdgnn" / "__init__.py").is_file():
        print(f"fdgnn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # after the thread limit and the path are in place

    record = measure.run(args.workload, args.seed, args.seconds, args.trace)
    name = args.workload
    print(f"# {name} seed={args.seed} trace={args.trace} manifest: {json.dumps(record['manifest'])}")
    for problem in record["problems"]:
        print(f"# {name} CHECK FAILED: {problem}")
    for note in record["notes"]:
        print(f"# {name} {note}")
    print(f"{name} update_fail_ratio = {record['failed']}/{record['attempted']} = {record['update_fail_ratio']}")
    print(f"{name} final_test_mse = {record['final_test_mse']!r}")
    for key, value in record.get("info", {}).items():
        print(f"{name} info.{key} = {value!r}")
    for key, m in record["metrics"].items():
        moves = record.get("moves", {}).get(key)
        note = f"  (moves {moves['metric']} on {moves['on']})" if moves else ""
        print(f"{name} {key} = {m['value']!r} {m['unit']}{note}")
    measure.RESULTS.mkdir(exist_ok=True)
    out = measure.RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] and record["metrics"] else 1


def run_all(args) -> int:
    """Run every workload in its own process and summarise the results."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        status = status or proc.returncode
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
        else:
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
            status = status or 1
    print(f"{'workload':<14}{'correct':>8}{'failed':>14}  metrics")
    for name, r in results.items():
        shown = ", ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items()
                          if not args.trace)
        print(f"{name:<14}{str(r['correct']):>8}{r['failed']:>7}/{r['attempted']:<6}  {shown}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    limit_blas_threads()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
