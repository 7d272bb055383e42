#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the final test MSE that one episode of
each workload reaches, for seeds 0..measure.REFERENCE_SEEDS-1.

    python3 perfbench/make_reference.py

The benchmark checks each run against these values within measure.RTOL.
Regenerate only when a change is meant to alter the numbers, and say so where
the change is described.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.limit_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import measure

    table = {}
    for name, wl in measure.WORKLOADS.items():
        table[name] = {}
        for seed in range(measure.REFERENCE_SEEDS):
            ep = measure.run_episode(wl, seed)
            if ep.failure:
                print(f"{name} seed {seed}: {ep.failure}", file=sys.stderr)
                return 1
            table[name][str(seed)] = ep.final_test_mse
            print(f"{name} seed {seed}: {ep.final_test_mse!r}", flush=True)
    measure.REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
