"""Episode runner, output checks and metrics of the fdgnn benchmark.

Drives only the public trainer entry points and reads one timestamp per
update from their `on_update` callback. Import this module after the BLAS
thread variables are set and `src` is on the path (see run.py).
"""
from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fdgnn
from fdgnn import netsim, trainer
from fdgnn.trainer import RunConfig, TrainingDiverged

from run import THREAD_VARS
from tracer import Tracer
from workloads import END_TO_END, PER_LAYER, TRACED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference.json"  # final test MSE per workload and seed
REFERENCE_SEEDS = 32  # seeds 0..31 have a reference value
RTOL = 1e-6  # relative tolerance of the final test MSE against its reference
MIN_EPISODES = 2  # untraced episodes per run, so determinism is checked and set-up is repeated
SIZED_RESULTS = ("graphs.build_shift", "graphs.metropolis_weights")


@dataclass
class Episode:
    """One trainer call: its start time, one timestamp per update, outcome."""

    traced: bool
    call: float = 0.0
    stamps: list = field(default_factory=list)
    records: int = 0
    final_test_mse: float = math.nan
    ledger: tuple = (0, 0, 0)
    failure: str | None = None
    tracer: Tracer | None = None


def run_episode(wl, seed: int, tracer: Tracer | None = None) -> Episode:
    """Call the workload's trainer once. A raise or a divergence is recorded
    as the episode's failure instead of propagating."""
    cfg = RunConfig(seed=seed, **wl.config)
    train = trainer.train_centralized if wl.central else trainer.train_distributed
    ep = Episode(traced=tracer is not None, tracer=tracer)
    segment = []  # the open "trainer.loop" span: trainer self time between callbacks

    def on_update(t, _state):
        ep.stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.close(segment.pop())
            tracer.update_index = t + 1
            segment.append(tracer.open("trainer.loop"))

    # Free the previous episode's cyclic garbage first, so peak RSS is one
    # episode's peak rather than depending on when the collector last ran.
    gc.collect()
    if tracer is not None:
        tracer.install(TRACED, measure_results=SIZED_RESULTS)
        segment.append(tracer.open("trainer.loop"))
    ep.call = time.perf_counter()
    try:
        result = train(cfg, on_update=on_update)
    except TrainingDiverged as exc:
        ep.failure = f"training diverged at update {exc.step}: {exc}"
        return ep
    except Exception:  # a raising run is counted as failed updates, not a crash
        ep.failure = traceback.format_exc()
        return ep
    finally:
        if tracer is not None:
            tracer.close(segment.pop())
            tracer.restore()
    ep.records = len(result.log.records)
    ep.final_test_mse = float(result.log.final.test_mse)
    ep.ledger = result.ledger.snapshot() if result.ledger is not None else result.log.final.ledger_snapshot
    ep.failure = check_episode(cfg, wl.updates, ep)
    return ep


def rounds_per_update(cfg: RunConfig) -> int:
    if cfg.optimizer.startswith("central"):
        return cfg.layers * cfg.batch
    return netsim.expected_rounds(cfg.strategy, cfg.layers, cfg.batch, cfg.K)


def check_episode(cfg: RunConfig, updates: int, ep: Episode) -> str | None:
    if len(ep.stamps) != updates or ep.records != updates:
        return f"{len(ep.stamps)} updates and {ep.records} log records, expected {updates}"
    want = updates * rounds_per_update(cfg)
    if ep.ledger[0] != want:
        return f"ledger counts {ep.ledger[0]} rounds, expected {want}"
    if not math.isfinite(ep.final_test_mse):
        return f"final test MSE {ep.final_test_mse} is not finite"
    return None


def reference_mse(name: str, seed: int) -> float | None:
    return json.loads(REFERENCE.read_text()).get(name, {}).get(str(seed))


def run_checks(episodes: list[Episode], ref: float | None) -> list[str]:
    """Run-level output checks; any failure marks every update of the run failed.
    The reference check is skipped when `ref` is None."""
    problems = []
    base = [e.final_test_mse for e in episodes if not e.traced and e.failure is None]
    traced = [e.final_test_mse for e in episodes if e.traced and e.failure is None]
    if len(set(base)) > 1:
        problems.append(f"untraced episodes disagree on final test MSE: {sorted(set(base))}")
    if base and any(v != base[0] for v in traced):
        problems.append(f"traced final test MSE {traced} differs from untraced {base[0]!r}")
    if base and ref is not None and not abs(base[0] - ref) <= RTOL * abs(ref):
        problems.append(f"final test MSE {base[0]!r} outside rtol {RTOL} of reference {ref!r}")
    return problems


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(wl, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": wl.config,
        "updates_per_episode": wl.updates,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_sha": git_sha(),
        "fdgnn": fdgnn.__file__,
    }


def intervals(e: Episode) -> list[float]:
    return [b - a for a, b in zip(e.stamps, e.stamps[1:])]


def windows(episodes: list[Episode], size: int) -> list[list[float]]:
    """Consecutive, non-overlapping runs of `size` update intervals, each
    inside one episode."""
    out = []
    for e in episodes:
        iv = intervals(e)
        out.extend(iv[i : i + size] for i in range(0, len(iv) - size + 1, size))
    return out


def best_updates_per_s(episodes: list[Episode], size: int) -> float:
    """Updates completed over the wall time they took, in the best window."""
    return max(len(w) / sum(w) for w in windows(episodes, size))


def end_to_end(wl, ok: list[Episode], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced episodes, plus sample counts.

    Throughput and the median interval come from the best window of
    `wl.window` consecutive updates. The host's CPU throughput switches
    between a fast and a slower state, for stretches of a fraction of a
    second up to tens of seconds, independently of the benchmark; the best
    short window measures the code, where whole-run medians mostly measure
    how long the host spent in each state. Set-up time is, in the same
    best-case spirit, the shortest time from calling the trainer to its first
    update callback over the episodes (each sets up once), minus the
    best-window median interval. Peak RSS is read after the first episode.
    The whole-run p90 is reported for information.
    """
    wins = windows(ok, wl.window)
    pooled = [x for e in ok for x in intervals(e)]
    p90 = statistics.quantiles(pooled, n=10)[-1]
    p50 = min(statistics.median(w) for w in wins)
    values = {
        "setup_s": min(e.stamps[0] - e.call for e in ok) - p50,
        "updates_per_s": best_updates_per_s(ok, wl.window),
        "update_ms_p50": p50 * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "episodes": len(ok),
        "windows": len(wins),
        "intervals": len(pooled),
        "whole_run_update_ms_p50": statistics.median(pooled) * 1e3,
        "whole_run_update_ms_p90": p90 * 1e3,
        "intervals_above_p90": sum(1 for x in pooled if x > p90),
    }
    return values, info


def per_layer(wl, traced: list[Episode], base: list[Episode]) -> dict:
    """Per-layer metrics from the traced episodes' spans and ledgers."""
    loop_updates = (wl.updates - 1) * len(traced)
    loop: dict[str, list] = {}
    setup: dict[str, float] = {}
    sized: dict[str, int] = {}
    for e in traced:
        for name, (secs, calls) in e.tracer.totals(2, wl.updates).items():
            acc = loop.setdefault(name, [0.0, 0])
            acc[0] += secs
            acc[1] += calls
        for name, (secs, _) in e.tracer.totals(1, 1).items():
            setup[name] = setup.get(name, 0.0) + secs
        for name, size in e.tracer.result_bytes.items():
            sized[name] = max(sized.get(name, 0), size)
    rounds, broadcasts, scalars = traced[0].ledger
    values = {
        "netsim.ledger.rounds_per_update": rounds / wl.updates,
        "netsim.ledger.broadcasts_per_update": broadcasts / wl.updates,
        "netsim.ledger.scalars_per_update": scalars / wl.updates,
        "graphs.shift_bytes": sized.get("graphs.build_shift", 0),
        "graphs.weights_bytes": sized.get("graphs.metropolis_weights", 0),
        "trace.updates_per_s": best_updates_per_s(traced, wl.window),
        "trace.base_updates_per_s": best_updates_per_s(base, wl.window),
    }
    values["trace.slowdown"] = values["trace.base_updates_per_s"] / values["trace.updates_per_s"]
    for name, *_ in PER_LAYER:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "self_ms":
            values[name] = loop.get(span, [0.0, 0])[0] / loop_updates * 1e3
        elif stat == "calls":
            values[name] = loop.get(span, [0.0, 0])[1] / loop_updates
        elif stat == "setup_self_ms":
            values[name] = setup.get(span, 0.0) / len(traced) * 1e3
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def write_spans(path: Path, traced: list[Episode]) -> None:
    names = sorted({n for e in traced for n in e.tracer.names})
    index = {n: i for i, n in enumerate(names)}
    cols: dict[str, list] = {}
    for k, e in enumerate(traced):
        c = e.tracer.columns()
        remap = np.array([index[n] for n in e.tracer.names], dtype=np.int64)
        c["name_id"] = remap[c["name_id"]] if c["name_id"].size else c["name_id"]
        c["episode"] = np.full(c["start"].size, k, dtype=np.int64)
        for key, col in c.items():
            cols.setdefault(key, []).append(col)
    np.savez(path, names=np.array(names), **{k: np.concatenate(v) for k, v in cols.items()})


def run(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload for about `seconds` and return its result record."""
    wl = WORKLOADS[name]
    deadline = time.perf_counter() + seconds
    episodes: list[Episode] = []
    durations: list[float] = []
    peak_rss_mb = None
    while True:
        began = time.perf_counter()
        episodes.append(run_episode(wl, seed))
        if peak_rss_mb is None:
            # Read after the first episode: later episodes reuse a heap whose
            # fragmentation, not the program, sets any further growth.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            episodes.append(run_episode(wl, seed, Tracer()))
        durations.append(time.perf_counter() - began)
        # Stop once another episode would overrun the deadline by more than half.
        enough = len(durations) >= (1 if trace else MIN_EPISODES)
        if enough and time.perf_counter() + statistics.median(durations) / 2 > deadline:
            break

    episode_problems = [f"episode {i}: {e.failure}" for i, e in enumerate(episodes) if e.failure]
    ref = reference_mse(name, seed)
    run_problems = run_checks(episodes, ref)
    problems = episode_problems + run_problems
    attempted = wl.updates * len(episodes)
    failed = attempted if run_problems else wl.updates * len(episode_problems)
    base = [e for e in episodes if not e.traced and e.failure is None]
    traced = [e for e in episodes if e.traced and e.failure is None]
    record = {
        "manifest": manifest(wl, seed, seconds, trace),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "update_fail_ratio": failed / attempted,
        "final_test_mse": base[0].final_test_mse if base else None,
        "notes": [] if ref is not None else [
            f"no reference for seed {seed}: final test MSE not checked against reference.json"],
        "metrics": {},
    }
    if not base or (trace and not traced):
        return record
    if trace:
        values = per_layer(wl, traced, base)
        units = {m[0]: m[1] for m in PER_LAYER}
        record["moves"] = {m[0]: {"metric": m[3], "on": m[4]} for m in PER_LAYER}
        RESULTS.mkdir(exist_ok=True)
        write_spans(RESULTS / f"{name}-seed{seed}-spans.npz", traced)
    else:
        values, record["info"] = end_to_end(wl, base, peak_rss_mb)
        units = {m[0]: m[1] for m in END_TO_END}
    record["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return record
