"""Smoke test of the benchmark itself, at a tiny run length.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that ledger counts, call counts and the final test MSE repeat exactly across
runs, that an injected non-finite loss is counted as failed updates, and that
the benchmark refuses to run without the fdgnn sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 0) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def test_spec_matches_workload_table():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        m[:3] for m in workloads.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    lines, result = bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{workload} {m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]


@pytest.mark.parametrize("workload", ["desk-amsgrad", "agents-naive"])
def test_counts_and_final_mse_repeat_exactly(workload):
    def exact(lines, result):
        counts = {k: m["value"] for k, m in result["metrics"].items()
                  if k.endswith(".calls") or k.startswith("netsim.ledger.")}
        final = [line for line in lines if line.startswith(f"{workload} final_test_mse = ")]
        return counts, final

    first, second = exact(*bench(workload, 1)), exact(*bench(workload, 1))
    assert first == second
    assert first[0]["netsim.ledger.rounds_per_update"] > 0 and first[1]


def test_injected_nonfinite_loss_counts_as_failed_updates(monkeypatch, capsys):
    from fdgnn import trainer

    real = trainer.run_minibatch
    calls = []

    def poisoned(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 5:
            result.train_mse = float("nan")
        return result

    monkeypatch.setattr(trainer, "run_minibatch", poisoned)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "desk-amsgrad", "--seconds", "1"])
    assert run.main() == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    per_episode = workloads.WORKLOADS["desk-amsgrad"].updates
    assert not result["correct"]
    assert result["failed"] == per_episode  # only the poisoned episode
    assert result["attempted"] >= 2 * per_episode


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-amsgrad", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
