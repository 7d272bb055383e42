import dataclasses

import numpy as np
import pytest

from fdgnn import trainer
from fdgnn.graphs import generate_ba, load_edge_list, save_edge_list
from fdgnn.trainer import (
    MetricsLog,
    RunConfig,
    TrainingDiverged,
    _setup,
    evaluate_mse,
    train_centralized,
    train_distributed,
)


def tiny_config(**overrides):
    base = dict(
        graph="ba",
        n=8,
        m=2,
        n_train=8,
        n_test=4,
        batch=4,
        epochs=2,
        hidden=3,
        alpha=1e-3,
        optimizer="d-sgd",
        strategy="piggyback-do",
        eval_every=1,
        seed=5,
        engine="stacked",
    )
    base.update(overrides)
    return RunConfig(**base)


def test_single_minibatch_round_count():
    # one batch of one sample through a 2-layer piggyback schedule: 3 rounds
    cfg = tiny_config(n_train=1, n_test=2, batch=1, epochs=1)
    res = train_distributed(cfg)
    assert res.log.final.rounds == 3
    assert res.log.final.t == 1


def test_metrics_log_reproducible_bitwise():
    logs = [train_distributed(tiny_config()).log for _ in range(2)]
    assert len(logs[0].records) == len(logs[1].records)
    for a, b in zip(logs[0].records, logs[1].records):
        assert a == b


def test_centralized_zero_learning_rate_freezes_loss():
    cfg = tiny_config(optimizer="central-sgd", alpha=0.0, epochs=3)
    res = train_centralized(cfg)
    mses = [r.train_mse for r in res.log.records]
    # same batches revisited with frozen parameters give identical losses
    assert mses[0] == mses[2] and mses[1] == mses[3]


def test_centralized_reproducible():
    cfg = tiny_config(optimizer="central-adam")
    a = train_centralized(cfg)
    b = train_centralized(cfg)
    for ra, rb in zip(a.log.records, b.log.records):
        assert ra == rb


def test_distributed_node_mean_tracks_centralized_on_complete_graph():
    updates = {}

    def collect(store):
        def hook(t, state):
            if hasattr(state, "thetas"):
                store[t] = state.thetas().mean(axis=0)
            else:
                store[t] = np.asarray(state).copy()

        return hook

    dist_track, cent_track = {}, {}
    shared = dict(graph="er", p=1.0, n=8, n_train=20, n_test=5, batch=2, epochs=3, seed=3)
    cfg_d = tiny_config(optimizer="d-sgd", strategy="piggyback-do", **shared)
    cfg_c = tiny_config(optimizer="central-sgd", **shared)
    train_distributed(cfg_d, on_update=collect(dist_track))
    train_centralized(cfg_c, on_update=collect(cent_track))
    assert dist_track.keys() == cent_track.keys()
    worst = max(np.max(np.abs(dist_track[t] - cent_track[t])) for t in dist_track)
    assert worst < 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_checkpoint():
    cfg = tiny_config(alpha=1e12, epochs=5)
    with pytest.raises(TrainingDiverged) as err:
        train_distributed(cfg)
    assert err.value.last_params is not None
    assert err.value.step >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_carries_the_log_and_ledger_of_the_updates_that_ran():
    with pytest.raises(TrainingDiverged) as err:
        train_distributed(tiny_config(alpha=1e12, epochs=5))
    log, ledger = err.value.log, err.value.ledger
    assert [r.t for r in log.records] == list(range(1, err.value.step + 1))
    assert not np.isfinite(log.final.train_mse)
    assert log.final.ledger_snapshot == ledger.snapshot()
    assert len(ledger.trace) == ledger.rounds


def test_redraw_topology_mode_runs_and_reproduces():
    cfg = tiny_config(topology_mode="redraw-per-batch", epochs=2)
    a = train_distributed(cfg)
    b = train_distributed(cfg)
    for ra, rb in zip(a.log.records, b.log.records):
        assert ra == rb


def test_metrics_csv_schema(tmp_path):
    res = train_distributed(tiny_config())
    path = tmp_path / "metrics.csv"
    res.log.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,rounds,train_mse,test_mse,consensus_gap"
    assert len(lines) == len(res.log.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    float(first[2])  # parse check


def test_agents_engine_paths_agree_with_stacked():
    res_a = train_distributed(tiny_config(engine="agents"))
    res_s = train_distributed(tiny_config(engine="stacked"))
    a = res_a.theta_star.flatten()
    s = res_s.theta_star.flatten()
    assert np.max(np.abs(a - s)) < 1e-10


def test_config_validation_errors():
    with pytest.raises(ValueError):
        tiny_config(optimizer="d-naive", strategy="piggyback-do").validate()
    with pytest.raises(ValueError):
        tiny_config(strategy="fwd-only").validate()
    with pytest.raises(ValueError):
        tiny_config(batch=20, n_train=10).validate()
    with pytest.raises(ValueError):
        tiny_config(graph="file").validate()
    with pytest.raises(ValueError):
        tiny_config(topology_mode="per-epoch").validate()
    with pytest.raises(ValueError):
        train_centralized(tiny_config(optimizer="d-sgd"))
    with pytest.raises(ValueError):
        train_distributed(tiny_config(optimizer="central-sgd"))


def test_test_mse_respects_noise_floor():
    # irreducible label noise bounds the achievable test error from below
    cfg = tiny_config(epochs=3)
    res = train_distributed(cfg)
    assert res.log.final.test_mse >= cfg.noise_var - 0.005


def test_benchmark_consensus_gap_shrinks(benchmark_runs):
    log = benchmark_runs["d-sgd"]["result"].log
    assert log.final.consensus_gap < log.records[0].consensus_gap


def test_benchmark_moving_average_trend(benchmark_runs):
    # 100-batch moving average over the final half: few upward blips allowed
    mses = np.array([r.train_mse for r in benchmark_runs["d-sgd"]["result"].log.records])
    ma = np.convolve(mses, np.ones(100) / 100, mode="valid")
    half = ma[len(ma) // 2 :]
    diffs = np.diff(half)
    frac_up = float(np.mean(diffs > 1e-12))
    assert frac_up <= 0.05


def _file_config(tmp_path, **overrides):
    path = tmp_path / "graph.txt"
    save_edge_list(generate_ba(8, 2, 11), path)
    return tiny_config(graph="file", graph_file=str(path), **overrides)


@pytest.mark.parametrize("graph", ["ba", "er", "file"])
def test_validate_returns_the_run_graph(tmp_path, graph):
    cfg = _file_config(tmp_path) if graph == "file" else tiny_config(graph=graph, p=0.6)
    assert cfg.validate().edges == _setup(cfg)[0].edges


def test_run_reads_its_graph_file_once(tmp_path, monkeypatch):
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_edge_list(path)

    monkeypatch.setattr(trainer, "load_edge_list", counting_load)
    train_distributed(_file_config(tmp_path, epochs=1))
    assert len(calls) == 1
