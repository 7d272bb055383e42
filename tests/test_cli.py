import argparse
import json

import numpy as np
import pytest

from fdgnn.cli import main, make_parser
from fdgnn.gcnn import load_params


def _train_args(tmp_path, *extra):
    return [
        "train",
        "--graph", "ba", "--n", "8", "--m", "2",
        "--n-train", "8", "--n-test", "4",
        "--batch", "4", "--epochs", "2", "--hidden", "3",
        "--eval-every", "1", "--seed", "5",
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def test_costs_table_values(tmp_path, capsys):
    rc = main(["costs", "--L", "2", "--B", "100", "--K", "1", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    rows = {}
    for line in out.strip().splitlines()[1:]:
        parts = line.split()
        rows[parts[0]] = (int(parts[1]), int(parts[2]))
    assert rows["fwd-only"] == (200, 200)
    assert rows["naive-per-sample"] == (400, 400)
    assert rows["per-batch-consensus"] == (301, 301)
    assert rows["piggyback-consensus"] == (202, 202)
    assert rows["piggyback-do"] == (201, 201)
    assert (tmp_path / "costs.csv").exists()


def test_costs_second_parameterization(tmp_path, capsys):
    rc = main(["costs", "--L", "3", "--B", "10", "--K", "5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    measured = {}
    for line in out.strip().splitlines()[1:]:
        parts = line.split()
        measured[parts[0]] = int(parts[2])
    assert measured == {
        "fwd-only": 30,
        "naive-per-sample": 100,
        "per-batch-consensus": 55,
        "piggyback-consensus": 37,
        "piggyback-do": 32,
    }


def test_costs_rejects_nonpositive(tmp_path):
    assert main(["costs", "--L", "0", "--B", "1", "--out", str(tmp_path)]) == 2


def test_gradcheck_passes(capsys):
    rc = main(["gradcheck", "--seed", "1", "--n", "10", "--layers", "2"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_gradcheck_single_layer_and_adversarial_widths(capsys):
    assert main(["gradcheck", "--layers", "1", "--n", "6"]) == 0
    assert main(["gradcheck", "--g0", "10", "--hidden", "1", "--n", "8"]) == 0


def test_train_writes_outputs(tmp_path):
    rc = main(_train_args(tmp_path))
    assert rc == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.csv").read_text()
    assert metrics.splitlines()[0] == "t,rounds,train_mse,test_mse,consensus_gap"
    ledger = (out / "ledger.csv").read_text()
    assert "piggyback-do" in ledger
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["widths"] == [10, 3, 1]


def test_train_rerun_is_byte_identical(tmp_path):
    assert main(_train_args(tmp_path)) == 0
    first = (tmp_path / "out" / "metrics.csv").read_bytes()
    assert main(_train_args(tmp_path)) == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == first


def test_train_trace_flag(tmp_path):
    rc = main(_train_args(tmp_path, "--trace"))
    assert rc == 0
    trace = (tmp_path / "out" / "trace.csv").read_text()
    assert trace.splitlines()[0] == "round,kinds,per_node_scalars"


def test_train_missing_config_file(tmp_path):
    rc = main(["train", "--config", str(tmp_path / "missing.json")])
    assert rc == 2


def test_train_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 0.1}))
    assert main(["train", "--config", str(cfg)]) == 2


def test_train_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "graph": "ba", "n": 8, "m": 2, "n_train": 8, "n_test": 4,
                "batch": 4, "epochs": 5, "hidden": 3, "eval_every": 1, "seed": 5,
            }
        )
    )
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--epochs", "1", "--out", str(out)])
    assert rc == 0
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2  # flag override: 1 epoch of 2 batches


def test_train_bad_pairing_exits_config_error(tmp_path):
    rc = main(_train_args(tmp_path, "--optimizer", "d-naive", "--strategy", "piggyback-do"))
    assert rc == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_numeric(tmp_path):
    rc = main(_train_args(tmp_path, "--lr", "1e12", "--epochs", "5"))
    assert rc == 3
    assert (tmp_path / "out" / "checkpoint.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("engine", ["stacked", "agents"])
def test_train_abort_writes_the_logs_of_the_updates_that_ran(tmp_path, engine):
    rc = main(_train_args(tmp_path, "--lr", "1e12", "--epochs", "5", "--trace", "--engine", engine))
    assert rc == 3
    out = tmp_path / "out"
    rows = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert all(np.isfinite(float(row[2])) for row in rows[:-1])
    assert not np.isfinite(float(rows[-1][2]))
    ledger = (out / "ledger.csv").read_text().splitlines()[1].split(",")
    trace = (out / "trace.csv").read_text().splitlines()[1:]
    assert int(ledger[4]) == int(rows[-1][1]) == len(trace)
    assert np.all(np.isfinite(load_params(out / "checkpoint.json").flatten()))


def test_compare_runs_seven_methods(tmp_path, monkeypatch):
    monkeypatch.setenv("FDGNN_THREADS", "2")
    rc = main(
        [
            "compare",
            "--graph", "ba", "--n", "8", "--m", "2",
            "--n-train", "8", "--n-test", "4",
            "--batch", "4", "--epochs", "1", "--hidden", "3",
            "--eval-every", "1", "--seed", "5",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "method,t,rounds,train_mse,test_mse,consensus_gap"
    methods = {ln.split(",")[0] for ln in lines[1:]}
    assert methods == {
        "central-sgd",
        "central-adam",
        "d-naive",
        "d-naive-piggyback",
        "d-sgd",
        "d-adam",
        "d-amsgrad",
    }
    # all methods share the same update count, keyed by their own round axes
    by_method = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        by_method.setdefault(parts[0], []).append(int(parts[2]))
    counts = {len(v) for v in by_method.values()}
    assert counts == {2}
    assert by_method["d-naive"][-1] > by_method["d-sgd"][-1]


def test_compare_bad_threads_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FDGNN_THREADS", "many")
    rc = main(["compare", "--n", "8", "--n-train", "8", "--n-test", "4",
               "--batch", "4", "--epochs", "1", "--out", str(tmp_path)])
    assert rc == 2


# Every run flag: option string -> (action, dest, type, default, choices).
RUN_FLAGS = {
    "--config": ("_StoreAction", "config", None, None, None),
    "--graph": ("_StoreAction", "graph", None, None, ("ba", "er", "file")),
    "--graph-file": ("_StoreAction", "graph_file", None, None, None),
    "--n": ("_StoreAction", "n", int, None, None),
    "--m": ("_StoreAction", "m", int, None, None),
    "--p": ("_StoreAction", "p", float, None, None),
    "--shift": ("_StoreAction", "shift", None, None, None),
    "--layers": ("_StoreAction", "layers", int, None, None),
    "--hidden": ("_StoreAction", "hidden", int, None, None),
    "--n-train": ("_StoreAction", "n_train", int, None, None),
    "--n-test": ("_StoreAction", "n_test", int, None, None),
    "--noise-var": ("_StoreAction", "noise_var", float, None, None),
    "--teacher-hidden": ("_StoreAction", "teacher_hidden", int, None, None),
    "--optimizer": ("_StoreAction", "optimizer", None, None, None),
    "--strategy": ("_StoreAction", "strategy", None, None, None),
    "--batch": ("_StoreAction", "batch", int, None, None),
    "--epochs": ("_StoreAction", "epochs", int, None, None),
    "--lr": ("_StoreAction", "alpha", float, None, None),
    "--lr-decay": ("_StoreAction", "decay", float, None, None),
    "--K": ("_StoreAction", "K", int, None, None),
    "--eval-every": ("_StoreAction", "eval_every", int, None, None),
    "--seed": ("_StoreAction", "seed", int, None, None),
    "--topology-mode": ("_StoreAction", "topology_mode", None, None, None),
    "--engine": ("_StoreAction", "engine", None, None, ("agents", "stacked")),
    "--trace": ("_StoreTrueAction", "track_trace", None, None, None),
    "--out": ("_StoreAction", "out", None, "out", None),
}


@pytest.mark.parametrize("command", ["train", "compare"])
def test_run_flag_surface_is_pinned(command):
    sub = next(a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for action in sub.choices[command]._actions:
        if action.dest == "help":
            continue
        (option,) = action.option_strings
        choices = tuple(action.choices) if action.choices is not None else None
        flags[option] = (type(action).__name__, action.dest, action.type, action.default, choices)
    assert flags == RUN_FLAGS
    dests = {dest for _, dest, *_ in flags.values()}
    assert not dests & {"beta1", "beta2", "epsilon", "consensus_on_v"}


def _compare_outputs(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("FDGNN_THREADS", threads)
    out = tmp_path / threads
    assert main(["compare", "--n", "12", "--n-train", "8", "--n-test", "4", "--batch", "4",
                 "--epochs", "2", "--hidden", "3", "--eval-every", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    return capsys.readouterr().out, (out / "compare.csv").read_bytes()


def test_compare_outputs_do_not_depend_on_worker_count(tmp_path, monkeypatch, capsys):
    one = _compare_outputs(tmp_path, monkeypatch, capsys, "1")
    assert one == _compare_outputs(tmp_path, monkeypatch, capsys, "7")


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_train_and_compare_draw_the_graph_once(tmp_path, monkeypatch):
    from fdgnn import trainer

    calls = _count_calls(monkeypatch, trainer, "generate_ba")
    assert main(_train_args(tmp_path)) == 0
    assert len(calls) == 1
    calls.clear()
    argv = _train_args(tmp_path, "--epochs", "1")
    argv[0] = "compare"
    assert main(argv) == 0
    assert len(calls) == 1


def test_train_reads_the_graph_file_once(tmp_path, monkeypatch):
    from fdgnn import trainer
    from fdgnn.graphs import generate_ba, save_edge_list

    path = tmp_path / "graph.txt"
    save_edge_list(generate_ba(8, 2, 11), path)
    calls = _count_calls(monkeypatch, trainer, "load_edge_list")
    assert main(_train_args(tmp_path, "--graph", "file", "--graph-file", str(path))) == 0
    assert len(calls) == 1


def test_compare_sets_up_once_and_trains_six_times(tmp_path, monkeypatch):
    from fdgnn import cli, trainer

    datasets = _count_calls(monkeypatch, trainer, "make_dataset")
    distributed = _count_calls(monkeypatch, cli, "train_distributed")
    centralized = _count_calls(monkeypatch, cli, "train_centralized")
    argv = _train_args(tmp_path, "--epochs", "1")
    argv[0] = "compare"
    assert main(argv) == 0
    assert len(datasets) == 1
    assert (len(distributed), len(centralized)) == (4, 2)


@pytest.mark.parametrize("mode", ["fixed", "redraw-per-batch"])
@pytest.mark.parametrize("engine", ["stacked", "agents"])
def test_compare_piggyback_row_is_a_piggyback_consensus_training(tmp_path, monkeypatch, engine, mode):
    from fdgnn.trainer import RunConfig, train_distributed

    monkeypatch.setenv("FDGNN_THREADS", "1")
    argv = _train_args(tmp_path, "--engine", engine, "--topology-mode", mode)
    argv[0] = "compare"
    assert main(argv) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().splitlines()
    written = [ln for ln in lines if ln.startswith("d-naive-piggyback,")]
    cfg = RunConfig(graph="ba", n=8, m=2, n_train=8, n_test=4, batch=4, epochs=2, hidden=3,
                    eval_every=1, seed=5, engine=engine, topology_mode=mode,
                    optimizer="d-naive", strategy="piggyback-consensus")
    records = train_distributed(cfg).log.records
    assert written == [f"d-naive-piggyback,{r.csv_row()}" for r in records]


def test_compare_shares_a_csr_setup_across_threads(tmp_path, monkeypatch, capsys):
    from fdgnn.trainer import RunConfig, _setup

    flags = ["--n", "120", "--n-train", "8", "--n-test", "4", "--batch", "4", "--epochs", "2",
             "--hidden", "3", "--eval-every", "1", "--seed", "3"]
    assert hasattr(_setup(RunConfig(n=120, n_train=8, n_test=4, batch=4, seed=3))[1].matrix, "tocsr")
    outputs = []
    for threads in ("1", "7"):
        monkeypatch.setenv("FDGNN_THREADS", threads)
        assert main(["compare", *flags, "--out", str(tmp_path / threads)]) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / threads / "compare.csv").read_bytes()))
    assert outputs[0] == outputs[1]
