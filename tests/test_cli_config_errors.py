"""Bad command-line input exits 2 with `config error`, before any output."""
import pytest

from fdgnn.cli import main
from fdgnn.graphs import generate_ba, save_edge_list


@pytest.mark.parametrize("flag", ["--hidden", "--g0"])
def test_gradcheck_zero_width_is_config_error(flag, capsys):
    assert main(["gradcheck", flag, "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_gradcheck_negative_seed_is_config_error(capsys):
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def _file_args(tmp_path, graph_file):
    return [
        "train", "--graph", "file", "--graph-file", str(graph_file),
        "--n-train", "8", "--n-test", "4", "--batch", "4", "--epochs", "1",
        "--hidden", "3", "--out", str(tmp_path / "out"),
    ]


@pytest.mark.parametrize(
    "content",
    [None, "3\n1 x\n", "3\n0 1\n", "3\n0 5\n", ""],
    ids=["missing", "malformed-line", "disconnected", "out-of-range", "empty"],
)
def test_train_bad_graph_file_is_config_error(tmp_path, capsys, content):
    path = tmp_path / "graph.txt"
    if content is not None:
        path.write_text(content)
    assert main(_file_args(tmp_path, path)) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_good_graph_file_runs(tmp_path):
    path = tmp_path / "graph.txt"
    save_edge_list(generate_ba(8, 2, 0), path)
    assert main(_file_args(tmp_path, path)) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def _config_args(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ["train", "--config", str(path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "text",
    ['{"n": "30"}', '{"alpha": "0.1"}', '{"n": 30.0}', '{"seed": 1.5}',
     '{"track_trace": "yes"}', "5", "null"],
)
def test_train_mistyped_config_file_is_config_error(tmp_path, capsys, text):
    assert main(_config_args(tmp_path, text)) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_config_file_int_for_float_field_runs(tmp_path):
    text = '{"noise_var": 0, "n": 8, "n_train": 8, "n_test": 4, "batch": 4, "epochs": 1}'
    assert main(_config_args(tmp_path, text)) == 0
    assert (tmp_path / "out" / "metrics.csv").exists()


def test_train_config_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_trace_with_centralized_optimizer_is_config_error(tmp_path, capsys):
    args = ["train", "--optimizer", "central-adam", "--trace", "--n", "8", "--n-train", "8",
            "--n-test", "4", "--batch", "4", "--epochs", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_compare_trace_is_config_error(tmp_path, capsys):
    args = ["compare", "--trace", "--n", "8", "--n-train", "8", "--n-test", "4", "--batch", "4",
            "--epochs", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["train", "--optimizer", "central-adam", "--trace"], ["compare", "--trace"]],
                         ids=["train-central", "compare"])
def test_trace_config_errors_draw_no_setup(tmp_path, monkeypatch, argv):
    def drawn(*args, **kwargs):
        raise AssertionError("the set-up was drawn before the config error")

    monkeypatch.setattr("fdgnn.cli._setup", drawn)
    assert main([*argv, "--n", "8", "--n-train", "8", "--n-test", "4", "--batch", "4",
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("argv", [["train"], ["compare"], ["costs", "--L", "2", "--B", "3"]],
                         ids=["train", "compare", "costs"])
def test_out_naming_a_file_is_config_error(tmp_path, capsys, argv):
    path = tmp_path / "out"
    path.write_text("kept")
    run = [] if argv[0] == "costs" else ["--n", "8", "--n-train", "8", "--n-test", "4", "--batch", "4",
                                         "--epochs", "1"]
    assert main([*argv, *run, "--out", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert path.read_text() == "kept"
