import numpy as np
import pytest

from fdgnn.datagen import (
    DEFAULT_FEATURE_PLAN,
    DatasetSpec,
    default_teacher_specs,
    load_dataset,
    make_dataset,
    save_dataset,
)
from fdgnn.gcnn import forward
from fdgnn.graphs import build_shift, generate_ba


@pytest.fixture(scope="module")
def graph():
    return generate_ba(20, 2, 1)


def test_default_plan_width():
    assert sum(w for _, w in DEFAULT_FEATURE_PLAN) == 10


def test_noiseless_labels_equal_teacher_output(graph):
    spec = DatasetSpec(n_samples=5, noise_var=0.0, seed=3)
    shift = build_shift(graph, "normalized-adjacency")
    samples, teacher = make_dataset(shift, spec)
    for s in samples:
        clean, _ = forward(teacher, shift, s.X)
        assert np.array_equal(s.y, clean)


def test_noise_variance_monte_carlo(graph):
    spec = DatasetSpec(n_samples=1000, noise_var=0.01, seed=4)
    shift = build_shift(graph, "normalized-adjacency")
    samples, teacher = make_dataset(shift, spec)
    residuals = []
    for s in samples:
        clean, _ = forward(teacher, shift, s.X)
        residuals.append(s.y - clean)
    var = float(np.var(np.concatenate(residuals)))
    assert 0.008 <= var <= 0.012


def test_dataset_deterministic(graph):
    spec = DatasetSpec(n_samples=4, seed=11)
    a, teacher_a = make_dataset(build_shift(graph), spec)
    b, teacher_b = make_dataset(build_shift(graph), spec)
    assert np.array_equal(teacher_a.flatten(), teacher_b.flatten())
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.X, sb.X)
        assert np.array_equal(sa.y, sb.y)


def test_feature_blocks_have_expected_support(graph):
    spec = DatasetSpec(n_samples=3, seed=5)
    samples, _ = make_dataset(build_shift(graph), spec)
    X = samples[0].X
    assert X.shape == (graph.n, 10)
    uniform = X[:, :4]
    assert np.all((uniform >= 0) & (uniform <= 1))
    binary = X[:, 6]
    assert set(np.unique(binary)) <= {0.0, 1.0}
    onehot = X[:, 7:10]
    assert np.array_equal(onehot.sum(axis=1), np.ones(graph.n))
    assert set(np.unique(onehot)) <= {0.0, 1.0}


def test_teacher_and_student_defaults_differ():
    teacher = default_teacher_specs()
    assert teacher[0].g_out == 16
    from fdgnn.trainer import RunConfig

    assert RunConfig().hidden == 8
    assert teacher[0].g_out != RunConfig().hidden


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(n_samples=0)
    with pytest.raises(ValueError):
        DatasetSpec(n_samples=1, noise_var=-0.1)
    with pytest.raises(ValueError):
        DatasetSpec(n_samples=1, feature_plan=(("uniform", 3),))  # width mismatch
    with pytest.raises(ValueError):
        DatasetSpec(n_samples=1, feature_plan=(("spline", 10),))


def test_bundle_round_trip(tmp_path, graph):
    spec = DatasetSpec(n_samples=6, seed=9)
    samples, _ = make_dataset(build_shift(graph), spec)
    save_dataset(samples, spec, graph.n, tmp_path / "bundle")
    loaded, meta = load_dataset(tmp_path / "bundle")
    assert meta["n_samples"] == 6 and meta["n_nodes"] == graph.n
    assert meta["teacher_widths"] == [10, 16, 1]
    for a, b in zip(samples, loaded):
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)


@pytest.mark.parametrize("damage", ["drop-last-label", "inf-feature", "nan-label"])
def test_load_dataset_rejects_truncated_or_non_finite_bundle(tmp_path, graph, damage):
    spec = DatasetSpec(n_samples=3, seed=2)
    samples, _ = make_dataset(build_shift(graph), spec)
    bundle = tmp_path / "bundle"
    save_dataset(samples, spec, graph.n, bundle)
    name = "features.csv" if damage == "inf-feature" else "labels.csv"
    lines = (bundle / name).read_text().splitlines()
    if damage == "drop-last-label":
        lines = lines[:-1]
    else:
        row = lines[1].split(",")
        row[0] = "inf" if damage == "inf-feature" else "nan"
        lines[1] = ",".join(row)
    (bundle / name).write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_dataset(bundle)


def test_dataset_spec_rejects_nan_noise():
    with pytest.raises(ValueError, match="finite"):
        DatasetSpec(n_samples=2, noise_var=float("nan"))
