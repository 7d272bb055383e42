"""The dataset is two read-only arrays and a batch is a view of them: the
arrays are bitwise the per-sample draws, the trainers hand the kernel views
of the set-up's training array, and a record trains as its list of samples."""
import numpy as np
import pytest

from fdgnn import agents, netsim, trainer
from fdgnn.datagen import Dataset, DatasetSpec, Sample, default_teacher_specs, draw_features, draw_samples, make_dataset
from fdgnn.gcnn import forward, init_params, mse_loss
from fdgnn.graphs import as_matrix, build_shift, generate_ba
from fdgnn.netsim import Network, run_minibatch
from fdgnn.optim import OptimizerConfig
from fdgnn.trainer import RunConfig, _setup, evaluate_mse, train_centralized, train_distributed

SHIFTS = {"dense-30": build_shift(generate_ba(30, 2, 1)), "csr-400": build_shift(generate_ba(400, 2, 4))}


def _reference_draw(teacher, shift, spec, count, rng):
    """The per-sample loop: features, one teacher pass, then noise, sample by sample."""
    n = as_matrix(shift).shape[0]
    sigma = np.sqrt(spec.noise_var)
    out = []
    for _ in range(count):
        X = draw_features(spec.feature_plan, n, rng)
        clean, _ = forward(teacher, shift, X)
        out.append(Sample(X, clean + rng.normal(0.0, sigma, n) if sigma > 0 else clean))
    return out


def _assert_bitwise(record, reference):
    assert isinstance(record, Dataset) and len(record) == len(reference)
    assert record.X.tobytes() == np.stack([s.X for s in reference]).tobytes()
    assert record.y.tobytes() == np.stack([s.y for s in reference]).tobytes()


def _counts(shift):
    chunk = max(1, 1024 // as_matrix(shift).shape[0])
    return sorted({1, max(1, chunk - 1), chunk, 2 * chunk + 1})


@pytest.mark.parametrize("noise_var", [0.0, 0.01])
@pytest.mark.parametrize("name", SHIFTS)
def test_arrays_are_bitwise_the_per_sample_draws(name, noise_var):
    shift = SHIFTS[name]
    assert isinstance(shift.matrix, np.ndarray) == (name == "dense-30")
    teacher = init_params(default_teacher_specs(10, 16), "normal", 7)
    for count in _counts(shift):
        spec = DatasetSpec(n_samples=count, noise_var=noise_var, seed=count)
        drawn = draw_samples(teacher, shift, spec, count, np.random.default_rng(count))
        _assert_bitwise(drawn, _reference_draw(teacher, shift, spec, count, np.random.default_rng(count)))
        made, made_teacher = make_dataset(shift, spec)
        rng = np.random.default_rng(spec.seed)
        ref_teacher = init_params(spec.teacher_specs, "normal", int(rng.integers(2**31)))
        assert made_teacher.flatten().tobytes() == ref_teacher.flatten().tobytes()
        _assert_bitwise(made, _reference_draw(ref_teacher, shift, spec, count, rng))


@pytest.mark.parametrize("name", SHIFTS)
def test_evaluate_mse_over_several_chunks_is_the_per_sample_mean(name):
    shift = SHIFTS[name]
    count = _counts(shift)[-1]
    data, _ = make_dataset(shift, DatasetSpec(n_samples=count, seed=2))
    params = init_params(RunConfig(hidden=5).model_specs(10), "glorot", 3)
    total = 0.0
    for s in data:
        total += mse_loss(s.y, forward(params, shift, s.X)[0])
    assert evaluate_mse(params, shift, data) == total / count
    assert evaluate_mse(params, shift, list(data)) == total / count


def test_record_indexes_as_samples_and_slices_as_records():
    data, _ = make_dataset(SHIFTS["dense-30"], DatasetSpec(n_samples=5, seed=1))
    assert len(data) == 5 and len(list(data)) == 5
    assert isinstance(data[3], Sample) and np.shares_memory(data[3].X, data.X)
    part = data[1:4]
    assert isinstance(part, Dataset) and len(part) == 3 and np.shares_memory(part.y, data.y)
    assert part[0].y.tobytes() == data[1].y.tobytes() and data[-1].X.tobytes() == data.X[4].tobytes()


@pytest.mark.parametrize("field", ["X", "y"])
def test_a_setup_is_read_only(field):
    _, _, _, _, train, test, _, _, _ = _setup(RunConfig(n_train=6, n_test=2, batch=3))
    for data in (train, test, train[:3], train[0]):
        with pytest.raises(ValueError, match="read-only"):
            getattr(data, field)[0] = 1.0


def test_a_record_leaves_its_callers_arrays_writable():
    X, y = np.zeros((2, 3, 1)), np.zeros((2, 3))
    data = Dataset(X, y)
    X[1], y[1] = 1.0, 2.0
    assert data.X[1].tolist() == [[1.0]] * 3 and data.y[1].tolist() == [2.0] * 3
    for held in (data.X, data.y):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 3.0


@pytest.mark.parametrize("optimizer", ["d-amsgrad", "central-adam"])
def test_the_kernel_reads_views_of_the_setup(monkeypatch, optimizer):
    cfg = RunConfig(optimizer=optimizer, n_train=12, n_test=3, batch=4, epochs=2)
    setup = _setup(cfg)
    shared = []
    real = agents.stacked_gradients

    def spy(specs, th0, th1, S, X, *args):
        shared.append(np.shares_memory(X, setup[4].X))
        return real(specs, th0, th1, S, X, *args)

    monkeypatch.setattr(netsim, "stacked_gradients", spy)
    monkeypatch.setattr(trainer, "stacked_gradients", spy)
    (train_centralized if optimizer == "central-adam" else train_distributed)(cfg, setup=setup)
    assert shared == [True] * 6


@pytest.mark.parametrize("engine", ["stacked", "agents"])
def test_a_record_trains_as_its_list_of_samples(engine):
    graph = generate_ba(12, 2, 5)
    shift = build_shift(graph)
    data, _ = make_dataset(shift, DatasetSpec(n_samples=4, seed=6))
    params = init_params(RunConfig(hidden=4).model_specs(10), "glorot", 1)
    results = []
    for batch in (data, list(data)):
        net = Network(graph, shift, params, OptimizerConfig("d-amsgrad"))
        res = run_minibatch(net, batch, "piggyback-do", engine=engine)
        results.append((res.grads.tobytes(), res.yhat.tobytes(), res.ledger.snapshot(), net.theta.tobytes()))
    assert results[0] == results[1]
