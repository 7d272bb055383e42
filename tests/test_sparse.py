"""Sparse graphs store S and W in CSR form; the dense and CSR forms agree.

A graph is sparse when its closed neighbourhoods hold at most n^2/16 entries.
Each test below compares a CSR operator against its own dense `.S` / `.W`
read, so the two forms hold the same floats and differ only in the order of
the additions inside a product.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fdgnn import datagen, graphs, trainer
from fdgnn.agents import make_agents, stack_flat_params, stacked_gradients
from fdgnn.gcnn import central_gradient, forward, init_params
from fdgnn.graphs import (
    SHIFT_VARIANTS,
    ConsensusWeights,
    ShiftOperator,
    build_shift,
    generate_ba,
    generate_er,
    metropolis_weights,
)
from fdgnn.netsim import Network, run_minibatch
from fdgnn.optim import OptimizerConfig, consensus_round
from fdgnn.trainer import RunConfig, train_distributed

SRC = Path(__file__).resolve().parent.parent / "src"
RTOL = 1e-12
# Sparse under the rule: BA n=100 holds 494 <= 625 entries, ER(200, 0.04)
# about 1,800 <= 2,500.
SPARSE_GRAPHS = {"ba": lambda: generate_ba(100, 2, 3), "er": lambda: generate_er(200, 0.04, 3)}


def assert_agree(got, ref):
    """Within RTOL of max(|ref|, 1): the laplacian runs grow large, so an
    absolute tolerance would not do."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= RTOL * max(np.max(np.abs(ref)), 1.0)


def held_bytes(obj):
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("variant", SHIFT_VARIANTS)
@pytest.mark.parametrize("kind", sorted(SPARSE_GRAPHS))
def test_sparse_and_dense_forms_agree(kind, variant):
    g = SPARSE_GRAPHS[kind]()
    shift, weights = build_shift(g, variant), metropolis_weights(g)
    assert not isinstance(shift.matrix, np.ndarray)
    assert not isinstance(weights.matrix, np.ndarray)
    S, W = shift.S, weights.W
    assert isinstance(S, np.ndarray) and isinstance(W, np.ndarray)
    rng = np.random.default_rng(7)
    specs = RunConfig(layers=2, hidden=4).model_specs(3)
    params = init_params(specs, "glorot", 1)
    X = rng.normal(size=(4, g.n, 3))
    y = rng.normal(size=(4, g.n))
    th0, th1 = stack_flat_params(specs, params.flatten() + 0.1 * rng.normal(size=(g.n, params.dim)))
    sparse = stacked_gradients(specs, th0, th1, shift, X, y)
    dense = stacked_gradients(specs, th0, th1, S, X, y)
    assert_agree(sparse.yhat, dense.yhat)
    assert_agree(sparse.grads, dense.grads)
    for x in (X[0], X):
        assert_agree(forward(params, shift, x)[0], forward(params, S, x)[0])
    assert_agree(central_gradient(params, shift, X[0], y[0]), central_gradient(params, S, X[0], y[0]))
    theta = rng.normal(size=(g.n, 5))
    assert_agree(consensus_round(theta, weights), consensus_round(theta, W))


@pytest.mark.parametrize("variant", SHIFT_VARIANTS)
def test_make_agents_reads_a_plain_csr_by_column(variant):
    """A CSR built from a dense S stores no zero entry, so its rows need not
    line up with the closed neighbourhoods."""
    from scipy.sparse import csr_array

    g = generate_ba(30, 2, 0)
    S = build_shift(g, variant).S
    params = init_params(RunConfig(layers=2, hidden=4).model_specs(3), "glorot", 1)
    dense, sparse = (make_agents(g, m, params) for m in (S, csr_array(S)))
    assert [a.shift_row for a in sparse] == [a.shift_row for a in dense]


def _force_dense(monkeypatch):
    """Make the trainer and the data generator build dense S and W."""
    def shift(g, variant="normalized-adjacency"):
        return ShiftOperator(variant, build_shift(g, variant).S)

    def weights(g):
        return ConsensusWeights(metropolis_weights(g).W)

    for module in (trainer, datagen):
        monkeypatch.setattr(module, "build_shift", shift)
    monkeypatch.setattr(trainer, "metropolis_weights", weights)


@pytest.mark.parametrize("mode", ["fixed", "redraw-per-batch"])
@pytest.mark.parametrize("variant", SHIFT_VARIANTS)
@pytest.mark.parametrize("kind", sorted(SPARSE_GRAPHS))
def test_training_runs_agree_across_forms(monkeypatch, kind, variant, mode):
    n, p = (100, 0.3) if kind == "ba" else (200, 0.04)
    cfg = RunConfig(graph=kind, n=n, p=p, shift=variant, topology_mode=mode, layers=2,
                    hidden=4, n_train=6, n_test=3, batch=3, epochs=2, eval_every=1,
                    optimizer="d-amsgrad", alpha=1e-2, seed=2)
    sparse = train_distributed(cfg)
    _force_dense(monkeypatch)
    dense = train_distributed(cfg)
    assert_agree(sparse.node_params, dense.node_params)
    for a, b in zip(sparse.log.records, dense.log.records):
        assert_agree([a.train_mse, a.test_mse, a.consensus_gap], [b.train_mse, b.test_mse, b.consensus_gap])


def test_sparse_batched_forward_is_bitwise_per_sample():
    g = generate_ba(300, 2, 0)
    shift = build_shift(g, "normalized-laplacian")
    assert not isinstance(shift.matrix, np.ndarray)
    params = init_params(RunConfig(layers=3, hidden=5).model_specs(4), "glorot", 2)
    X = np.random.default_rng(1).normal(size=(6, g.n, 4))
    batched, acts = forward(params, shift, X)
    for b in range(len(X)):
        single, one = forward(params, shift, X[b])
        assert np.array_equal(batched[b], single)
        for k in range(params.n_layers):
            assert np.array_equal(acts.a[k][b], one.a[k])


@pytest.mark.parametrize("g", [generate_ba(30, 2, 0), generate_er(100, 0.3, 0)], ids=["ba30", "er100"])
def test_graphs_denser_than_the_rule_stay_dense(g):
    for variant in SHIFT_VARIANTS:
        assert isinstance(build_shift(g, variant).matrix, np.ndarray)
    assert isinstance(metropolis_weights(g).matrix, np.ndarray)


def test_large_sparse_graph_holds_little_memory():
    g = generate_ba(10_000, 2, 0)
    shift, weights = build_shift(g), metropolis_weights(g)
    total = held_bytes(shift) + held_bytes(weights)
    assert 0 < total < 5e6
    assert shift.matrix.indptr is shift.indptr and weights.matrix.data is weights.data


def test_sparse_runs_never_densify(monkeypatch):
    from scipy.sparse import csr_array

    def refuse(*_args, **_kwargs):
        raise AssertionError("a sparse operator was densified")

    g = generate_ba(400, 2, 4)
    shift, weights = build_shift(g), metropolis_weights(g)
    assert not isinstance(shift.matrix, np.ndarray)
    monkeypatch.setattr(graphs._Stored, "dense", refuse)
    monkeypatch.setattr(csr_array, "toarray", refuse)
    monkeypatch.setattr(csr_array, "todense", refuse)
    monkeypatch.setattr(ShiftOperator, "S", property(refuse))
    monkeypatch.setattr(ConsensusWeights, "W", property(refuse))
    specs = RunConfig(layers=2, hidden=3).model_specs(10)
    teacher = init_params(datagen.default_teacher_specs(10, 4), "normal", 0)
    spec = datagen.DatasetSpec(n_samples=2, teacher_specs=teacher.specs)
    samples = datagen.draw_samples(teacher, shift, spec, 2, np.random.default_rng(0))
    for engine, batch in (("stacked", samples), ("agents", samples[:1])):
        net = Network(g, shift, weights, init_params(specs, "glorot", 0), OptimizerConfig("d-amsgrad"))
        result = run_minibatch(net, batch, "piggyback-do", engine=engine)
        assert np.isfinite(result.train_mse)


def _modules_after(code):
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(SRC)!r})
        {code}
        print("scipy" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    return out.stdout.split()[-1]


def test_scipy_is_imported_only_for_a_sparse_graph():
    desk = ("from fdgnn.trainer import RunConfig, train_distributed; "
            "train_distributed(RunConfig(n=30, n_train=30, n_test=10, epochs=1, optimizer='d-amsgrad'))")
    assert _modules_after(desk) == "False"
    sparse = "import fdgnn; fdgnn.build_shift(fdgnn.generate_ba(400, 2, 0))"
    assert _modules_after(sparse) == "True"
