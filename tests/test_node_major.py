"""The node-major stacked kernel, the batched dense forward pass, the batched
test evaluation, and S and W built straight from the edge list."""
import numpy as np
import pytest
from scipy.sparse import csr_array

from fdgnn.agents import stack_flat_params, stacked_gradients
from fdgnn.datagen import DatasetSpec, default_teacher_specs, make_dataset
from fdgnn.gcnn import LayerSpec, central_gradient, forward, init_params, mse_loss
from fdgnn.graphs import (
    SHIFT_VARIANTS,
    Graph,
    build_shift,
    generate_ba,
    generate_er,
    metropolis_weights,
)
from fdgnn.trainer import evaluate_mse

from conftest import rel_error


def _specs(L, g0=3, hidden=4):
    widths = [g0] + [hidden] * (L - 1) + [1]
    acts = ["tanh", "leaky-relu"]
    return tuple(
        LayerSpec(widths[k], widths[k + 1], "identity" if k == L - 1 else acts[k % 2])
        for k in range(L)
    )


def _nonsymmetric_shift(n, seed):
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.5)
    assert not np.allclose(S, S.T)
    return S


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("sparse", [False, True])
def test_stacked_matches_dense_on_nonsymmetric_shift(L, B, sparse):
    """B=1 is a per-sample check against the dense oracle; the CSR form of a
    nonsymmetric S checks that the backward pass reads its transpose."""
    n = 7
    specs = _specs(L)
    S = _nonsymmetric_shift(n, L * 10 + B)
    S_in = csr_array(S) if sparse else S
    params = init_params(specs, "glorot", L)
    rng = np.random.default_rng(B)
    X = rng.normal(size=(B, n, specs[0].g_in))
    y = rng.normal(size=(B, n))
    th0, th1 = stack_flat_params(specs, np.tile(params.flatten(), (n, 1)))

    fwd = stacked_gradients(specs, th0, th1, S_in, X, None, forward_only=True)
    assert fwd.grads is None
    res = stacked_gradients(specs, th0, th1, S_in, X, y)
    dense_yhat = np.stack([forward(params, S, x)[0] for x in X])
    dense_grads = np.stack([central_gradient(params, S, x, t) for x, t in zip(X, y)])
    assert fwd.yhat.shape == res.yhat.shape == (B, n)
    assert rel_error(fwd.yhat, dense_yhat) < 1e-12
    assert rel_error(res.yhat, dense_yhat) < 1e-12
    assert res.grads.shape == (n, params.dim)
    assert rel_error(res.grads.sum(axis=0) / n, dense_grads.sum(axis=0)) < 1e-12


@pytest.mark.parametrize("n,B", [(30, 5), (200, 4)])
def test_batched_forward_is_bitwise_the_per_sample_loop(n, B):
    S = build_shift(generate_ba(n, 2, n), "normalized-adjacency").S
    specs = _specs(3, g0=5, hidden=6)
    params = init_params(specs, "glorot", 2)
    X = np.random.default_rng(n).normal(size=(B, n, 5))
    yhat, acts = forward(params, S, X)
    assert yhat.shape == (B, n)
    assert len(acts.x) == len(specs) + 1
    for b in range(B):
        assert yhat[b].tobytes() == forward(params, S, X[b])[0].tobytes()


def test_forward_rejects_bad_feature_shapes():
    S = build_shift(generate_ba(6, 2, 0)).S
    params = init_params(_specs(2), "glorot", 0)
    for shape in [(5, 3), (2, 6, 4), (1, 2, 6, 3), (3,)]:
        with pytest.raises(ValueError, match="features must be"):
            forward(params, S, np.zeros(shape))


def test_evaluate_mse_is_bitwise_the_per_sample_formula():
    graph = generate_ba(12, 2, 3)
    shift = build_shift(graph, "normalized-adjacency")
    dspec = DatasetSpec(n_samples=9, teacher_specs=default_teacher_specs(10, 6), seed=4)
    samples, _ = make_dataset(graph, dspec, "normalized-adjacency")
    params = init_params(_specs(2, g0=10), "glorot", 5)
    total = 0.0
    for s in samples:
        yhat, _ = forward(params, shift, s.X)
        total += mse_loss(s.y, yhat)
    assert evaluate_mse(params, shift, samples) == total / len(samples)


def _loop_shift(g, variant):
    """The shift operators entry by entry, from the degrees and the edges."""
    d = [g.degree(i) for i in range(g.n)]
    S = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in g.neighbors(i):
            if variant == "adjacency":
                S[i, j] = 1.0
            elif variant == "laplacian":
                S[i, j] = -1.0
            else:
                v = 1.0 / np.sqrt(d[i] * d[j])
                S[i, j] = v if variant == "normalized-adjacency" else -v
        if variant == "laplacian":
            S[i, i] = d[i]
        elif variant == "normalized-laplacian":
            S[i, i] = 1.0
    return S


def _loop_metropolis(g):
    W = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in g.neighbors(i):
            W[i, j] = 1.0 / (1.0 + max(g.degree(i), g.degree(j)))
        W[i, i] = 1.0 - sum(W[i, j] for j in g.neighbors(i))
    return W


GRAPHS = [
    Graph(1, ()),
    Graph(4, ((0, 1), (1, 2))),
    generate_ba(30, 2, 0),
    generate_ba(60, 3, 1),
    generate_er(25, 0.3, 2),
]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_shift_and_weights_follow_the_loop_formulas(g):
    for variant in SHIFT_VARIANTS:
        S = build_shift(g, variant).S
        ref = _loop_shift(g, variant)
        assert np.array_equal(S != 0, ref != 0), variant
        assert np.max(np.abs(S - ref), initial=0.0) <= 1e-15, variant
    W = metropolis_weights(g).W
    assert np.max(np.abs(W - _loop_metropolis(g))) <= 1e-15
    assert np.array_equal(W, W.T)
