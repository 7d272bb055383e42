import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdgnn.graphs import metropolis_weights
from fdgnn.optim import (
    DistOptimizer,
    MomentState,
    OptimizerConfig,
    central_update,
    consensus_round,
    dadam_update,
    damsgrad_update,
    dnaive_update,
    dsgd_update,
    run_consensus,
)

from conftest import complete_graph, path_graph, star_graph


def _weights(graph):
    return metropolis_weights(graph).W


def test_consensus_fixed_point_on_equal_rows():
    W = _weights(complete_graph(4))
    x = np.tile(np.array([1.0, -2.0, 3.0]), (4, 1))
    assert np.allclose(consensus_round(x, W), x, atol=1e-15)


def test_consensus_k2_one_round_average():
    W = _weights(complete_graph(2))
    out = consensus_round(np.array([[1.0], [3.0]]), W)
    assert np.allclose(out, 2.0)


def test_consensus_path3_converges():
    W = _weights(path_graph(3))
    x = np.array([[0.0], [1.0], [5.0]])
    out = run_consensus(x, W, 500)
    assert np.max(np.abs(out - 2.0)) < 1e-6


def test_consensus_shape_mismatch():
    W = _weights(complete_graph(3))
    with pytest.raises(ValueError):
        consensus_round(np.zeros((4, 2)), W)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 5000), n=st.integers(2, 20), d=st.integers(1, 5))
def test_consensus_preserves_mean(seed, n, d):
    rng = np.random.default_rng(seed)
    W = _weights(complete_graph(n)) if n <= 3 else _weights(star_graph(n))
    x = rng.normal(size=(n, d))
    out = consensus_round(x, W)
    assert np.max(np.abs(out.mean(axis=0) - x.mean(axis=0))) < 1e-12


def test_dsgd_zero_gradients_is_pure_consensus():
    W = _weights(path_graph(4))
    rng = np.random.default_rng(0)
    thetas = rng.normal(size=(4, 6))
    out = dsgd_update(consensus_round(thetas, W), 0.1, np.zeros((4, 6)))
    assert np.allclose(out, W @ thetas, atol=1e-15)


def test_dsgd_equal_state_equal_gradients_matches_plain_step():
    W = _weights(complete_graph(5))
    theta = np.tile(np.arange(3.0), (5, 1))
    g = np.tile(np.array([1.0, -1.0, 0.5]), (5, 1))
    out = dsgd_update(consensus_round(theta, W), 0.2, g)
    assert np.allclose(out, theta - 0.2 * g, atol=1e-14)


def test_dsgd_mean_trajectory_exact_on_complete_graph():
    # linear per-node gradient fields evaluated at the mixed copies: the node
    # mean must reproduce centralized descent on the averaged field
    rng = np.random.default_rng(3)
    n, d = 8, 5
    W = _weights(complete_graph(n))
    A = rng.normal(size=(n, d, d))
    b = rng.normal(size=(n, d))
    thetas = np.tile(rng.normal(size=d), (n, 1))
    theta_c = thetas[0].copy()
    alpha = 0.05
    for _ in range(100):
        psi = consensus_round(thetas, W)
        grads = np.einsum("nij,nj->ni", A, psi) + b
        thetas = dsgd_update(psi, alpha, grads)
        grad_c = (np.einsum("nij,j->ni", A, theta_c) + b).mean(axis=0)
        theta_c = theta_c - alpha * grad_c
        assert np.max(np.abs(thetas.mean(axis=0) - theta_c)) < 1e-10


def test_dnaive_star_one_round_is_not_the_mean():
    rng = np.random.default_rng(5)
    g = star_graph(6)
    W = _weights(g)
    grads = rng.normal(size=(6, 3))
    mixed = run_consensus(grads, W, 1)
    assert np.max(np.abs(mixed - grads.mean(axis=0))) > 1e-3


def test_dnaive_rejects_k_zero_and_bad_mode():
    W = _weights(complete_graph(3))
    with pytest.raises(ValueError):
        dnaive_update(np.zeros((3, 2)), W, 0, 0.1, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        OptimizerConfig("d-naive", K=0)


def _reference_adam(grads, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
    # straight-line recurrence, kept separate from the implementation
    theta = np.zeros_like(grads[0])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta = theta - alpha * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return theta


def _reference_amsgrad(grads, alpha, beta1=0.9, beta2=0.999, eps=1e-8):
    theta = np.zeros_like(grads[0])
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    vhat = np.zeros_like(theta)
    for g in grads:
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        vhat = np.maximum(vhat, v)
        theta = theta - alpha * m / (np.sqrt(vhat) + eps)
    return theta


def test_dadam_single_node_reduces_to_adam():
    rng = np.random.default_rng(6)
    grads = [rng.normal(size=4) for _ in range(5)]
    cfg = OptimizerConfig("d-adam", alpha=0.01)
    W = np.array([[1.0]])
    thetas = np.zeros((1, 4))
    moments = MomentState.zeros((1, 4))
    for g in grads:
        thetas = dadam_update(consensus_round(thetas, W), moments, cfg.alpha, g[None], cfg)
    assert np.allclose(thetas[0], _reference_adam(grads, 0.01), atol=1e-14)


def test_dadam_zero_gradients_is_consensus_only():
    # bias-corrected step of a zero gradient is zero, so only mixing remains
    W = _weights(path_graph(3))
    cfg = OptimizerConfig("d-adam", alpha=0.1)
    thetas = np.random.default_rng(1).normal(size=(3, 2))
    moments = MomentState.zeros((3, 2))
    out = dadam_update(consensus_round(thetas, W), moments, cfg.alpha, np.zeros((3, 2)), cfg)
    assert np.allclose(out, W @ thetas, atol=1e-14)


def test_dadam_local_momenta_diverge_across_nodes():
    W = _weights(complete_graph(2))
    cfg = OptimizerConfig("d-adam", alpha=0.01)
    thetas = np.zeros((2, 3))
    moments = MomentState.zeros((2, 3))
    grads = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    for _ in range(4):
        thetas = dadam_update(consensus_round(thetas, W), moments, cfg.alpha, grads, cfg)
    assert np.max(np.abs(moments.m[0] - moments.m[1])) > 0.1


def test_damsgrad_single_node_reduces_to_amsgrad():
    rng = np.random.default_rng(7)
    grads = [rng.normal(size=4) for _ in range(6)]
    cfg = OptimizerConfig("d-amsgrad", alpha=0.01)
    W = np.array([[1.0]])
    thetas = np.zeros((1, 4))
    moments = MomentState.zeros((1, 4), with_vhat=True)
    for g in grads:
        thetas = damsgrad_update(consensus_round(thetas, W), moments, W, cfg.alpha, g[None], cfg)
    assert np.allclose(thetas[0], _reference_amsgrad(grads, 0.01), atol=1e-14)


def test_damsgrad_zero_gradients_converges_to_initial_consensus():
    rng = np.random.default_rng(8)
    W = _weights(path_graph(4))
    cfg = OptimizerConfig("d-amsgrad", alpha=0.1)
    thetas = rng.normal(size=(4, 2))
    target = thetas.mean(axis=0)
    moments = MomentState.zeros((4, 2), with_vhat=True)
    for _ in range(500):
        thetas = damsgrad_update(consensus_round(thetas, W), moments, W, cfg.alpha, np.zeros((4, 2)), cfg)
    assert np.max(np.abs(thetas - target)) < 1e-6
    assert not moments.m.any() and not moments.v.any()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 5000), steps=st.integers(1, 20))
def test_damsgrad_vhat_monotone(seed, steps):
    rng = np.random.default_rng(seed)
    W = _weights(complete_graph(3))
    cfg = OptimizerConfig("d-amsgrad", alpha=0.01)
    thetas = np.zeros((3, 4))
    moments = MomentState.zeros((3, 4), with_vhat=True)
    prev = moments.vhat.copy()
    for _ in range(steps):
        g = rng.normal(size=(3, 4)) * rng.exponential(1.0)
        thetas = damsgrad_update(consensus_round(thetas, W), moments, W, cfg.alpha, g, cfg)
        assert np.all(moments.vhat >= prev)
        prev = moments.vhat.copy()


def test_damsgrad_optional_v_consensus_changes_result():
    rng = np.random.default_rng(9)
    W = _weights(path_graph(3))
    grads = rng.normal(size=(3, 2))
    base_cfg = OptimizerConfig("d-amsgrad", alpha=0.1)
    v_cfg = OptimizerConfig("d-amsgrad", alpha=0.1, consensus_on_v=True)
    thetas = rng.normal(size=(3, 2))
    m1 = MomentState.zeros((3, 2), with_vhat=True)
    m2 = MomentState.zeros((3, 2), with_vhat=True)
    a = damsgrad_update(consensus_round(thetas, W), m1, W, 0.1, grads, base_cfg)
    a = damsgrad_update(consensus_round(a, W), m1, W, 0.1, grads, base_cfg)
    b = damsgrad_update(consensus_round(thetas, W), m2, W, 0.1, grads, v_cfg)
    b = damsgrad_update(consensus_round(b, W), m2, W, 0.1, grads, v_cfg)
    assert np.max(np.abs(a - b)) > 0


def test_central_sgd_steps():
    cfg = OptimizerConfig("central-sgd", alpha=0.5)
    theta = np.array([1.0, 2.0])
    assert np.array_equal(central_update(theta, np.zeros(2), cfg), theta)
    out = central_update(theta, np.array([2.0, -2.0]), cfg)
    assert np.array_equal(out, [0.0, 3.0])


def test_central_adam_matches_reference_recurrence():
    rng = np.random.default_rng(10)
    grads = [rng.normal(size=3) for _ in range(5)]
    cfg, moments = OptimizerConfig("central-adam", alpha=0.02), MomentState.zeros(3)
    theta = np.zeros(3)
    for g in grads:
        theta = central_update(theta, g, cfg, moments, 0.02)
    assert np.allclose(theta, _reference_adam(grads, 0.02), atol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig("sgd")
    with pytest.raises(ValueError):
        OptimizerConfig("d-sgd", alpha=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("d-adam", beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig("d-adam", decay=0.0)
    # degenerate frozen runs are allowed
    OptimizerConfig("central-sgd", alpha=0.0)


@pytest.mark.parametrize(
    "field,value",
    [("alpha", np.nan), ("alpha", np.inf), ("decay", np.nan), ("decay", np.inf),
     ("epsilon", np.nan), ("epsilon", np.inf), ("epsilon", -1e-8)],
)
def test_config_rejects_non_finite_or_negative_numbers(field, value):
    with pytest.raises(ValueError, match="finite"):
        OptimizerConfig("d-amsgrad", **{field: value})


def test_dist_optimizer_wiring():
    cfg = OptimizerConfig("d-amsgrad", alpha=0.1)
    opt = DistOptimizer(cfg, 4, 6)
    assert opt.moments.vhat is not None
    with pytest.raises(ValueError):
        DistOptimizer(OptimizerConfig("central-sgd"), 4, 6)
