import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdgnn.gcnn import (
    LayerSpec,
    ParamSet,
    activation_derivative,
    apply_activation,
    central_gradient,
    forward,
    init_params,
    load_params,
    mse_loss,
    num_params,
    save_params,
)
from fdgnn.graphs import Graph, build_shift, generate_er

from conftest import assert_fd_close, fd_gradient, rel_error


def _identity_params(width=1):
    spec = LayerSpec(width, 1, "identity")
    return ParamSet((spec,), [np.eye(width, 1)], [np.zeros((width, 1))])


def test_forward_identity_network():
    g = Graph(3, ((0, 1), (1, 2)))
    S = build_shift(g, "adjacency")
    X = np.array([[1.0], [2.0], [3.0]])
    yhat, acts = forward(_identity_params(), S, X)
    assert np.array_equal(yhat, [1.0, 2.0, 3.0])
    assert np.array_equal(acts.x[0], X)


def test_forward_pure_shift_swaps_single_edge():
    g = Graph(2, ((0, 1),))
    S = build_shift(g, "adjacency")
    spec = LayerSpec(1, 1, "identity")
    params = ParamSet((spec,), [np.zeros((1, 1))], [np.ones((1, 1))])
    yhat, _ = forward(params, S, np.array([[5.0], [7.0]]))
    assert np.array_equal(yhat, [7.0, 5.0])


def test_forward_matches_straight_line_evaluation():
    # independent dense evaluation of the two-term layer rule
    rng = np.random.default_rng(2)
    g = generate_er(5, 0.7, 2)
    S = build_shift(g, "normalized-adjacency").S
    specs = (LayerSpec(3, 4, "relu"), LayerSpec(4, 1, "identity"))
    params = init_params(specs, "glorot", 9)
    X = rng.normal(size=(5, 3))

    h1 = X @ params.theta0[0] + S @ X @ params.theta1[0]
    x1 = np.maximum(h1, 0.0)
    h2 = x1 @ params.theta0[1] + S @ x1 @ params.theta1[1]
    expected = h2[:, 0]

    yhat, acts = forward(params, S, X)
    assert rel_error(yhat, expected) < 1e-14
    assert np.allclose(acts.a[0], S @ X)


def test_forward_rejects_bad_shapes():
    params = _identity_params()
    S = build_shift(Graph(2, ((0, 1),)), "adjacency")
    with pytest.raises(ValueError):
        forward(params, S, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        forward(params, S, np.zeros((2, 2)))


def test_forward_requires_scalar_output():
    specs = (LayerSpec(2, 2, "identity"),)
    params = init_params(specs, "glorot", 0)
    S = build_shift(Graph(2, ((0, 1),)), "adjacency")
    with pytest.raises(ValueError):
        forward(params, S, np.zeros((2, 2)))


def test_mse_basics():
    assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse_loss([1.0, 1.0], [0.0, 2.0]) == 1.0
    with pytest.raises(ValueError):
        mse_loss([1.0], [1.0, 2.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 30), st.integers(0, 1000))
def test_mse_is_mean_of_node_losses(n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    yhat = rng.normal(size=n)
    assert mse_loss(y, yhat) == pytest.approx(float(np.mean((y - yhat) ** 2)), rel=0, abs=0)


def test_central_gradient_zero_residual():
    g = Graph(3, ((0, 1), (1, 2)))
    S = build_shift(g, "adjacency")
    params = _identity_params()
    X = np.array([[1.0], [2.0], [3.0]])
    grad = central_gradient(params, S, X, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(grad, np.zeros(2))


def test_central_gradient_linear_least_squares():
    # single identity layer with no neighborhood term: the self-weight
    # gradient is (2/n) X^T (yhat - y)
    rng = np.random.default_rng(3)
    g = generate_er(6, 0.5, 1)
    S = build_shift(g, "adjacency")
    specs = (LayerSpec(3, 1, "identity"),)
    t0 = rng.normal(size=(3, 1))
    params = ParamSet(specs, [t0], [np.zeros((3, 1))])
    X = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    yhat, _ = forward(params, S, X)
    grad = central_gradient(params, S, X, y)
    expected = (2.0 / 6) * X.T @ (yhat - y)
    assert rel_error(grad[:3], expected.ravel()) < 1e-14


def test_central_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    g = generate_er(12, 0.4, 5)
    S = build_shift(g, "normalized-adjacency")
    specs = (LayerSpec(3, 4, "leaky-relu"), LayerSpec(4, 1, "identity"))
    params = init_params(specs, "glorot", 6)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    grad = central_gradient(params, S, X, y)
    fd = fd_gradient(specs, params.flatten(), S, X, y)
    assert_fd_close(grad, fd)


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    g = generate_er(9, 0.4, 7)
    S = build_shift(g, "normalized-adjacency").S
    specs = (LayerSpec(2, 3, "tanh"), LayerSpec(3, 1, "identity"))
    params = init_params(specs, "glorot", 1)
    X = rng.normal(size=(9, 2))
    perm = rng.permutation(9)
    P = np.eye(9)[perm]
    base, _ = forward(params, S, X)
    permuted, _ = forward(params, P @ S @ P.T, P @ X)
    assert np.max(np.abs(permuted - P @ base)) < 1e-12


def test_init_deterministic_and_glorot_bounded():
    specs = (LayerSpec(5, 7, "relu"), LayerSpec(7, 1, "identity"))
    a = init_params(specs, "glorot", 42)
    b = init_params(specs, "glorot", 42)
    for t_a, t_b in zip(a.theta0 + a.theta1, b.theta0 + b.theta1):
        assert np.array_equal(t_a, t_b)
    for spec, t0, t1 in zip(specs, a.theta0, a.theta1):
        bound = np.sqrt(6.0 / (spec.g_in + spec.g_out))
        assert np.max(np.abs(t0)) <= bound
        assert np.max(np.abs(t1)) <= bound


def test_init_zeros_scheme():
    specs = (LayerSpec(2, 1, "identity"),)
    p = init_params(specs, "zeros", 0)
    assert not p.flatten().any()


def test_init_unknown_scheme():
    with pytest.raises(ValueError):
        init_params((LayerSpec(2, 1),), "xavier-typo", 0)


@settings(max_examples=30, deadline=None)
@given(
    widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    seed=st.integers(0, 10_000),
)
def test_flatten_round_trip_is_bitwise(widths, seed):
    widths = widths[:-1] + [1]
    specs = tuple(LayerSpec(widths[i], widths[i + 1], "leaky-relu") for i in range(len(widths) - 1))
    params = init_params(specs, "glorot", seed)
    flat = params.flatten()
    assert flat.size == num_params(specs)
    back = ParamSet.from_flat(specs, flat)
    for t_a, t_b in zip(params.theta0 + params.theta1, back.theta0 + back.theta1):
        assert np.array_equal(t_a, t_b)
    assert np.array_equal(back.flatten(), flat)


def test_flatten_order_is_layer_major_theta0_first():
    specs = (LayerSpec(2, 2, "identity"), LayerSpec(2, 1, "identity"))
    t0_1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    t1_1 = np.array([[5.0, 6.0], [7.0, 8.0]])
    t0_2 = np.array([[9.0], [10.0]])
    t1_2 = np.array([[11.0], [12.0]])
    flat = ParamSet(specs, [t0_1, t0_2], [t1_1, t1_2]).flatten()
    assert np.array_equal(flat, np.arange(1.0, 13.0))


def test_param_save_load_round_trip(tmp_path):
    specs = (LayerSpec(4, 3, "leaky-relu", slope=0.02), LayerSpec(3, 1, "identity"))
    params = init_params(specs, "glorot", 13)
    path = tmp_path / "ckpt.json"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.specs == params.specs
    assert np.array_equal(loaded.flatten(), params.flatten())


def test_activation_derivative_kink_convention():
    h = np.array([-1.0, 0.0, 1.0])
    relu = LayerSpec(1, 1, "relu")
    leaky = LayerSpec(1, 1, "leaky-relu", slope=0.01)
    assert np.array_equal(activation_derivative(relu, h), [0.0, 0.0, 1.0])
    assert np.array_equal(activation_derivative(leaky, h), [0.01, 0.01, 1.0])
    assert np.array_equal(apply_activation(leaky, h), [-0.01, 0.0, 1.0])


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(0, 1)
    with pytest.raises(ValueError):
        LayerSpec(1, 1, "softmax")
    with pytest.raises(ValueError):
        ParamSet((LayerSpec(2, 3), LayerSpec(4, 1)), [np.zeros((2, 3)), np.zeros((4, 1))], [np.zeros((2, 3)), np.zeros((4, 1))])
