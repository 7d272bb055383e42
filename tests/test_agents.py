import numpy as np
import pytest

from fdgnn.agents import (
    AgentState,
    BwdAdjoint,
    FwdFeature,
    Message,
    ProtocolError,
    local_backward_init,
    local_backward_layer,
    local_forward_layer,
    local_gradient,
    make_agents,
    stack_flat_params,
    stacked_gradients,
)
from fdgnn.gcnn import LayerSpec, ParamSet, central_gradient, forward, init_params
from fdgnn.graphs import Graph, build_shift, generate_er, metropolis_weights

from conftest import drive_sample, rel_error, star_graph


def _network(graph, specs, seed=0, variant="normalized-adjacency", scheme="glorot"):
    shift = build_shift(graph, variant)
    params = init_params(specs, scheme, seed)
    return shift, params, make_agents(graph, shift, params)


def test_forward_self_term_only_returns_own_feature():
    g = star_graph(5)
    specs = (LayerSpec(1, 1, "identity"),)
    shift = build_shift(g, "adjacency")
    params = ParamSet(specs, [np.eye(1)], [np.zeros((1, 1))])
    agents = make_agents(g, shift, params)
    X = np.arange(5.0)[:, None]
    yhat, _ = drive_sample(agents, g, X, np.zeros(5))
    assert np.array_equal(yhat, np.arange(5.0))


def test_forward_pure_neighborhood_term_swaps_features():
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(1, 1, "identity"),)
    shift = build_shift(g, "adjacency")
    params = ParamSet(specs, [np.zeros((1, 1))], [np.eye(1)])
    agents = make_agents(g, shift, params)
    yhat, _ = drive_sample(agents, g, np.array([[5.0], [7.0]]), np.zeros(2))
    assert np.array_equal(yhat, [7.0, 5.0])


def test_distributed_forward_matches_dense(graph_zoo):
    specs = (LayerSpec(3, 4, "leaky-relu"), LayerSpec(4, 1, "identity"))
    for g in graph_zoo:
        rng = np.random.default_rng(g.n)
        shift, params, agents = _network(g, specs, seed=g.n)
        X = rng.normal(size=(g.n, 3))
        yhat, _ = drive_sample(agents, g, X, np.zeros(g.n))
        dense, _ = forward(params, shift, X)
        assert np.max(np.abs(yhat - dense)) < 1e-12


def test_backward_init_sets_residual_adjoint():
    g = Graph(2, ((0, 1),))
    shift, params, agents = _network(g, (LayerSpec(1, 1, "identity"),))
    agents[0].begin_sample(0, np.array([1.0]))
    inbox = [Message(1, 1, FwdFeature(0, np.array([2.0])))]
    yhat = local_forward_layer(agents[0], 1, inbox)
    local_backward_init(agents[0], 1.0, 1.5)
    assert agents[0]._bwd[0]["z"] == pytest.approx([1.0])
    local_backward_init(agents[0], 1.5, 1.5)
    assert agents[0]._bwd[0]["z"] == pytest.approx([0.0])


def test_identity_activation_gives_q_equal_z():
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(2, 3, "identity"), LayerSpec(3, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 2))
    y = rng.normal(size=2)
    for i, a in enumerate(agents):
        a.begin_sample(0, X[i])
    feats = [FwdFeature(0, X[i].copy()) for i in range(2)]
    h1 = [local_forward_layer(agents[i], 1, [Message(1 - i, 1, feats[1 - i])]) for i in range(2)]
    out = [local_forward_layer(agents[i], 2, [Message(1 - i, 2, h1[1 - i])]) for i in range(2)]
    local_backward_init(agents[0], y[0], out[0])
    adj = local_backward_layer(agents[0], 2, [])
    assert np.array_equal(agents[0]._bwd[0]["q"], np.array([2.0 * (out[0] - y[0])]))


def test_single_node_partials():
    # no neighbors: self weight grad is 2(yhat-y) x, neighborhood grad scales
    # by the diagonal shift entry
    g = Graph(1, ())
    specs = (LayerSpec(2, 1, "identity"),)
    params = ParamSet(specs, [np.array([[0.5], [-1.0]])], [np.array([[0.2], [0.3]])])
    s_ii = 0.7
    agent = AgentState(0, params, {0: s_ii}, {})
    x = np.array([1.5, -2.0])
    agent.begin_sample(0, x)
    yhat = local_forward_layer(agent, 1, [])
    y = 0.25
    local_backward_init(agent, y, yhat)
    assert local_backward_layer(agent, 1, []) is None
    grad = local_gradient(agent)
    r = 2.0 * (yhat - y)
    assert np.allclose(grad[:2], r * x)
    assert np.allclose(grad[2:], r * s_ii * x)


def test_average_of_local_gradients_matches_dense():
    rng = np.random.default_rng(5)
    g = generate_er(12, 0.4, 2)
    specs = (LayerSpec(3, 5, "leaky-relu"), LayerSpec(5, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=8)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    _, grads = drive_sample(agents, g, X, y)
    dense = central_gradient(params, shift, X, y)
    assert rel_error(grads.mean(axis=0), dense) < 1e-10


def test_zero_residuals_give_zero_gradient():
    g = Graph(3, ((0, 1), (1, 2)))
    shift, params, agents = _network(g, (LayerSpec(2, 1, "identity"),), scheme="zeros")
    X = np.random.default_rng(1).normal(size=(3, 2))
    _, grads = drive_sample(agents, g, X, np.zeros(3))
    assert not grads.any()


def _stacked_sum_loss(specs, flat_stack, S, X, y):
    th0, th1 = stack_flat_params(specs, flat_stack)
    res = stacked_gradients(specs, th0, th1, S, X[None], None)
    return float(np.sum((res.yhat[0] - y) ** 2))


def test_cross_node_sensitivity_on_k2():
    # node 0's gradient carries node 1's loss through the neighborhood term
    rng = np.random.default_rng(9)
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(2, 1, "identity"),)
    shift, params, agents = _network(g, specs, seed=4)
    X = rng.normal(size=(2, 2))
    y = rng.normal(size=2)
    _, grads = drive_sample(agents, g, X, y)
    flat = np.tile(params.flatten(), (2, 1))
    step = 1e-6
    fd = np.zeros(params.dim)
    for k in range(params.dim):
        hi = flat.copy()
        hi[0, k] += step
        lo = flat.copy()
        lo[0, k] -= step
        fd[k] = (
            _stacked_sum_loss(specs, hi, shift.S, X, y)
            - _stacked_sum_loss(specs, lo, shift.S, X, y)
        ) / (2 * step)
    mask = np.abs(fd) > 1e-8
    assert np.max(np.abs(grads[0][mask] - fd[mask]) / np.abs(fd[mask])) < 1e-4
    # the neighborhood slice really moves node 1's prediction
    assert np.abs(grads[0][2:]).max() > 0


def test_full_pipeline_single_node_perturbation():
    rng = np.random.default_rng(11)
    g = generate_er(7, 0.5, 3)
    specs = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=12)
    X = rng.normal(size=(7, 2))
    y = rng.normal(size=7)
    _, grads = drive_sample(agents, g, X, y)
    flat = np.tile(params.flatten(), (7, 1))
    step = 1e-6
    node = 4
    direction = rng.normal(size=params.dim)
    hi = flat.copy()
    hi[node] += step * direction
    lo = flat.copy()
    lo[node] -= step * direction
    fd_dir = (
        _stacked_sum_loss(specs, hi, shift.S, X, y)
        - _stacked_sum_loss(specs, lo, shift.S, X, y)
    ) / (2 * step)
    analytic = float(grads[node] @ direction)
    assert abs(analytic - fd_dir) / max(abs(fd_dir), 1e-12) < 1e-4


def test_local_gradient_layout_matches_flatten_order():
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(2, 2, "identity"), LayerSpec(2, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=6)
    rng = np.random.default_rng(2)
    X = rng.normal(size=(2, 2))
    y = rng.normal(size=2)
    _, grads = drive_sample(agents, g, X, y)
    # gradient of a flat copy perturbed along basis vectors reproduces slices
    assert grads.shape == (2, params.dim)
    assert params.dim == 2 * 2 * 2 + 2 * 2 * 1


def test_stacked_matches_message_level_with_heterogeneous_copies():
    rng = np.random.default_rng(21)
    g = generate_er(9, 0.4, 6)
    specs = (LayerSpec(3, 4, "tanh"), LayerSpec(4, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=2)
    # give every node a different copy
    flat = np.stack([params.flatten() + 0.1 * rng.normal(size=params.dim) for _ in agents])
    for agent, row in zip(agents, flat):
        agent.params = ParamSet.from_flat(specs, row)
    X = rng.normal(size=(9, 3))
    y = rng.normal(size=9)
    yhat_msgs, grads_msgs = drive_sample(agents, g, X, y)
    th0, th1 = stack_flat_params(specs, flat)
    res = stacked_gradients(specs, th0, th1, shift.S, X[None], y[None])
    assert np.max(np.abs(res.yhat[0] - yhat_msgs)) < 1e-12
    assert np.max(np.abs(res.grads - grads_msgs)) < 1e-12


def test_missing_neighbor_message_rejected():
    g = Graph(3, ((0, 1), (0, 2)))
    shift, params, agents = _network(g, (LayerSpec(1, 1, "identity"),))
    agents[0].begin_sample(0, np.array([1.0]))
    with pytest.raises(ProtocolError, match="missing messages"):
        local_forward_layer(agents[0], 1, [Message(1, 1, FwdFeature(0, np.array([2.0])))])


def test_wrong_width_message_rejected():
    g = Graph(2, ((0, 1),))
    shift, params, agents = _network(g, (LayerSpec(2, 1, "identity"),))
    agents[0].begin_sample(0, np.array([1.0, 2.0]))
    bad = Message(1, 1, FwdFeature(0, np.array([1.0])))
    with pytest.raises(ProtocolError, match="width"):
        local_forward_layer(agents[0], 1, [bad])


def test_layer_order_violations_rejected():
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(1, 2, "identity"), LayerSpec(2, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=1)
    agents[0].begin_sample(0, np.array([1.0]))
    with pytest.raises(ProtocolError, match="out of order"):
        local_forward_layer(agents[0], 2, [Message(1, 1, FwdFeature(1, np.zeros(2)))])
    with pytest.raises(ProtocolError):
        local_backward_layer(agents[0], 2, [])


def test_local_gradient_before_completion_rejected():
    g = Graph(2, ((0, 1),))
    shift, params, agents = _network(g, (LayerSpec(1, 1, "identity"),))
    with pytest.raises(ProtocolError):
        local_gradient(agents[0])


def test_messages_are_value_copies():
    # mutating the sender's caches after emission must not change the receiver view
    g = Graph(2, ((0, 1),))
    specs = (LayerSpec(1, 2, "identity"), LayerSpec(2, 1, "identity"))
    shift, params, agents = _network(g, specs, seed=7)
    agents[1].begin_sample(0, np.array([2.0]))
    out = local_forward_layer(agents[1], 1, [Message(0, 1, FwdFeature(0, np.array([1.0])))])
    snapshot = out.values.copy()
    agents[1]._fwd[0]["x"][1][:] = 999.0
    assert np.array_equal(out.values, snapshot)


def test_agents_share_no_buffers():
    g = Graph(3, ((0, 1), (1, 2)))
    shift, params, agents = _network(g, (LayerSpec(2, 1, "identity"),), seed=3)
    for a, b in ((agents[0], agents[1]), (agents[1], agents[2])):
        for ta, tb in zip(a.params.theta0 + a.params.theta1, b.params.theta0 + b.params.theta1):
            assert not np.shares_memory(ta, tb)
        assert not np.shares_memory(a.grad_accum, b.grad_accum)


def test_w_row_matches_global_weights():
    g = generate_er(8, 0.5, 9)
    shift, params, agents = _network(g, (LayerSpec(1, 1, "identity"),))
    W = metropolis_weights(g).W
    for i, agent in enumerate(agents):
        row = agent.w_row()
        for j in range(g.n):
            assert row.get(j, 0.0) == pytest.approx(W[i, j], abs=1e-15)
