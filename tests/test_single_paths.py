"""One parameter array, one cached plan per batch shape, one gradient kernel.

Checks that the Network's (n, dim) array is the only parameter state, that
round plans are built and audited once and billed identically with the trace
on or off, and that the centralized baseline's stacked-kernel gradient
matches dense backpropagation along a whole training run.
"""
import numpy as np
import pytest

from fdgnn import netsim
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, ParamSet, central_gradient, forward, init_params, mse_loss
from fdgnn.graphs import build_shift, generate_ba, generate_er
from fdgnn.netsim import (
    STRATEGIES,
    CausalityError,
    Network,
    RoundPlan,
    build_round_plan,
    expected_rounds,
    run_minibatch,
)
from fdgnn.optim import MomentState, OptimizerConfig, central_update
from fdgnn.trainer import RunConfig, _redraw, _setup, evaluate_mse, train_centralized

SPECS = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1, "identity"))


def _net(kind="d-sgd", n=6, K=1, seed=0):
    g = generate_ba(n, 2, seed)
    params = init_params(SPECS, "glorot", seed)
    return Network(
        g, build_shift(g), params,
        OptimizerConfig(kind, alpha=1e-2, K=K),
    )


def _samples(n, B, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(n, 2)), rng.normal(size=n)) for _ in range(B)]


def _kind(strategy):
    return "d-naive" if "consensus" in strategy or strategy == "naive-per-sample" else "d-sgd"


def test_set_thetas_rejects_wrong_shape():
    net = _net(n=6)
    th = net.thetas()
    for bad in (th[:2] + 1.0, th[:, :-1], th[0]):
        with pytest.raises(ValueError):
            net.set_thetas(bad)
    assert np.array_equal(net.thetas(), th)


def test_thetas_is_a_copy_and_set_thetas_replaces_the_state():
    net = _net()
    th = net.thetas()
    th[0] += 1.0
    assert not np.array_equal(net.thetas(), th)
    net.set_thetas(th)
    assert np.array_equal(net.thetas(), th)
    th[1] += 1.0
    assert not np.array_equal(net.thetas(), th)


@pytest.mark.parametrize("graph", [generate_ba(20, 2, 1), generate_er(15, 0.3, 2)])
def test_has_edge_matches_edge_list(graph):
    edges = set(graph.edges)
    for i in range(graph.n):
        for j in range(graph.n):
            assert graph.has_edge(i, j) == ((min(i, j), max(i, j)) in edges)
    assert not graph.has_edge(-1, 0)
    assert not graph.has_edge(graph.n, 0)


@pytest.mark.parametrize("engine", ["stacked", "agents"])
def test_plan_built_and_audited_once_per_network(monkeypatch, engine):
    calls = {"build": 0, "audit": 0}
    build, audit = netsim.build_round_plan, netsim.audit_causality

    def counted_build(*args, **kwargs):
        calls["build"] += 1
        return build(*args, **kwargs)

    def counted_audit(*args, **kwargs):
        calls["audit"] += 1
        return audit(*args, **kwargs)

    monkeypatch.setattr(netsim, "build_round_plan", counted_build)
    monkeypatch.setattr(netsim, "audit_causality", counted_audit)
    net = _net()
    for seed in range(3):
        run_minibatch(net, _samples(net.n, 3, seed), "piggyback-do", engine=engine)
    assert calls == {"build": 1, "audit": 1}

    plan = build_round_plan(2, 3, 1, "piggyback-do")
    bad = RoundPlan(plan.strategy, plan.L, plan.B, plan.K, tuple(reversed(plan.schedule)))
    before = net.thetas()
    with pytest.raises(CausalityError):
        run_minibatch(net, _samples(net.n, 3), "piggyback-do", engine=engine, plan=bad)
    assert np.array_equal(net.thetas(), before)
    run_minibatch(net, _samples(net.n, 3), "piggyback-do", engine=engine, plan=plan)
    assert calls["audit"] == 3


@pytest.mark.parametrize("engine", ["stacked", "agents"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_ledger_same_with_trace_on_and_off(strategy, engine):
    samples = _samples(6, 3, seed=4)
    nets = [_net(kind=_kind(strategy), K=2) for _ in range(2)]
    results = [
        [run_minibatch(net, samples, strategy, engine=engine) for _ in range(2)] for net in nets
    ]
    off, on = nets
    assert off.ledger.snapshot() == on.ledger.snapshot()
    assert off.ledger.trace == on.ledger.trace
    sizes = [tr.per_node_scalars for tr in on.ledger.trace]
    assert on.ledger.snapshot() == (len(sizes), 6 * len(sizes), 6 * sum(sizes))
    assert [tr.index for tr in on.ledger.trace] == list(range(1, len(sizes) + 1))
    rounds = expected_rounds(strategy, 2, 3, 2)
    for res_off, res_on in zip(*results):
        assert res_off.ledger.snapshot() == res_on.ledger.snapshot()
        assert res_off.ledger.rounds == rounds == len(res_on.ledger.trace)


def test_agents_built_on_first_agents_run_and_dropped_by_set_topology(monkeypatch):
    built = []
    make = netsim.make_agents
    monkeypatch.setattr(netsim, "make_agents", lambda *a: built.append(1) or make(*a))
    net = _net(n=8)
    run_minibatch(net, _samples(8, 2), "piggyback-do", engine="stacked")
    assert not built
    for _ in range(2):
        run_minibatch(net, _samples(8, 2), "piggyback-do", engine="agents")
    assert len(built) == 1
    g = generate_ba(8, 2, 7)
    net.set_topology(g, build_shift(g))
    run_minibatch(net, _samples(8, 2), "piggyback-do", engine="agents")
    assert len(built) == 2


def _reference_centralized(config):
    """The centralized baseline on per-sample dense backpropagation."""
    graph, shift, dspec, teacher, train, test, specs, params0, redraw_seed = _setup(config)
    cfg = config.optimizer_config()
    moments = MomentState.zeros(params0.dim) if cfg.kind == "central-adam" else None
    redraw_rng = np.random.default_rng(redraw_seed)
    theta = params0.flatten()
    batches = config.n_train // config.batch
    total = config.epochs * batches
    test_mse = evaluate_mse(params0, shift, test)
    out = []
    step_shift = shift
    for _ in range(config.epochs):
        for bi in range(batches):
            if config.topology_mode == "redraw-per-batch":
                (_, step_shift), batch = _redraw(config, teacher, dspec, redraw_rng)
            else:
                batch = train[bi * config.batch : (bi + 1) * config.batch]
            params = ParamSet.from_flat(specs, theta)
            grad = sum(central_gradient(params, step_shift, s.X, s.y) for s in batch)
            train_mse = np.mean([mse_loss(s.y, forward(params, step_shift, s.X)[0]) for s in batch])
            theta = central_update(theta, grad, cfg, moments, config.alpha * config.decay ** len(out))
            if (len(out) + 1) % config.eval_every == 0 or len(out) + 1 == total:
                test_mse = evaluate_mse(ParamSet.from_flat(specs, theta), shift, test)
            out.append((train_mse, test_mse, theta))
    return out


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("topology_mode", ["fixed", "redraw-per-batch"])
@pytest.mark.parametrize("optimizer", ["central-sgd", "central-adam"])
def test_train_centralized_matches_dense_reference(optimizer, topology_mode):
    config = RunConfig(
        graph="ba", n=10, m=2, n_train=12, n_test=6, batch=4, epochs=3, hidden=4,
        alpha=2e-2, decay=0.9, optimizer=optimizer, eval_every=2, seed=11,
        topology_mode=topology_mode,
    )
    thetas = {}
    result = train_centralized(config, on_update=lambda t, theta: thetas.__setitem__(t, theta.copy()))
    reference = _reference_centralized(config)
    assert len(result.log.records) == len(reference) == len(thetas) == 9
    for record, (train_mse, test_mse, theta) in zip(result.log.records, reference):
        assert _rel(record.train_mse, train_mse) <= 1e-12
        assert _rel(record.test_mse, test_mse) <= 1e-12
        assert _rel(thetas[record.t], theta) <= 1e-12
    assert _rel(result.theta_star.flatten(), reference[-1][2]) <= 1e-12
