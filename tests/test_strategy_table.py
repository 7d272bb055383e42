"""One record per scheduling strategy, and the checks that sit around it.

`netsim.STRATEGY` holds each strategy's traits; the plan builder, the
delivery table, `run_minibatch` and the run configuration read them. These
tests tie the traits to the built plans and cover the configuration and plan
errors that must be rejected before anything runs.
"""
import tracemalloc

import numpy as np
import pytest

from fdgnn.agents import make_agents
from fdgnn.cli import main
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import (
    STRATEGIES,
    STRATEGY,
    CausalityError,
    Network,
    Payload,
    RoundPlan,
    audit_causality,
    build_round_plan,
    check_pairing,
    run_minibatch,
)
from fdgnn.optim import DIST_KINDS, DistOptimizer, OptimizerConfig, dnaive_update
from fdgnn.trainer import RunConfig

N = 5


def _net(kind, K=1, L=2):
    g = generate_ba(N, 2, 1)
    widths = [2] + [3] * (L - 1) + [1]
    specs = tuple(LayerSpec(widths[k], widths[k + 1], "leaky-relu") for k in range(L))
    return Network(
        g, build_shift(g), metropolis_weights(g), init_params(specs, "glorot", 2),
        OptimizerConfig(kind, alpha=1e-2, K=K),
    )


def _samples(B, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(N, 2)), rng.normal(size=N)) for _ in range(B)]


def test_strategies_keep_their_order():
    assert STRATEGIES == tuple(STRATEGY) == (
        "fwd-only",
        "naive-per-sample",
        "per-batch-consensus",
        "piggyback-consensus",
        "piggyback-do",
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("L,B,K", [(1, 1, 1), (2, 3, 2), (3, 2, 3)])
def test_traits_describe_the_built_plan(strategy, L, B, K):
    st = STRATEGY[strategy]
    plan = build_round_plan(L, B, K, strategy)
    kinds = [p.kind for items in plan.schedule for p in items]
    assert plan.rounds == st.rounds(L, B, K)
    assert ("adjoint" in kinds) == (bool(st.kinds) and L > 1)
    assert ("chunk" in kinds) == st.chunked == ("degree" in kinds)
    consensus = [p for items in plan.schedule for p in items if p.kind == "grad-consensus"]
    assert len(consensus) == {None: 0, "per-sample": B * K, "per-batch": K}[st.consensus]
    assert all((p.sample is not None) == (st.consensus == "per-sample") for p in consensus)
    shared = any(len({p.kind for p in items} & {"fwd", "adjoint"}) == 2 for items in plan.schedule)
    assert shared == (st.pipelined and L > 1 and B > 1)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("kind", DIST_KINDS)
def test_pairing_follows_the_kinds(strategy, kind):
    kinds = STRATEGY[strategy].kinds
    if kinds and kind not in kinds:
        with pytest.raises(ValueError):
            check_pairing(strategy, kind)
    else:
        check_pairing(strategy, kind)


def test_dnaive_apply_is_dnaive_update():
    rng = np.random.default_rng(0)
    W = metropolis_weights(generate_ba(N, 2, 1)).W
    thetas, batch = rng.normal(size=(N, 4)), rng.normal(size=(N, 4))
    opt = DistOptimizer(OptimizerConfig("d-naive", K=2), N, 4)
    assert np.array_equal(
        opt.apply(thetas, thetas, W, batch, 0.1),
        dnaive_update(thetas, W, 2, 0.1, batch),
    )


@pytest.mark.parametrize("engine", ["agents", "stacked"])
def test_dnaive_strategies_change_only_the_schedule_and_the_bill(engine):
    nets = {s: _net("d-naive", K=2) for s in ("naive-per-sample", "per-batch-consensus")}
    for t in range(2):
        samples = _samples(3, seed=t)
        for strategy, net in nets.items():
            run_minibatch(net, samples, strategy, engine=engine)
    per_sample, per_batch = nets.values()
    assert np.array_equal(per_sample.theta, per_batch.theta)
    for strategy, net in nets.items():
        cost = net.plan_cost(strategy, 3)
        assert net.ledger.snapshot() == (2 * cost.plan.rounds, 2 * N * cost.plan.rounds, 2 * N * cost.scalars)
    assert per_sample.ledger.snapshot() != per_batch.ledger.snapshot()


def test_stacked_naive_per_sample_holds_no_per_sample_gradients():
    n, B = 60, 40
    g = generate_ba(n, 2, 0)
    specs = RunConfig().model_specs()
    rng = np.random.default_rng(0)
    samples = [Sample(rng.normal(size=(n, 10)), rng.normal(size=n)) for _ in range(B)]
    peaks = {}
    for strategy in ("naive-per-sample", "per-batch-consensus"):
        net = Network(g, build_shift(g), metropolis_weights(g), init_params(specs, "glorot", 0),
                      OptimizerConfig("d-naive", K=2))
        run_minibatch(net, samples, strategy)  # builds and audits the plan
        tracemalloc.start()
        try:
            run_minibatch(net, samples, strategy)
            peaks[strategy] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["naive-per-sample"] <= 1.1 * peaks["per-batch-consensus"]


@pytest.mark.parametrize("engine", ["agents", "stacked"])
def test_custom_plan_with_another_k_is_rejected_before_it_runs(engine):
    net = _net("d-naive", K=1)
    theta, ledger = net.thetas(), net.ledger.snapshot()
    plan = build_round_plan(2, 3, 3, "per-batch-consensus")
    with pytest.raises(ValueError, match="custom plan"):
        run_minibatch(net, _samples(3), "per-batch-consensus", engine=engine, plan=plan)
    assert np.array_equal(net.theta, theta)
    assert net.ledger.snapshot() == ledger and net.t == 0


@pytest.mark.parametrize(
    "strategy,payload",
    [
        ("fwd-only", Payload("fwd", layer=1)),
        ("fwd-only", Payload("fwd", sample=1)),
        ("naive-per-sample", Payload("adjoint", sample=1)),
        ("per-batch-consensus", Payload("grad-consensus")),
        ("piggyback-do", Payload("chunk")),
    ],
)
def test_payload_without_a_needed_field_is_a_causality_error(strategy, payload):
    plan = RoundPlan(strategy, 1, 1, 1, ((payload,),))
    with pytest.raises(CausalityError):
        audit_causality(plan)


def test_plan_of_an_unknown_strategy_is_a_causality_error():
    built = build_round_plan(2, 2, 1, "fwd-only")
    with pytest.raises(CausalityError, match="unknown strategy"):
        audit_causality(RoundPlan("fwd-and-back", 2, 2, 1, built.schedule))


def test_agents_hold_row_views_of_one_array():
    g = generate_ba(N, 2, 1)
    params = init_params((LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1)), "glorot", 2)
    agents = make_agents(g, build_shift(g), params)

    def root(a):
        while a.base is not None:
            a = a.base
        return a

    arrays = [t for a in agents for t in a.params.theta0 + a.params.theta1]
    assert len({id(root(t)) for t in arrays}) == 1
    for a in agents:
        assert np.array_equal(a.params.flatten(), params.flatten())


RUN = ["--n", "8", "--n-train", "8", "--batch", "4", "--epochs", "1"]


@pytest.mark.parametrize(
    "command,flags",
    [
        ("train", ["--K", "0"]),
        ("train", ["--hidden", "0"]),
        ("train", ["--teacher-hidden", "0"]),
        ("train", ["--lr", "-1"]),
        ("train", ["--lr-decay", "0"]),
        ("train", ["--noise-var", "-1"]),
        ("train", ["--n-test", "0"]),
        ("train", ["--n", "1"]),
        ("train", ["--graph", "er", "--n", "1"]),
        ("train", ["--graph", "er", "--p", "2"]),
        ("train", ["--shift", "foo"]),
        ("compare", ["--lr", "-1"]),
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--lr-decay", "nan"]),
        ("train", ["--lr-decay", "inf"]),
        ("train", ["--noise-var", "nan"]),
        ("train", ["--seed", "-1"]),
        ("train", ["--graph", "er", "--p", "0.01"]),
    ],
)
def test_bad_run_flags_exit_config_error(tmp_path, capsys, command, flags):
    assert main([command, *RUN, *flags, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
