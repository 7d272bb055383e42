"""One delivery table for the causality audit and the message-level engine.

Every plan that `audit_causality` accepts must run on the agents engine with
the same gradients and predictions as the built plan; every other plan must
be rejected with `CausalityError` before anything runs.
"""
import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba
from fdgnn.netsim import (
    STRATEGIES,
    UPDATE,
    CausalityError,
    Network,
    Payload,
    RoundPlan,
    audit_causality,
    build_round_plan,
    delivery,
    run_minibatch,
)
from fdgnn.optim import OptimizerConfig
from fdgnn.trainer import RunConfig, train_centralized, train_distributed

N = 5
CONSENSUS = ("naive-per-sample", "per-batch-consensus", "piggyback-consensus")


def _specs(L):
    widths = [2] + [3] * (L - 1) + [1]
    return tuple(
        LayerSpec(widths[k], widths[k + 1], "identity" if k == L - 1 else "leaky-relu")
        for k in range(L)
    )


def _net(strategy, L, K):
    g = generate_ba(N, 2, 1)
    kind = "d-naive" if strategy in CONSENSUS else "d-sgd"
    return Network(
        g, build_shift(g), init_params(_specs(L), "glorot", 2),
        OptimizerConfig(kind, alpha=1e-2, K=K),
    )


def _samples(B, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(N, 2)), rng.normal(size=N)) for _ in range(B)]


@lru_cache(maxsize=None)
def _reference(strategy, L, B, K):
    res = run_minibatch(_net(strategy, L, K), _samples(B), strategy, engine="agents")
    return res.grads, res.yhat


def _with_schedule(plan, schedule):
    return RoundPlan(plan.strategy, plan.L, plan.B, plan.K, tuple(schedule))


def _mutate(data, schedule):
    """One random swap, duplicate, delete, move or field change of a schedule."""
    s = [tuple(items) for items in schedule]
    if not s:
        return s
    op = data.draw(st.sampled_from(("swap", "duplicate", "delete", "move", "retarget")))
    i = data.draw(st.integers(0, len(s) - 1))
    if op == "swap":
        j = data.draw(st.integers(0, len(s) - 1))
        s[i], s[j] = s[j], s[i]
    elif op == "duplicate":
        s.insert(data.draw(st.integers(0, len(s))), s[i])
    elif op == "delete":
        del s[i]
    else:
        items = list(s[i])
        k = data.draw(st.integers(0, len(items) - 1))
        p = items.pop(k)
        if op == "retarget":
            fields = [f for f in ("sample", "layer", "k", "chunk") if getattr(p, f) is not None]
            if fields:
                f = data.draw(st.sampled_from(fields))
                p = dataclasses.replace(p, **{f: getattr(p, f) + data.draw(st.sampled_from((-1, 1)))})
            items.insert(k, p)
            s[i] = tuple(items)
        else:
            if items:
                s[i] = tuple(items)
            else:
                del s[i]
            j = data.draw(st.integers(0, len(s)))
            if j < len(s) and data.draw(st.booleans()):
                s[j] = s[j] + (p,)
            else:
                s.insert(j, (p,))
    return s


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.sampled_from(STRATEGIES), st.data()
)
def test_audited_mutants_run_exactly_like_the_built_plan(L, B, K, strategy, data):
    plan = build_round_plan(L, B, K, strategy)
    schedule = plan.schedule
    for _ in range(data.draw(st.integers(1, 2))):
        schedule = _mutate(data, schedule)
    mutant = _with_schedule(plan, schedule)
    try:
        audit_causality(mutant)
    except CausalityError:
        return
    res = run_minibatch(_net(strategy, L, K), _samples(B), strategy, engine="agents", plan=mutant)
    grads, yhat = _reference(strategy, L, B, K)
    assert np.max(np.abs(res.grads - grads)) <= 1e-12
    assert np.max(np.abs(res.yhat - yhat)) <= 1e-12


def test_delivery_keys_and_needs():
    plan = build_round_plan(3, 2, 2, "naive-per-sample")
    assert delivery(Payload("fwd", sample=2, layer=1), plan) == (
        ("fwd", 2, 1), None, (("fwd", 1, 3),),
    )
    assert delivery(Payload("fwd", sample=2, layer=3), plan) == (
        ("fwd", 2, 3), ("fwd", 2, 2), (("fwd", 2, 2), ("adjoint", 1, 2)),
    )
    assert delivery(Payload("adjoint", sample=2, layer=3), plan) == (
        ("adjoint", 2, 3), ("fwd", 2, 3), (("fwd", 2, 3),),
    )
    assert delivery(Payload("grad-consensus", sample=1, k=1), plan) == (
        ("grad-consensus", 1, 1), None, (("adjoint", 1, 2),),
    )
    assert delivery(UPDATE, plan)[2] == (("grad-consensus", 1, 2), ("grad-consensus", 2, 2))
    do = build_round_plan(1, 2, 1, "piggyback-do")
    assert delivery(UPDATE, do)[2] == (
        ("fwd", 1, 1), ("fwd", 2, 1), ("chunk", 0), ("chunk", 1), ("degree", None),
    )
    with pytest.raises(CausalityError):
        delivery(Payload("gossip"), do)


@pytest.mark.parametrize("engine", ["agents", "stacked"])
def test_dropping_the_trailing_adjoint_round_is_rejected(engine):
    plan = build_round_plan(2, 3, 1, "piggyback-do")
    bad = _with_schedule(plan, plan.schedule[:-1])
    with pytest.raises(CausalityError, match="never consumed|before"):
        audit_causality(bad)
    net = _net("piggyback-do", 2, 1)
    before = net.thetas()
    with pytest.raises(CausalityError):
        run_minibatch(net, _samples(3), "piggyback-do", engine=engine, plan=bad)
    assert np.array_equal(net.thetas(), before)
    assert net.ledger.snapshot() == (0, 0, 0)


@pytest.mark.parametrize("payload", [
    Payload("grad-consensus", k=1),
    Payload("chunk", chunk=0),
    Payload("degree"),
])
def test_duplicate_payloads_are_rejected(payload):
    strategy = "piggyback-do" if payload.kind != "grad-consensus" else "per-batch-consensus"
    plan = build_round_plan(2, 2, 2, strategy)
    bad = _with_schedule(plan, plan.schedule + ((payload,),))
    with pytest.raises(CausalityError, match="duplicate"):
        audit_causality(bad)


def test_forward_passes_run_one_at_a_time_in_order():
    plan = build_round_plan(2, 2, 1, "fwd-only")
    f11, f12, f21, f22 = plan.schedule
    with pytest.raises(CausalityError, match=r"\('fwd', 2, 1\) before \('fwd', 1, 2\)"):
        audit_causality(_with_schedule(plan, (f11, f21, f12, f22)))


def test_one_backward_pass_in_flight():
    plan = build_round_plan(3, 2, 1, "per-batch-consensus")
    s = plan.schedule  # f11 f12 f13 a13 a12 | f21 f22 f23 a23 a22 | c1
    interleaved = s[:4] + s[5:8] + s[4:5] + s[8:]
    with pytest.raises(CausalityError, match=r"\('fwd', 2, 3\) before \('adjoint', 1, 2\)"):
        audit_causality(_with_schedule(plan, interleaved))


@pytest.mark.parametrize("extra", [
    Payload("grad-consensus", k=3),
    Payload("grad-consensus", sample=1, k=1),
    Payload("chunk", chunk=0),
    Payload("fwd", sample=0, layer=1),
])
def test_payloads_nothing_consumes_are_rejected(extra):
    plan = build_round_plan(2, 2, 2, "piggyback-consensus")
    with pytest.raises(CausalityError, match="never consumed"):
        audit_causality(_with_schedule(plan, plan.schedule + ((extra,),)))


def test_update_needs_the_last_consensus_round():
    plan = build_round_plan(2, 2, 2, "piggyback-consensus")
    with pytest.raises(CausalityError, match=r"\('update', None\) before"):
        audit_causality(_with_schedule(plan, plan.schedule[:-1]))


def test_agents_hold_views_of_the_mixed_parameters():
    net = _net("piggyback-do", 2, 1)
    run_minibatch(net, _samples(3), "piggyback-do", engine="agents")
    base = net.agents[0].params.theta0[0].base
    assert base.shape == (N, net.dim)
    for i, agent in enumerate(net.agents):
        for t in agent.params.theta0 + agent.params.theta1:
            assert t.base is base
        assert np.array_equal(agent.params.flatten(), base[i])


def test_network_and_batch_ledgers_billed_alike():
    net = _net("piggyback-do", 2, 1)
    results = [run_minibatch(net, _samples(3, seed), "piggyback-do") for seed in range(2)]
    rounds = results[0].ledger.rounds
    assert net.ledger.snapshot() == tuple(2 * x for x in results[0].ledger.snapshot())
    assert [tr.index for tr in net.ledger.trace] == list(range(1, 2 * rounds + 1))
    for k, res in enumerate(results):
        got = net.ledger.trace[k * rounds:(k + 1) * rounds]
        assert [(t.kinds, t.per_node_scalars) for t in got] == [
            (t.kinds, t.per_node_scalars) for t in res.ledger.trace
        ]


def test_train_result_node_params_is_the_parameter_array():
    cfg = dict(n=8, n_train=16, n_test=8, batch=8, epochs=1, eval_every=1)
    dist = train_distributed(RunConfig(optimizer="d-sgd", **cfg))
    assert dist.node_params.shape == (8, dist.theta_star.dim)
    assert np.array_equal(dist.node_params.mean(axis=0), dist.theta_star.flatten())
    central = train_centralized(RunConfig(optimizer="central-sgd", **cfg))
    assert central.node_params.shape == (1, central.theta_star.dim)
    assert np.array_equal(central.node_params[0], central.theta_star.flatten())
