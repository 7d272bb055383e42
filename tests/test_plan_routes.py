"""The message-level engine runs the routes its plan resolved when it was built.

`PlanCost.of` keeps every payload's `delivery` triple, the UPDATE pseudo-round
last, and a chunked plan's chunk bounds, so `delivery` and `chunk_sizes` run
only while a plan is built. Under per-sample consensus a sample's gradients
are held only until its first consensus round, and its K-th consensus iterate
is summed in the round that delivers it.
"""
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest

from fdgnn import netsim
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba
from fdgnn.netsim import (
    STRATEGIES,
    STRATEGY,
    UPDATE,
    CommLedger,
    Network,
    PlanCost,
    build_round_plan,
    chunk_sizes,
    delivery,
    run_minibatch,
)
from fdgnn.optim import OptimizerConfig

SPECS = (LayerSpec(2, 8, "leaky-relu"), LayerSpec(8, 1, "identity"))


def _net(strategy, K=2):
    g = generate_ba(6, 2, 0)
    kind = "d-naive" if STRATEGY[strategy].consensus else "d-sgd"
    return Network(g, build_shift(g), init_params(SPECS, "glorot", 0), OptimizerConfig(kind, alpha=1e-2, K=K))


def _samples(B, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(6, 2)), rng.normal(size=6)) for _ in range(B)]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_plan_cost_keeps_the_delivery_routes_and_chunk_bounds(strategy):
    plan = build_round_plan(2, 3, 2, strategy)
    cost = PlanCost.of(plan, [2, 8, 1], 48)
    assert cost.routes == tuple(
        tuple((p, *delivery(p, plan)) for p in items) for items in plan.schedule + ((UPDATE,),)
    )
    assert cost.offsets == (tuple(accumulate(chunk_sizes(48, 6), initial=0)) if STRATEGY[strategy].chunked else ())


def test_a_round_billed_without_a_plan_carries_no_routes():
    cost = PlanCost(None, ((("fwd",), 3),), 3)
    assert (cost.routes, cost.offsets) == ((), ())
    ledger = CommLedger()
    ledger.add_round(4, 3, ("fwd",))
    assert ledger.snapshot() == (1, 4, 12)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_agents_engine_resolves_routes_only_when_a_plan_is_built(monkeypatch, strategy):
    calls = {"delivery": 0, "chunk_sizes": 0}
    for name in calls:
        def counted(*args, _f=getattr(netsim, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(netsim, name, counted)
    net = _net(strategy)
    run_minibatch(net, _samples(3), strategy, engine="agents")
    built = dict(calls)
    assert built["delivery"] == sum(map(len, net.plan_cost(strategy, 3).plan.schedule)) + 1  # and UPDATE
    assert built["chunk_sizes"] == (1 if STRATEGY[strategy].chunked else 0)
    for seed in (1, 2):
        run_minibatch(net, _samples(3, seed), strategy, engine="agents")
    assert calls == built


def _peak(strategy, B):
    net = _net(strategy)
    samples = _samples(B)
    run_minibatch(net, samples, strategy, engine="agents")
    tracemalloc.start()
    try:
        run_minibatch(net, samples, strategy, engine="agents")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_per_sample_gradients_are_held_only_in_flight():
    # Per-sample consensus holds each sample's K-th iterate for the update: one
    # (n, dim) array per sample more than per-batch consensus, not two.
    iterate = 6 * init_params(SPECS, "glorot", 0).dim * 8
    growth = {s: (_peak(s, 240) - _peak(s, 40)) / 200 for s in ("naive-per-sample", "per-batch-consensus")}
    assert growth["naive-per-sample"] - growth["per-batch-consensus"] < 1.5 * iterate


def test_no_consensus_iterate_waits_for_the_update():
    # Each sample's K-th iterate joins one running sum as it is delivered, so
    # per-sample consensus holds no (n, dim) array per sample more than per-batch.
    iterate = 6 * init_params(SPECS, "glorot", 0).dim * 8
    growth = {s: (_peak(s, 240) - _peak(s, 40)) / 200 for s in ("naive-per-sample", "per-batch-consensus")}
    assert growth["naive-per-sample"] - growth["per-batch-consensus"] < 0.25 * iterate
