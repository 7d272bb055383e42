"""The trace is a view of the billed plans.

A traced ledger bills a whole plan in one step and keeps one run per stretch
of repeated bills, so its trace reads exactly as if every round had been
billed on its own, and a long traced run holds no per-round objects.
"""
import tracemalloc

import numpy as np

from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import CommLedger, Network, PlanCost, build_round_plan, run_minibatch
from fdgnn.optim import OptimizerConfig

SPECS = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1, "identity"))
WIDTHS, DIM = [2, 3, 1], 2 * 2 * 3 + 2 * 3 * 1


def test_runs_of_plans_read_as_rounds_billed_one_at_a_time():
    plan_a = PlanCost.of(build_round_plan(2, 3, 1, "piggyback-do"), WIDTHS, DIM)
    plan_b = PlanCost.of(build_round_plan(2, 2, 2, "per-batch-consensus"), WIDTHS, DIM)
    one_round = ((("degree",), 7),)
    n = 5
    traced, untraced = CommLedger(trace_enabled=True), CommLedger()
    reference = CommLedger(trace_enabled=True)
    for ledger in (traced, untraced):
        ledger.add_plan(n, plan_a)
        ledger.add_plan(n, plan_a)
        ledger.add_round(n, 7, ["degree"])
        ledger.add_plan(n, plan_b)
        ledger.add_plan(n, plan_a)
    for rows in (plan_a.rows, plan_a.rows, one_round, plan_b.rows, plan_a.rows):
        for kinds, size in rows:
            reference.add_round(n, size, kinds)

    rounds_a = len(plan_a.rows)
    assert traced.snapshot() == untraced.snapshot() == reference.snapshot()
    assert traced.rounds == 3 * rounds_a + 1 + len(plan_b.rows)
    assert len(traced.trace) == len(reference.trace) == traced.rounds
    assert traced.trace == reference.trace
    assert [t.index for t in traced.trace] == list(range(1, traced.rounds + 1))
    assert traced.trace[-1] == reference.trace[-1]
    across = slice(rounds_a - 2, 2 * rounds_a + 3)  # A's second bill, the single round, B's first two rounds
    assert traced.trace[across] == reference.trace[across]
    assert traced.trace[2 * rounds_a].kinds == ("degree",)
    assert list(traced.iter_trace()) == reference.trace
    assert len(untraced.trace) == 0


def test_traced_memory_does_not_grow_with_updates():
    g = generate_ba(6, 2, 0)
    net = Network(
        g, build_shift(g), metropolis_weights(g), init_params(SPECS, "glorot", 0),
        OptimizerConfig("d-amsgrad", alpha=1e-3), track_trace=True,
    )
    rng = np.random.default_rng(0)
    samples = [Sample(rng.normal(size=(g.n, 2)), rng.normal(size=g.n)) for _ in range(50)]
    run_minibatch(net, samples, "piggyback-do")  # builds and caches the plan
    per_update = net.ledger.rounds
    assert per_update >= 100
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            run_minibatch(net, samples, "piggyback-do")
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, f"traced ledger grew {grown} bytes over 300 updates"
    assert len(net.ledger.trace) == net.ledger.rounds == 301 * per_update
