import numpy as np
import pytest

from fdgnn import netsim
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import (
    STRATEGIES,
    CausalityError,
    Network,
    RoundPlan,
    audit_causality,
    build_round_plan,
    chunk_sizes,
    cost_table,
    expected_rounds,
    ledger_report,
    run_minibatch,
    write_ledger_csv,
    write_trace_csv,
)
from fdgnn.optim import OptimizerConfig

from conftest import complete_graph


def _specs(g0=2, hidden=3, layers=2):
    widths = [g0] + [hidden] * (layers - 1) + [1]
    return tuple(
        LayerSpec(widths[k], widths[k + 1], "identity" if k == layers - 1 else "leaky-relu")
        for k in range(layers)
    )


def _net(kind="d-sgd", n=4, specs=None, seed=0, K=1, track_trace=False, alpha=1e-3):
    specs = specs or _specs()
    g = complete_graph(n)
    shift = build_shift(g, "normalized-adjacency")
    W = metropolis_weights(g)
    params = init_params(specs, "glorot", seed)
    cfg = OptimizerConfig(kind, alpha=alpha, K=K)
    return Network(g, shift, W, params, cfg, track_trace=track_trace)


def _samples(n, g0, B, seed=0):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(n, g0)), rng.normal(size=n)) for _ in range(B)]


def test_round_counts_match_formulas_sampled():
    for L in (1, 2, 3):
        for B in (1, 4, 7):
            for K in (1, 3):
                for strategy in STRATEGIES:
                    plan = build_round_plan(L, B, K, strategy)
                    assert plan.rounds == expected_rounds(strategy, L, B, K)


def test_piggyback_do_structure_l2_b3():
    plan = build_round_plan(2, 3, 1, "piggyback-do")
    assert plan.rounds == 7
    adjoint_rounds = [
        r for r, items in enumerate(plan.schedule, 1)
        if any(p.kind == "adjoint" for p in items)
    ]
    assert adjoint_rounds == [3, 5, 7]
    # the trailing round is backward-only
    assert all(p.kind == "adjoint" for p in plan.schedule[-1])
    audit_causality(plan)


def test_piggyback_single_layer_has_no_adjoints():
    plan = build_round_plan(1, 5, 1, "piggyback-consensus")
    kinds = {p.kind for items in plan.schedule for p in items}
    assert "adjoint" not in kinds
    assert plan.rounds == 5 + 0 + 1


def test_consensus_strategies_reject_k_zero():
    for strategy in ("naive-per-sample", "per-batch-consensus", "piggyback-consensus"):
        with pytest.raises(ValueError):
            build_round_plan(2, 3, 0, strategy)
    # piggyback-do carries its parameters in chunks, K is irrelevant
    build_round_plan(2, 3, 0, "piggyback-do")


def test_audit_rejects_scrambled_plan():
    plan = build_round_plan(2, 2, 1, "piggyback-do")
    bad = RoundPlan(plan.strategy, plan.L, plan.B, plan.K, tuple(reversed(plan.schedule)))
    with pytest.raises(CausalityError):
        audit_causality(bad)


def test_audit_rejects_premature_consensus():
    fwd = build_round_plan(1, 1, 1, "fwd-only").schedule[0]
    from fdgnn.netsim import Payload

    bad = RoundPlan(
        "per-batch-consensus",
        1,
        1,
        1,
        (
            (Payload("grad-consensus", k=1),),
            fwd,
        ),
    )
    with pytest.raises(CausalityError):
        audit_causality(bad)


def test_chunk_sizes_partition_evenly():
    sizes = chunk_sizes(18, 6)
    assert sizes == [3] * 6
    sizes = chunk_sizes(20, 6)
    assert sum(sizes) == 20
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) == int(np.ceil(20 / 6))


def test_grad_accums_identical_across_strategies():
    specs = _specs()
    samples = _samples(4, 2, 3, seed=5)
    grads = {}
    for strategy in STRATEGIES:
        kind = "d-naive" if "consensus" in strategy or strategy == "naive-per-sample" else "d-sgd"
        net = _net(kind=kind, specs=specs, seed=2)
        res = run_minibatch(net, samples, strategy, engine="agents")
        grads[strategy] = res.grads
    base = grads["piggyback-do"]
    for strategy in STRATEGIES:
        if strategy == "fwd-only":
            assert not grads[strategy].any()
        else:
            assert np.max(np.abs(grads[strategy] - base)) < 1e-12


def test_naive_and_piggyback_do_coincide_with_exact_consensus():
    # complete graph: one consensus round is exact, so the per-sample naive
    # schedule and the piggybacked schedule see identical gradients
    specs = _specs()
    samples = _samples(4, 2, 4, seed=6)
    net_naive = _net(kind="d-naive", specs=specs, seed=3)
    net_pb = _net(kind="d-sgd", specs=specs, seed=3)
    res_naive = run_minibatch(net_naive, samples, "naive-per-sample", engine="agents")
    res_pb = run_minibatch(net_pb, samples, "piggyback-do", engine="agents")
    assert np.max(np.abs(res_naive.grads - res_pb.grads)) < 1e-12


def test_protocol_consensus_matches_matrix_arithmetic():
    from fdgnn.optim import run_consensus

    specs = _specs()
    samples = _samples(4, 2, 3, seed=8)
    net = _net(kind="d-naive", specs=specs, seed=4, K=2)
    res = run_minibatch(net, samples, "per-batch-consensus", engine="agents")
    expected = run_consensus(res.grads, net.weights.W, 2)
    assert np.max(np.abs(res.protocol_consensus - expected)) < 1e-12


def test_fwd_only_scalar_accounting():
    # two nodes, one scalar feature, one layer, two samples: 2 rounds of 2
    # broadcasts of 1 scalar each
    specs = (LayerSpec(1, 1, "identity"),)
    net = _net(kind="d-sgd", n=2, specs=specs)
    samples = _samples(2, 1, 2, seed=9)
    res = run_minibatch(net, samples, "fwd-only", engine="agents")
    assert res.ledger.snapshot() == (2, 4, 4)


def test_piggyback_do_round_sizes():
    specs = _specs(g0=2, hidden=3, layers=2)  # widths 2,3,1 -> dim 18
    net = _net(kind="d-sgd", specs=specs, seed=1, track_trace=True)
    samples = _samples(4, 2, 3, seed=10)
    res = run_minibatch(net, samples, "piggyback-do", engine="agents")
    trace = res.ledger.trace
    dim, LB = 18, 6
    chunk = chunk_sizes(dim, LB)[0]
    # round 1: raw features + first chunk + degree scalar
    assert trace[0].per_node_scalars == 2 + chunk + 1
    # round 3: features + piggybacked top-layer adjoint (width 3) + chunk
    assert trace[2].per_node_scalars == 2 + 3 + chunk
    # trailing round: adjoint only
    assert trace[-1].per_node_scalars == 3
    assert sum(t.per_node_scalars for t in trace if "chunk" in t.kinds) >= dim


def test_engines_agree_on_results_and_ledger():
    specs = _specs()
    samples = _samples(4, 2, 4, seed=11)
    for strategy, kind in (
        ("piggyback-do", "d-amsgrad"),
        ("naive-per-sample", "d-naive"),
        ("per-batch-consensus", "d-naive"),
    ):
        net_a = _net(kind=kind, specs=specs, seed=5)
        net_s = _net(kind=kind, specs=specs, seed=5)
        res_a = run_minibatch(net_a, samples, strategy, engine="agents")
        res_s = run_minibatch(net_s, samples, strategy, engine="stacked")
        assert np.max(np.abs(res_a.grads - res_s.grads)) < 1e-12
        assert np.max(np.abs(net_a.thetas() - net_s.thetas())) < 1e-12
        assert res_a.ledger.snapshot() == res_s.ledger.snapshot()


def test_ledger_deterministic_across_runs():
    specs = _specs()
    samples = _samples(4, 2, 3, seed=12)
    snaps = []
    traces = []
    for _ in range(2):
        net = _net(kind="d-sgd", specs=specs, seed=6, track_trace=True)
        res = run_minibatch(net, samples, "piggyback-do", engine="agents")
        snaps.append(res.ledger.snapshot())
        traces.append([(t.index, t.kinds, t.per_node_scalars) for t in res.ledger.trace])
    assert snaps[0] == snaps[1]
    assert traces[0] == traces[1]


def test_run_minibatch_rejects_custom_causal_violation():
    specs = _specs()
    samples = _samples(4, 2, 2, seed=13)
    net = _net(kind="d-sgd", specs=specs)
    plan = build_round_plan(2, 2, 1, "piggyback-do")
    bad = RoundPlan(plan.strategy, plan.L, plan.B, plan.K, tuple(reversed(plan.schedule)))
    with pytest.raises(CausalityError):
        run_minibatch(net, samples, "piggyback-do", plan=bad, engine="agents")


def test_run_minibatch_rejects_bad_sample_shapes():
    net = _net(kind="d-sgd")
    bad = [Sample(np.zeros((3, 2)), np.zeros(3))]
    with pytest.raises(ValueError):
        run_minibatch(net, bad, "piggyback-do")
    with pytest.raises(ValueError):
        run_minibatch(net, [], "piggyback-do")


def test_run_minibatch_enforces_strategy_optimizer_pairing():
    samples = _samples(4, 2, 2, seed=14)
    with pytest.raises(ValueError):
        run_minibatch(_net(kind="d-sgd"), samples, "naive-per-sample")
    with pytest.raises(ValueError):
        run_minibatch(_net(kind="d-naive"), samples, "piggyback-do")
    # fwd-only accepts any optimizer and applies no update
    net = _net(kind="d-naive")
    before = net.thetas()
    run_minibatch(net, samples, "fwd-only")
    assert np.array_equal(net.thetas(), before)


def test_consensus_gap_and_mean_params():
    net = _net(kind="d-sgd")
    assert net.consensus_gap() == 0.0
    th = net.thetas()
    th[0] += 1.0
    net.set_thetas(th)
    assert net.consensus_gap() > 0.0
    assert np.allclose(net.mean_params().flatten(), th.mean(axis=0))


def test_cost_table_formula_vs_measured():
    rows = cost_table(2, 5, 2)
    assert len(rows) == 5
    for row in rows:
        assert row["rounds"] == row["expected_rounds"]


def test_cost_table_bills_the_plan_without_simulating(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("cost_table must not simulate a mini-batch")

    monkeypatch.setattr(netsim, "Network", no_simulation)
    monkeypatch.setattr(netsim, "run_minibatch", no_simulation)
    rows = cost_table(2, 5, 2)
    got = [(r["strategy"], r["rounds"], r["broadcasts"], r["scalars"]) for r in rows]
    assert got == [
        ("fwd-only", 10, 40, 40),
        ("naive-per-sample", 25, 100, 220),
        ("per-batch-consensus", 17, 68, 92),
        ("piggyback-consensus", 13, 52, 92),
        ("piggyback-do", 11, 44, 80),
    ]
    assert all((r["L"], r["B"], r["K"]) == (2, 5, 2) for r in rows)
    assert all(r["rounds"] == r["expected_rounds"] for r in rows)


def test_ledger_report_and_csv(tmp_path):
    rows = cost_table(2, 3, 1)
    path = tmp_path / "ledger.csv"
    write_ledger_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "strategy,L,B,K,rounds,broadcasts,scalars"
    assert len(lines) == 6


def test_trace_csv(tmp_path):
    specs = _specs()
    net = _net(kind="d-sgd", specs=specs, track_trace=True)
    res = run_minibatch(net, _samples(4, 2, 2, seed=15), "piggyback-do", engine="agents")
    path = tmp_path / "trace.csv"
    write_trace_csv(path, res.ledger)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,kinds,per_node_scalars"
    assert len(lines) == res.ledger.rounds + 1
