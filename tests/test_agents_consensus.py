"""The agents engine's gradient consensus, pinned bitwise.

Each node averages with its own weights, adding its neighbours' terms in its
own sorted order, so the per-node loop below is the exact reference. And the
per-topology state the engine keeps must follow `set_topology`, and no later
mini-batch may write into a result the engine returned.
"""
import numpy as np
import pytest

from fdgnn import netsim
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, generate_er
from fdgnn.netsim import Network, run_minibatch
from fdgnn.optim import OptimizerConfig

SPECS = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1))
GRAPHS = {
    # m=1: a tree with hubs and degree-1 leaves.
    "ba-tree": lambda: generate_ba(24, 1, 5),
    "er": lambda: generate_er(20, 0.3, 2),
}


def _network(graph, K, seed=0):
    return Network(graph, build_shift(graph), init_params(SPECS, "glorot", seed), OptimizerConfig("d-naive", alpha=1e-3, K=K))


def _samples(n, B, seed):
    rng = np.random.default_rng(seed)
    return [Sample(rng.normal(size=(n, 2)), rng.normal(size=n)) for _ in range(B)]


def _per_node_consensus(agents, values, K):
    rows = [a.w_row() for a in agents]
    for _ in range(K):
        nxt = np.empty_like(values)
        for i, (agent, row) in enumerate(zip(agents, rows)):
            acc = row[i] * values[i]
            for j in agent.neighbor_ids:
                acc = acc + row[j] * values[j]
            nxt[i] = acc
        values = nxt
    return values


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_protocol_consensus_is_the_per_node_loop_bitwise(name, K):
    graph = GRAPHS[name]()
    degrees = [graph.degree(i) for i in range(graph.n)]
    if name == "ba-tree":
        assert min(degrees) == 1 and max(degrees) >= 4
    net = _network(graph, K)
    for t in range(2):
        res = run_minibatch(net, _samples(graph.n, 3, t), "per-batch-consensus", engine="agents")
        assert np.array_equal(res.protocol_consensus, _per_node_consensus(net.agents, res.grads, K))


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_per_sample_consensus_sums_each_samples_iterate_bitwise(monkeypatch, name, K):
    graph = GRAPHS[name]()
    gradients = []  # each node's per-sample gradient, in the order the engine reads them

    def spy(agent, _real=netsim.local_gradient):
        gradients.append(_real(agent))
        return gradients[-1]

    monkeypatch.setattr(netsim, "local_gradient", spy)
    net = _network(graph, K)
    for t in range(2):
        gradients.clear()
        res = run_minibatch(net, _samples(graph.n, 3, t), "naive-per-sample", engine="agents")
        ref = np.zeros_like(res.grads)
        for b in range(3):
            ref = ref + _per_node_consensus(net.agents, np.stack(gradients[b * graph.n : (b + 1) * graph.n]), K)
        assert res.protocol_consensus.tobytes() == ref.tobytes()


@pytest.mark.parametrize("strategy", ["naive-per-sample", "per-batch-consensus", "piggyback-consensus"])
def test_later_minibatches_leave_a_result_unchanged(strategy):
    a, b = generate_ba(16, 2, 0), generate_ba(16, 1, 7)
    net = _network(a, K=2)
    res = run_minibatch(net, _samples(16, 2, 0), strategy, engine="agents")
    kept = (res.grads.tobytes(), res.protocol_consensus.tobytes())
    run_minibatch(net, _samples(16, 2, 1), strategy, engine="agents")
    assert (res.grads.tobytes(), res.protocol_consensus.tobytes()) == kept
    net.set_topology(b, build_shift(b))
    run_minibatch(net, _samples(16, 2, 2), strategy, engine="agents")
    assert (res.grads.tobytes(), res.protocol_consensus.tobytes()) == kept


@pytest.mark.parametrize("strategy", ["naive-per-sample", "piggyback-consensus"])
def test_a_redrawn_network_matches_a_fresh_one(strategy):
    a, b = generate_ba(16, 2, 0), generate_ba(16, 1, 7)
    moved = _network(a, K=2)
    run_minibatch(moved, _samples(16, 2, 0), strategy, engine="agents")
    moved.set_topology(b, build_shift(b))
    fresh = _network(b, K=2)
    fresh.set_thetas(moved.theta)
    samples = _samples(16, 2, 1)
    got = run_minibatch(moved, samples, strategy, engine="agents")
    ref = run_minibatch(fresh, samples, strategy, engine="agents")
    for field in ("grads", "yhat", "protocol_consensus"):
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    assert np.array_equal(moved.theta, fresh.theta)
