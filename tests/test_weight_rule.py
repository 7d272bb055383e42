"""One weight rule: the network's W and every agent's `w_row` are the
Metropolis weights of the current topology, in the dense and the CSR form."""
import numpy as np
import pytest

from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import Network
from fdgnn.optim import OptimizerConfig

SPECS = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1, "identity"))
NODES = {"dense": 12, "csr": 100}  # BA graphs of these sizes store dense and CSR operators


def _same_matrix(got, ref):
    if isinstance(ref, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, ref)
    return not isinstance(got, np.ndarray) and all(
        np.array_equal(getattr(got, k), getattr(ref, k)) for k in ("indptr", "indices", "data")
    )


def _assert_one_rule(net):
    ref = metropolis_weights(net.graph)
    assert _same_matrix(net.weights.matrix, ref.matrix)
    W = ref.W
    for agent in net.agents:
        i, row = agent.node_id, agent.w_row()
        assert sorted(row) == sorted((i, *net.graph.neighbors(i)))
        assert all(w == W[i, j] for j, w in row.items() if j != i)
        assert abs(row[i] - W[i, i]) <= 1e-15


@pytest.mark.parametrize("form", sorted(NODES))
def test_network_and_agents_apply_one_weight_rule(form):
    g = generate_ba(NODES[form], 2, 0)
    net = Network(g, build_shift(g), init_params(SPECS, "glorot", 0), OptimizerConfig("d-sgd"))
    assert isinstance(net.weights.matrix, np.ndarray) == (form == "dense")
    _assert_one_rule(net)
    h = generate_ba(NODES[form], 1, 3)
    net.set_topology(h, build_shift(h))
    assert net.graph is h
    _assert_one_rule(net)
