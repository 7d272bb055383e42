"""One case per input or protocol check that no other test reaches: each
call must raise at the check its id names, with that check's message."""
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
    stack_flat_params,
    stacked_gradients,
)
from fdgnn.datagen import DatasetSpec, Sample, load_dataset, save_dataset
from fdgnn.gcnn import LayerSpec, ParamSet, central_gradient, init_params
from fdgnn.graphs import Graph, build_shift, generate_ba
from fdgnn.netsim import Network, build_round_plan, run_minibatch
from fdgnn.optim import (
    MomentState,
    OptimizerConfig,
    central_update,
    consensus_round,
    damsgrad_update,
    dnaive_update,
)
from fdgnn.trainer import RunConfig

SPECS = (LayerSpec(2, 3, "leaky-relu"), LayerSpec(3, 1))
PARAMS = init_params(SPECS, "glorot", 0)
GRAPH = generate_ba(6, 2, 0)
SHIFT = build_shift(GRAPH)
STACKS = stack_flat_params(SPECS, np.tile(PARAMS.flat, (GRAPH.n, 1)))


def _agent():
    """A lone node (no neighbours), so its layers need no messages."""
    return AgentState(0, PARAMS, {0: 0.5}, {})


def _started():
    agent = _agent()
    agent.begin_sample(0, np.ones(2))
    return agent


def _backward_ready():
    agent = _started()
    local_forward_layer(agent, 1, [])
    local_backward_init(agent, 0.0, local_forward_layer(agent, 2, []))
    return agent


def _net():
    return Network(GRAPH, SHIFT, PARAMS, OptimizerConfig("d-sgd"))


def _truncated_bundle(tmp_path):
    spec = DatasetSpec(n_samples=2)
    samples = [Sample(np.zeros((3, spec.g0)), np.zeros(3)) for _ in range(2)]
    save_dataset(samples, spec, 3, tmp_path)
    lines = (tmp_path / "features.csv").read_text().splitlines()
    (tmp_path / "features.csv").write_text("\n".join(lines[:-1]) + "\n")
    return load_dataset(tmp_path)


CASES = {
    # agents
    "agents-own-shift-entry": (
        lambda tmp: AgentState(0, PARAMS, {1: 0.5}, {}), ValueError, "must include the node's own entry"),
    "agents-feature-row": (lambda tmp: _agent().begin_sample(0, np.ones(3)), ValueError, r"feature row must be \(2,\)"),
    "agents-unexpected-payload": (
        lambda tmp: local_forward_layer(_started(), 1, [Message(1, 1, BwdAdjoint(0, np.ones(2)))]),
        ProtocolError, "unexpected payload BwdAdjoint"),
    "agents-payload-layer": (
        lambda tmp: local_forward_layer(_started(), 1, [Message(1, 1, FwdFeature(1, np.ones(2)))]),
        ProtocolError, "payload for layer 1, expected 0"),
    "agents-layer-range": (lambda tmp: local_forward_layer(_started(), 3, []), ValueError, r"layer 3 out of range 1\.\.2"),
    "agents-forward-before-begin": (
        lambda tmp: local_forward_layer(_agent(), 1, []), ProtocolError, "begin_sample must run before"),
    "agents-backward-before-forward": (
        lambda tmp: local_backward_init(_started(), 0.0, 0.0), ProtocolError, "forward pass must finish"),
    "agents-backward-order": (
        lambda tmp: local_backward_layer(_backward_ready(), 1, []), ProtocolError, "backward layer 1 out of order, expected 2"),
    "agents-top-backward-inbox": (
        lambda tmp: local_backward_layer(_backward_ready(), 2, [Message(1, 1, BwdAdjoint(3, np.ones(3)))]),
        ProtocolError, "top backward layer consumes no messages"),
    "agents-stacked-features": (
        lambda tmp: stacked_gradients(SPECS, *STACKS, SHIFT, np.ones((1, 6, 3)), None),
        ValueError, r"features must be \(B, 6, 2\)"),
    "agents-stacked-labels": (
        lambda tmp: stacked_gradients(SPECS, *STACKS, SHIFT, np.ones((1, 6, 2)), np.ones((1, 5))),
        ValueError, r"labels must be \(1, 6\)"),
    # netsim
    "netsim-plan-sizes": (lambda tmp: build_round_plan(0, 1, 1, "fwd-only"), ValueError, "need L >= 1 and B >= 1"),
    "netsim-redraw-node-set": (
        lambda tmp: _net().set_topology(generate_ba(7, 2, 0), SHIFT),
        ValueError, "must keep the node set"),
    "netsim-engine": (
        lambda tmp: run_minibatch(_net(), [Sample(np.ones((6, 2)), np.ones(6))], "piggyback-do", engine="gpu"),
        ValueError, "unknown engine 'gpu'"),
    # optim
    "optim-vhat-buffer": (
        lambda tmp: damsgrad_update(consensus_round(np.zeros((2, 3)), np.eye(2)), MomentState.zeros((2, 3)),
                                    np.eye(2), 0.1, np.zeros((2, 3)), OptimizerConfig("d-amsgrad")),
        ValueError, "must carry a vhat buffer"),
    "optim-dnaive-grads": (
        lambda tmp: dnaive_update(np.zeros((2, 3)), np.eye(2), 1, 0.1, np.zeros((2, 2, 3))),
        ValueError, r"d-naive needs \(n, dim\)"),
    "optim-central-kind": (
        lambda tmp: central_update(np.zeros(3), np.zeros(3), OptimizerConfig("d-sgd")),
        ValueError, "'d-sgd' is not a centralized kind"),
    "optim-adam-moments": (
        lambda tmp: central_update(np.zeros(3), np.zeros(3), OptimizerConfig("central-adam")),
        ValueError, "adam needs a MomentState"),
    # gcnn
    "gcnn-no-layers": (lambda tmp: ParamSet((), [], []), ValueError, "need at least one layer"),
    "gcnn-slope": (lambda tmp: LayerSpec(1, 1, "leaky-relu", slope=1.5), ValueError, r"slope must lie in \(0, 1\], got 1.5"),
    "gcnn-weight-pairs": (
        lambda tmp: ParamSet(SPECS, PARAMS.theta0, PARAMS.theta1[:1]), ValueError, "one weight pair required per layer"),
    "gcnn-weight-shape": (
        lambda tmp: ParamSet(SPECS, PARAMS.theta0, [PARAMS.theta1[0], np.zeros((1, 3))]),
        ValueError, r"weight shape \(1, 3\) != \(3, 1\)"),
    "gcnn-flat-length": (
        lambda tmp: ParamSet.from_flat(SPECS, np.zeros(PARAMS.dim + 1)), ValueError, r"flat vector length \(19,\)"),
    "gcnn-central-labels": (
        lambda tmp: central_gradient(PARAMS, SHIFT, np.ones((6, 2)), np.ones(5)), ValueError, r"labels must be \(6,\)"),
    # datagen
    "datagen-feature-width": (
        lambda tmp: DatasetSpec(2, feature_plan=(("one-hot", 1),)), ValueError, "bad width 1 for feature kind 'one-hot'"),
    "datagen-teacher-output": (
        lambda tmp: DatasetSpec(2, teacher_specs=(LayerSpec(10, 2),)), ValueError, "teacher must produce one output"),
    "datagen-bundle-features": (_truncated_bundle, ValueError, r"features shape \(5, 10\) does not match"),
    # graphs
    "graphs-empty": (lambda tmp: Graph(0, ()), ValueError, "graph needs at least one node"),
    # trainer
    "trainer-epochs": (lambda tmp: RunConfig(epochs=0).validate(), ValueError, "epochs and eval_every must be >= 1"),
    "trainer-redraw-file": (
        lambda tmp: RunConfig(graph="file", graph_file="g.txt", topology_mode="redraw-per-batch").validate(),
        ValueError, "cannot redraw topology for a fixed graph file"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects(case, tmp_path):
    call, error, message = CASES[case]
    with pytest.raises(error, match=message):
        call(tmp_path)
