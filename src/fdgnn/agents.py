"""Per-node computation driven by neighbor messages.

Each agent owns one parameter copy plus forward caches, backward adjoints and
a gradient accumulator. All cross-node coupling goes through message values
handed over by the round scheduler; an agent never reads another agent's
state.

Protocol for one sample, with L layers:

* forward round l (l = 1..L): every node broadcasts its layer-(l-1) feature
  row; on delivery each node combines its own row with the weighted neighbor
  rows and applies layer l.
* backward: the top-layer adjoint needs no messages. The adjoint broadcast of
  layer l (l = L..2) lets neighbors recurse one layer down, so L-1 rounds of
  message passing complete the backward pass.

`stacked_gradients` executes the identical per-node arithmetic for all nodes
and a whole mini-batch at once; it is the fast path used by training runs and
is tested to agree with the message-level ops.
"""
from __future__ import annotations

import functools
import itertools
import operator
import os
from dataclasses import dataclass

import numpy as np

from .gcnn import ParamSet, activation_derivative, apply_activation, layer_views, num_params, param_slices
from .graphs import Graph, ShiftOperator, as_matrix, matmul_into, metropolis_row


class ProtocolError(RuntimeError):
    """A message-passing precondition was violated."""


@dataclass(frozen=True)
class FwdFeature:
    """A node's feature row after `layer` applications (layer 0 = raw input)."""

    layer: int
    values: np.ndarray


@dataclass(frozen=True)
class BwdAdjoint:
    """Neighborhood-weight adjoint product of the tagged layer (1-based)."""

    layer: int
    values: np.ndarray


@dataclass(frozen=True)
class ConsensusChunk:
    """A contiguous slice of a flat per-node vector being averaged."""

    offset: int
    values: np.ndarray


@dataclass(frozen=True)
class Degree:
    value: int


@dataclass(frozen=True)
class Message:
    sender: int
    round: int
    payload: object


class AgentState:
    """State exclusively owned by one node."""

    def __init__(self, node_id, params, shift_row, neighbor_degrees):
        self.node_id = int(node_id)
        self.params: ParamSet = params
        # shift_row holds S_ij for j in the closed neighborhood, self included
        # (possibly zero). Neighbors come from the topology, not the support.
        self.shift_row = dict(shift_row)
        if self.node_id not in self.shift_row:
            raise ValueError("shift_row must include the node's own entry")
        self.neighbor_ids = tuple(sorted(j for j in self.shift_row if j != self.node_id))
        # S_ii, and (j, S_ij) in the sorted-neighbour order every neighbour sum runs in.
        self.shift_self = self.shift_row[self.node_id]
        self.shift_nbrs = tuple((j, self.shift_row[j]) for j in self.neighbor_ids)
        self.neighbor_degrees = dict(neighbor_degrees)
        self.degree = len(self.neighbor_ids)
        self.grad_accum = np.zeros(params.dim)
        # Each layer's self weights, then its neighbourhood weights, in one slice.
        self._slices = [slice(sl0.start, sl1.stop) for sl0, sl1 in param_slices(params.specs)]
        self._fwd: dict[int, dict] = {}
        self._bwd: dict[int, dict] = {}
        self._grad: np.ndarray | None = None  # the latest backward pass's gradient
        self._fwd_sample: int | None = None
        self._bwd_sample: int | None = None

    @property
    def n_layers(self) -> int:
        return self.params.n_layers

    def w_row(self) -> dict[int, float]:
        """Own consensus weights, computed from local degree knowledge."""
        row = metropolis_row(self.degree, self.neighbor_degrees)
        row[self.node_id] = 1.0 - sum(row.values())
        return row

    def begin_sample(self, sample: int, x0: np.ndarray) -> None:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.params.specs[0].g_in,):
            raise ValueError(f"feature row must be ({self.params.specs[0].g_in},)")
        self._fwd[sample] = {"x": [x0.copy()], "h": {}, "a": {}}
        self._fwd_sample = sample

    def reset_accumulator(self) -> None:
        self.grad_accum[:] = 0.0
        self._fwd.clear()
        self._bwd.clear()
        self._fwd_sample = None
        self._bwd_sample = None
        self._grad = None


def _gather(state, inbox, payload_type, tag_layer, width):
    got = {}
    for msg in inbox:
        payload = msg.payload
        if not isinstance(payload, payload_type):
            raise ProtocolError(f"unexpected payload {type(payload).__name__}")
        if payload.layer != tag_layer:
            raise ProtocolError(f"payload for layer {payload.layer}, expected {tag_layer}")
        if payload.values.shape != (width,):
            raise ProtocolError(f"payload width {payload.values.shape} != ({width},)")
        got[msg.sender] = payload.values
    if len(got) < len(inbox):  # a sender repeated
        senders = [msg.sender for msg in inbox]
        raise ProtocolError(f"node {state.node_id} got two messages from {max(senders, key=senders.count)}")
    missing = [j for j in state.neighbor_ids if j not in got]
    if missing:
        raise ProtocolError(f"node {state.node_id} missing messages from {missing}")
    if len(got) > state.degree:  # every neighbour sent, and someone else too
        stranger = min(got.keys() - state.neighbor_ids)
        raise ProtocolError(f"node {state.node_id} got a message from non-neighbour {stranger}")
    return got


def local_forward_layer(state: AgentState, l: int, inbox):
    """Apply layer l from the node's own row plus received neighbor rows.

    Returns the new feature row to broadcast, or the scalar prediction after
    the last layer.
    """
    params = state.params
    L = len(params.specs)
    if not 1 <= l <= L:
        raise ValueError(f"layer {l} out of range 1..{L}")
    sample = state._fwd_sample
    if sample is None:
        raise ProtocolError("begin_sample must run before the forward pass")
    fw = state._fwd[sample]
    xs = fw["x"]
    if len(xs) != l:
        raise ProtocolError(f"forward layer {l} out of order")
    spec = params.specs[l - 1]
    x_prev = xs[l - 1]
    features = _gather(state, inbox, FwdFeature, l - 1, spec.g_in)
    agg = state.shift_self * x_prev
    for j, s in state.shift_nbrs:
        agg += s * features[j]
    h = x_prev @ params.theta0[l - 1] + agg @ params.theta1[l - 1]
    x_new = apply_activation(spec, h)
    fw["a"][l] = agg
    fw["h"][l] = h
    xs.append(x_new)
    if l < L:
        return FwdFeature(l, x_new.copy())
    return float(x_new[0])


def local_backward_init(state: AgentState, y_i: float, yhat_i: float) -> None:
    """Seed the backward recursion with the summed-loss residual adjoint."""
    sample = state._fwd_sample
    L = len(state.params.specs)
    if sample is None or len(state._fwd[sample]["x"]) != L + 1:
        raise ProtocolError("forward pass must finish before backward starts")
    state._bwd[sample] = {"z": np.array([2.0 * (yhat_i - y_i)]), "q": None, "layer": L}
    state._grad = np.zeros(state.grad_accum.size)
    state._bwd_sample = sample


def local_backward_layer(state: AgentState, l: int, inbox):
    """Run the backward step of layer l and emit its adjoint broadcast.

    For l = L the inbox is empty (the top adjoint is local). For l < L the
    inbox must hold every neighbor's layer-(l+1) adjoint product; each is
    scaled by the symmetric shift entry before entering the recursion. Layer
    partials are accumulated into the sample's gradient, which is added to
    grad_accum once the sample's backward pass ends. The returned adjoint
    (None for l = 1) is what neighbors need to recurse past layer l.
    """
    sample = state._bwd_sample
    if sample is None:
        raise ProtocolError("backward pass not initialized")
    st = state._bwd[sample]
    if st["layer"] != l:
        raise ProtocolError(f"backward layer {l} out of order, expected {st['layer']}")
    params = state.params
    specs = params.specs
    if l == len(specs):
        if inbox:
            raise ProtocolError("top backward layer consumes no messages")
        z = st["z"]
    else:
        adjoints = _gather(state, inbox, BwdAdjoint, l + 1, specs[l].g_in)
        q_up = st["q"]
        z = params.theta0[l] @ q_up + state.shift_self * (params.theta1[l] @ q_up)
        for j, s in state.shift_nbrs:
            z += s * adjoints[j]
    fw = state._fwd[sample]
    q = z * activation_derivative(specs[l - 1], fw["h"][l])
    # The outer products x q^T and a q^T, stacked as the layer's slice lays them out.
    xa = np.concatenate((fw["x"][l - 1], fw["a"][l]))
    state._grad[state._slices[l - 1]] += (xa[:, None] * q).ravel()
    st["q"] = q
    st["layer"] = l - 1
    if l >= 2:
        return BwdAdjoint(l, (params.theta1[l - 1] @ q).copy())
    state.grad_accum += state._grad
    del state._fwd[sample]
    del state._bwd[sample]
    if state._fwd_sample == sample:
        state._fwd_sample = None
    state._bwd_sample = None
    return None


def local_gradient(state: AgentState) -> np.ndarray:
    """Flat per-sample gradient of the summed loss w.r.t. this node's copy."""
    if state._grad is None or state._bwd_sample is not None:
        raise ProtocolError("no completed backward pass to read a gradient from")
    return state._grad.copy()


def make_agents(graph: Graph, shift: ShiftOperator, params: ParamSet) -> list[AgentState]:
    """One agent per node, each with its own shift row and its own parameter
    copy: weight views of its row of one (n, dim) array."""
    S = as_matrix(shift)
    flat = np.tile(params.flat, (graph.n, 1))
    ptr, nbrs, deg = graph.indptr.tolist(), graph.indices.tolist(), graph.degrees.tolist()
    closed = [sorted((i, *nbrs[ptr[i] : ptr[i + 1]])) for i in range(graph.n)]
    # One (row, column) gather of every closed neighbourhood reads a dense and a CSR matrix alike.
    values = S[np.repeat(np.arange(graph.n), graph.degrees + 1), np.concatenate(closed)].tolist()
    agents = []
    for i, cols in enumerate(closed):
        row = dict(zip(cols, values[ptr[i] + i : ptr[i + 1] + i + 1]))
        nbr_deg = {j: deg[j] for j in cols if j != i}
        own = ParamSet.from_flat(params.specs, flat[i])
        agents.append(AgentState(i, own, row, nbr_deg))
    return agents


SPLIT_MIN = 16_000  # the n*B from which a kernel call on a CSR S runs one block of node rows per core


def usable_cores() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _pool():
    """(pool, helpers): usable cores - 1 helper threads, each bound to one core but the one the first
    caller ran on (a scheduler that keeps a process's threads on one core would otherwise stack them
    there), and no pool when no other core is usable."""
    from concurrent.futures import ThreadPoolExecutor

    if not hasattr(os, "sched_setaffinity"):
        helpers = usable_cores() - 1
        return (ThreadPoolExecutor(helpers, "fdgnn") if helpers else None), helpers
    with open("/proc/thread-self/stat") as f:  # field 39: the core this thread last ran on
        cores = sorted(os.sched_getaffinity(0) - {int(f.read().rsplit(")", 1)[1].split()[36])})
    helpers, bind = len(cores), lambda: os.sched_setaffinity(0, {cores.pop()})
    return (ThreadPoolExecutor(helpers, "fdgnn", bind) if helpers else None), helpers


def run_parallel(tasks, workers: int) -> list:
    """Each task's result, in order, once all have finished. The calling thread and up to workers - 1
    jobs on the helper pool, no more than it has helpers, claim tasks one at a time; a job no free
    thread has started is cancelled, so threads never outnumber usable cores and a task may itself
    call run_parallel. With no helper, the calling thread runs every task."""
    done, claims = [None] * len(tasks), itertools.count()

    def drain():
        while (i := next(claims)) < len(tasks):
            done[i] = tasks[i]()

    pool, helpers = _pool()
    jobs = [pool.submit(drain) for _ in range(min(workers, len(tasks), usable_cores(), helpers + 1) - 1)]
    try:
        drain()
    finally:
        errors = [err for job in jobs if not job.cancel() and (err := job.exception())]
    if errors:
        raise errors[0]
    return done


@dataclass
class StackedResult:
    yhat: np.ndarray  # (B, n)
    grads: np.ndarray | None  # (n, dim)


class _Buffers(tuple):
    """`_kernel_buffers`' (input, layers), and `transposed`: the latest split S and its CSR S.T."""

    transposed = (None, None)


def _kernel_buffers(work: dict, specs, n: int, B: int) -> _Buffers:
    """The kernel's (n, B, width) buffers, kept in `work` for the latest (specs, n, B): the input,
    then per layer its aggregate, h, and `nxt` (agg @ theta1, the activation, then the layer's q)."""
    bufs = work.get((specs, n, B))
    if bufs is None:
        w = [specs[0].g_in] + [s.g_out for s in specs]
        work.clear()
        bufs = work[specs, n, B] = _Buffers((np.empty((n, B, w[0])), [
            (np.empty((n, B, a)), np.empty((n, B, b)), np.empty((n, B, b))) for a, b in zip(w, w[1:])]))
    return bufs


def _aggregate(S, x: np.ndarray, out: np.ndarray) -> None:
    """out = S @ x over the (n, B*width) views, written in place."""
    matmul_into(S, x.reshape(len(x), -1), out.reshape(len(out), -1))


def _rows(M, a: int, b: int):
    """A CSR view of rows a..b-1 of the CSR matrix M, on M's own arrays."""
    p = M.indptr[a]  # entries past the view's last indptr are never read
    return type(M)((M.data[p:], M.indices[p:], M.indptr[a : b + 1] - p), shape=(b - a, M.shape[1]))


def stacked_gradients(specs, theta0_stack, theta1_stack, S, X: np.ndarray, y: np.ndarray | None,
                      work: dict | None = None) -> StackedResult:
    """Bulk-synchronous execution of every node's local forward/backward steps.

    theta*_stack hold each node's own weight copy, one (n, g_in, g_out) array
    per layer; nodes may hold different copies. S is a `ShiftOperator` or its
    dense or CSR matrix. X is (B, n, g0); y is (B, n), or None to run forward only.
    Gradients are per-node flattened sensitivities of the summed per-node
    losses, summed over the batch.

    Activations are node-major, (n, B, width): X is transposed once on entry
    and yhat once on exit. The aggregation S @ x is then one matrix product
    over the (n, B*width) view for the whole batch, the per-node weights are
    a matmul batched over nodes, and the backward neighbour term is S.T @ msg
    on the same view (S.T is a view that BLAS reads transposed; of a CSR S,
    it is the CSC view of the same arrays). Each step between two aggregations
    writes only its own nodes' rows; on a CSR S with n*B >= SPLIT_MIN it runs
    over one block of rows per usable core, up to n blocks, every row summed in
    the serial order, so the bytes are the same (README "Graph operators: dense or CSR").

    Intermediates go into buffers kept in `work`, a dict the caller owns and passes on every
    call, so a run's updates reuse their memory (a split keeps S's CSR transpose there until S
    changes); without it they are fresh. The returned yhat and grads are always fresh arrays.
    """
    specs = tuple(specs)
    S = as_matrix(S)
    X = np.asarray(X, dtype=np.float64)
    n = S.shape[0]
    B = X.shape[0]
    if X.shape != (B, n, specs[0].g_in):
        raise ValueError(f"features must be (B, {n}, {specs[0].g_in}), got {X.shape}")
    if specs[-1].g_out != 1:
        raise ValueError("prediction network must end in a width-1 layer")
    if y is not None and np.shape(y) != (B, n):
        raise ValueError(f"labels must be ({B}, {n}), got {np.shape(y)}")
    cur, layers = bufs = _kernel_buffers({} if work is None else work, specs, n, B)
    cores = min(usable_cores(), n) if getattr(S, "format", None) == "csr" and n * B >= SPLIT_MIN else 1
    blocks = [(None, S, S.T)]
    if cores > 1:  # each block's rows of S, and of S.T in CSR form, built once per S
        if bufs.transposed[0] is not S:
            bufs.transposed = S, S.T.tocsr()
        ST, cut = bufs.transposed[1], [n * c // cores for c in range(cores + 1)]
        blocks = [(slice(a, b), _rows(S, a, b), _rows(ST, a, b)) for a, b in zip(cut, cut[1:])]
    y = None if y is None else np.asarray(y, dtype=np.float64)
    yhat = np.empty((B, n))
    grads = None if y is None else np.empty((n, num_params(specs)))
    # Layer k's input: X node-major, then each activation buffer, or h itself for the identity.
    ins = [cur] + [h if s.activation == "identity" else nxt for s, (_, h, nxt) in zip(specs, layers)]

    def steps(rows, S_rows, ST_rows):  # the kernel for the nodes in `rows`, paused at each barrier
        v = (lambda a: a) if rows is None else operator.itemgetter(rows)  # the block's rows of an array
        np.copyto(v(cur), v(X.transpose(1, 0, 2)))
        for k, spec in enumerate(specs):
            yield  # every node's layer-k input is in
            agg, h, nxt = map(v, layers[k])
            _aggregate(S_rows, ins[k], agg)
            np.matmul(v(ins[k]), v(theta0_stack[k]), out=h)
            h += np.matmul(agg, v(theta1_stack[k]), out=nxt)
            apply_activation(spec, h, out=nxt)
        np.copyto(v(yhat.T), v(ins[-1])[..., 0])
        if y is None:
            return
        yield  # every node's forward pass is done
        q, dW = v(layers[-1][2]), layer_views(specs, v(grads))  # dW: the block's per-layer gradient views
        np.multiply(np.subtract(v(ins[-1]), v(y.T)[..., None], out=q), 2.0, out=q)
        for k in reversed(range(len(specs))):
            agg, h, q = map(v, layers[k])
            if specs[k].activation != "identity":
                q *= activation_derivative(specs[k], h, out=h)
            for x, g in zip((v(ins[k]), agg), (dW[0][k], dW[1][k])):
                np.matmul(x.transpose(0, 2, 1), q, out=g)
            if k > 0:
                z = v(layers[k - 1][2])  # layer k-1's output buffer, dead now: msg, then its q
                np.matmul(q, v(theta1_stack[k]).transpose(0, 2, 1), out=z)
                yield  # every node's msg is in
                _aggregate(ST_rows, layers[k - 1][2], agg)
                yield  # every node has read msg
                np.matmul(q, v(theta0_stack[k]).transpose(0, 2, 1), out=z)
                z += agg

    runs = [steps(*block) for block in blocks]
    if len(runs) == 1:
        for _ in runs[0]:
            pass
    else:  # one step of every block per round; the generators end together
        while run_parallel([functools.partial(next, run, True) for run in runs], cores)[0] is None:
            pass
    return StackedResult(yhat, grads)


def stack_flat_params(specs, flat_stack: np.ndarray):
    """Per-layer (n, g_in, g_out) weight stacks viewed out of per-node flat rows."""
    return layer_views(specs, flat_stack)
