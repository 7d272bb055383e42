"""Synchronous round scheduler and communication-cost ledger.

A mini-batch runs as a fixed schedule of barrier-synchronized broadcast
rounds. `STRATEGY` holds the traits of the five scheduling strategies, their
closed-form round counts included; the plan builder, `delivery` and
`run_minibatch` read them. `delivery` is the one table of what each payload
means: the key it delivers and the keys it needs delivered first.
`audit_causality` checks plans against it, and the message-level engine
keeps its in-flight values under its keys. Strategies only change scheduling
and accounting: both engines hand the optimizer the (n, dim) batch-summed
gradients, so the applied update for a given optimizer is bitwise identical
across them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Callable

import numpy as np

from .agents import (
    AgentState,
    ConsensusChunk,
    Degree,
    FwdFeature,
    Message,
    local_backward_init,
    local_backward_layer,
    local_forward_layer,
    local_gradient,
    make_agents,
    stack_flat_params,
    stacked_gradients,
)
from .datagen import stack_samples
from .gcnn import ParamSet
from .graphs import ConsensusWeights, Graph, ShiftOperator, metropolis_weights
from .optim import DO_KINDS, DistOptimizer, OptimizerConfig

ENGINES = ("agents", "stacked")


class CausalityError(RuntimeError):
    """A round plan consumes a payload before its producer round."""


@dataclass(frozen=True)
class Strategy:
    """The traits of one scheduling strategy.

    `rounds(L, B, K)` is the closed-form round count. `kinds` are the
    optimizers it trains; none means an accounting baseline with no backward
    pass and no update. `consensus` is how d-naive averages gradients over K
    rounds: None, "per-sample" (after each sample's backward pass) or
    "per-batch" (once, after the batch). A `pipelined` strategy sends sample
    b-1's adjoint for layer L-l+1 in forward round l of sample b and finishes
    the last sample's backward pass in L-1 trailing rounds. A `chunked` one
    spreads each node's flat parameter vector over the batch's L*B forward
    rounds in near-equal chunks, plus its degree once.
    """

    rounds: Callable[[int, int, int], int]
    kinds: tuple[str, ...] = ()
    consensus: str | None = None
    pipelined: bool = False
    chunked: bool = False


STRATEGY = {
    "fwd-only": Strategy(lambda L, B, K: L * B),
    "naive-per-sample": Strategy(lambda L, B, K: B * (2 * L - 1) + B * K, ("d-naive",), "per-sample"),
    "per-batch-consensus": Strategy(lambda L, B, K: 2 * B * L - B + K, ("d-naive",), "per-batch"),
    "piggyback-consensus": Strategy(lambda L, B, K: L * B + L - 1 + K, ("d-naive",), "per-batch", pipelined=True),
    "piggyback-do": Strategy(lambda L, B, K: L * B + L - 1, DO_KINDS, pipelined=True, chunked=True),
}
STRATEGIES = tuple(STRATEGY)


def strategy_of(name: str, error=ValueError) -> Strategy:
    """The traits of strategy `name`; raises `error` for an unknown name."""
    if name not in STRATEGY:
        raise error(f"unknown strategy {name!r}")
    return STRATEGY[name]


@dataclass(frozen=True)
class Payload:
    """Descriptor of one broadcast item, shared by every sender in a round.

    kind "fwd" carries the features entering `layer` (i.e. the layer-1 rounds
    broadcast raw inputs); "adjoint" carries the tagged layer's backward
    product; "chunk" carries one slot of the flat parameter vector; "degree"
    one scalar; "grad-consensus" one full gradient-sized consensus iterate.
    """

    kind: str
    sample: int | None = None
    layer: int | None = None
    k: int | None = None
    chunk: int | None = None


@dataclass(frozen=True)
class RoundPlan:
    strategy: str
    L: int
    B: int
    K: int
    schedule: tuple[tuple[Payload, ...], ...]

    @property
    def rounds(self) -> int:
        return len(self.schedule)


def expected_rounds(strategy: str, L: int, B: int, K: int) -> int:
    return strategy_of(strategy).rounds(L, B, K)


def chunk_sizes(dim: int, slots: int) -> list[int]:
    """Split dim scalars into `slots` near-equal parts (sizes differ by <= 1)."""
    base, rem = divmod(dim, slots)
    return [base + 1 if i < rem else base for i in range(slots)]


def build_round_plan(L: int, B: int, K: int, strategy: str) -> RoundPlan:
    """Assemble the broadcast schedule for one mini-batch."""
    st = strategy_of(strategy)
    if L < 1 or B < 1:
        raise ValueError(f"need L >= 1 and B >= 1, got L={L}, B={B}")
    if st.consensus and K < 1:
        raise ValueError(f"strategy {strategy!r} needs K >= 1 consensus rounds")
    sched: list[tuple[Payload, ...]] = []
    for b in range(1, B + 1):
        for l in range(1, L + 1):
            items = [Payload("fwd", sample=b, layer=l)]
            if st.pipelined and b >= 2 and l < L:
                items.append(Payload("adjoint", sample=b - 1, layer=L - l + 1))
            if st.chunked:
                c = (b - 1) * L + l - 1
                items.append(Payload("chunk", chunk=c))
                if c == 0:
                    items.append(Payload("degree"))
            sched.append(tuple(items))
        if st.kinds and (not st.pipelined or b == B):
            sched += [(Payload("adjoint", sample=b, layer=l),) for l in range(L, 1, -1)]
        if st.consensus == "per-sample":
            sched += [(Payload("grad-consensus", sample=b, k=k),) for k in range(1, K + 1)]
    if st.consensus == "per-batch":
        sched += [(Payload("grad-consensus", k=k),) for k in range(1, K + 1)]
    plan = RoundPlan(strategy, L, B, K, tuple(sched))
    assert plan.rounds == st.rounds(L, B, K)
    return plan


UPDATE = Payload("update")  # the optimizer step after a plan's last round

# The fields each payload kind must carry.
_FIELDS = {"fwd": ("sample", "layer"), "adjoint": ("sample", "layer"), "grad-consensus": ("k",),
           "chunk": ("chunk",), "degree": (), "update": ()}


def delivery(p: Payload, plan: RoundPlan) -> tuple[tuple, tuple | None, tuple]:
    """What payload p means in `plan`: (key, source, needs).

    `key` is what p's round delivers and `needs` the keys that must be
    delivered in an earlier round. `source`, the first of `needs` or None, is
    the delivery whose results p broadcasts; None means fresh local values.
    Samples run their forward passes one at a time and in order, one backward
    pass is in flight at a time, and the pseudo-payload UPDATE consumes every
    sample's finished backward pass (and, in piggyback-do, every parameter
    chunk and the degree) or the K-th consensus round. A payload that lacks a
    field its kind needs, or a plan of an unknown strategy, is a
    CausalityError.
    """
    st = strategy_of(plan.strategy, CausalityError)
    if p.kind not in _FIELDS:
        raise CausalityError(f"unknown payload kind {p.kind!r}")
    lacking = [f for f in _FIELDS[p.kind] if getattr(p, f) is None]
    if lacking:
        raise CausalityError(f"{p.kind} payload without {lacking[0]}")
    L, B, K, b = plan.L, plan.B, plan.K, p.sample

    def done(s: int) -> tuple:  # the delivery that finishes sample s's backward pass
        return ("fwd", s, L) if L == 1 or not st.kinds else ("adjoint", s, 2)

    source, after = None, ()
    if p.kind == "fwd":
        key = ("fwd", b, p.layer)
        if p.layer >= 2:
            source = ("fwd", b, p.layer - 1)
        elif b >= 2:
            after = (("fwd", b - 1, L),)
        if p.layer == L and b >= 2:
            after += (done(b - 1),)
    elif p.kind == "adjoint":
        key = ("adjoint", b, p.layer)
        source = ("fwd", b, L) if p.layer == L else ("adjoint", b, p.layer + 1)
    elif p.kind == "grad-consensus":
        key = ("grad-consensus", b, p.k)
        if p.k >= 2:
            source = ("grad-consensus", b, p.k - 1)
        else:
            after = tuple(done(s) for s in ((b,) if b else range(1, B + 1)))
    elif p.kind == "update":
        key = ("update", None)
        if st.consensus:
            samples = range(1, B + 1) if st.consensus == "per-sample" else (None,)
            after = tuple(("grad-consensus", s, K) for s in samples)
        else:
            after = tuple(done(s) for s in range(1, B + 1))
            if st.chunked:
                after += tuple(("chunk", c) for c in range(L * B)) + (("degree", None),)
    else:  # chunk or degree
        key = (p.kind, p.chunk)
    return key, source, ((source,) if source else ()) + after


def audit_causality(plan: RoundPlan) -> None:
    """Check a plan against `delivery`: every key is delivered once, after
    everything it needs, and is needed by a later round or by the update.
    """
    delivered: dict[tuple, int] = {}
    consumed: set[tuple] = set()
    for r, items in enumerate(plan.schedule + ((UPDATE,),), 1):
        for p in items:
            key, _, needs = delivery(p, plan)
            if key in delivered:
                raise CausalityError(f"round {r}: duplicate {key}")
            for need in needs:
                if delivered.get(need, r) >= r:
                    raise CausalityError(f"round {r}: {key} before {need}")
            consumed.update(needs)
            delivered[key] = r
    unused = [key for key in delivered if key not in consumed and key != ("update", None)]
    if unused:
        raise CausalityError(f"{unused[0]} is delivered but never consumed")


@dataclass(frozen=True)
class RoundTrace:
    index: int
    kinds: tuple[str, ...]
    per_node_scalars: int


@dataclass
class CommLedger:
    """Message-passing cost counters: rounds, broadcasts, 64-bit scalars sent."""

    rounds: int = 0
    broadcasts: int = 0
    scalars: int = 0
    _runs: list = field(default_factory=list, init=False, repr=False)  # [rows, times] per run of one bill

    def add_round(self, n_nodes: int, per_node_scalars: int, kinds) -> None:
        """Bill one round, as a one-round bill with no plan."""
        self.add_plan(n_nodes, PlanCost(None, ((tuple(kinds), per_node_scalars),), per_node_scalars))

    def add_plan(self, n_nodes: int, cost: PlanCost) -> None:
        """Bill every round of a plan in O(1)."""
        self.rounds += len(cost.rows)
        self.broadcasts += n_nodes * len(cost.rows)
        self.scalars += n_nodes * cost.scalars
        if self._runs and self._runs[-1][0] is cost.rows:
            self._runs[-1][1] += 1
        else:
            self._runs.append([cost.rows, 1])

    def iter_trace(self):
        """Each billed round in order, as a `RoundTrace` built when it is reached."""
        rows = (row for rows, times in self._runs for _ in range(times) for row in rows)
        return (RoundTrace(index, *row) for index, row in enumerate(rows, 1))

    @property
    def trace(self) -> list[RoundTrace]:
        return list(self.iter_trace())

    def snapshot(self) -> tuple[int, int, int]:
        return (self.rounds, self.broadcasts, self.scalars)


def _payload_scalars(p: Payload, widths, dim, chunks) -> int:
    if p.kind in ("fwd", "adjoint"):
        return widths[p.layer - 1]
    if p.kind == "chunk":
        return chunks[p.chunk]
    if p.kind == "degree":
        return 1
    return dim  # grad-consensus


@dataclass(frozen=True)
class PlanCost:
    """An audited plan's bill: each round's (payload kinds, per-node scalars)."""

    plan: RoundPlan | None  # None for a round billed by `CommLedger.add_round`
    rows: tuple[tuple[tuple[str, ...], int], ...]
    scalars: int  # per node, over every round

    @classmethod
    def of(cls, plan: RoundPlan, widths, dim: int) -> PlanCost:
        audit_causality(plan)
        chunks = chunk_sizes(dim, plan.L * plan.B) if STRATEGY[plan.strategy].chunked else None
        rows = tuple(
            (tuple(p.kind for p in items), sum(_payload_scalars(p, widths, dim, chunks) for p in items))
            for items in plan.schedule
        )
        return cls(plan, rows, sum(size for _, size in rows))


class Network:
    """Simulation state shared across mini-batches: topology, weights, parameters.

    The weights are the graph's Metropolis weights, the rule of each agent's
    `w_row`. `theta`, one (n, dim) row of flat parameters per node, is the
    only copy of the optimization state. The message-level agents of the
    "agents" engine, with their consensus slot table, are built from the
    topology on first use and dropped when it changes; round plans are built
    and audited once per (strategy, batch size).
    """

    def __init__(self, graph, shift, params0: ParamSet, opt_cfg: OptimizerConfig):
        self.graph: Graph = graph
        self.shift: ShiftOperator = shift
        self.weights: ConsensusWeights = metropolis_weights(graph)
        self.specs = params0.specs
        self.dim = params0.dim
        self.widths = [self.specs[0].g_in] + [s.g_out for s in self.specs]
        self.theta = np.tile(params0.flatten(), (graph.n, 1))
        self.optimizer = DistOptimizer(opt_cfg, graph.n, self.dim)
        self.ledger = CommLedger()
        self.t = 0
        self._agents: list[AgentState] | None = None
        self._slots = None  # _consensus_slots(self._agents)
        self._plans: dict[tuple[str, int], PlanCost] = {}
        self._work: dict = {}  # the stacked kernel's buffers, reused by every update

    @property
    def n(self) -> int:
        return self.graph.n

    def set_topology(self, graph: Graph, shift: ShiftOperator) -> None:
        """Swap the edge set under a fixed node set, keeping every node's state."""
        if graph.n != self.graph.n:
            raise ValueError("topology redraw must keep the node set")
        self.graph = graph
        self.shift = shift
        self.weights = metropolis_weights(graph)
        self._agents = None

    @property
    def agents(self) -> list[AgentState]:
        """The message-level agents of the current topology, built on first use."""
        if self._agents is None:
            params = ParamSet.from_flat(self.specs, self.theta[0])
            self._agents = make_agents(self.graph, self.shift, params)
            self._slots = _consensus_slots(self._agents)
        return self._agents

    def plan_cost(self, strategy: str, B: int) -> PlanCost:
        """The audited plan of a B-sample mini-batch, built on first use."""
        key = (strategy, B)
        if key not in self._plans:
            plan = build_round_plan(len(self.specs), B, self.optimizer.cfg.K, strategy)
            self._plans[key] = PlanCost.of(plan, self.widths, self.dim)
        return self._plans[key]

    def thetas(self) -> np.ndarray:
        return self.theta.copy()

    def set_thetas(self, arr: np.ndarray) -> None:
        arr = np.array(arr, dtype=np.float64)
        if arr.shape != self.theta.shape:
            raise ValueError(f"parameters must be {self.theta.shape}, got {arr.shape}")
        self.theta = arr

    def mean_params(self) -> ParamSet:
        return ParamSet.from_flat(self.specs, self.theta.mean(axis=0))

    def consensus_gap(self) -> float:
        diff = self.theta - self.theta.mean(axis=0)  # the only (n, dim) temporary, squared in place
        return float(np.max(np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=1))))


def _consensus_slots(agents):
    """The agents' own consensus weights as (w_self, slots), built in O(n + |E|).

    Slot k is (rows, cols, w): every node with more than k neighbours, its
    k-th neighbour in sorted order and that neighbour's weight. Adding the
    slots in turn repeats each node's own summation order.
    """
    w_rows = [a.w_row() for a in agents]
    slots = [[] for _ in range(max(len(a.neighbor_ids) for a in agents))]
    for i, (agent, row) in enumerate(zip(agents, w_rows)):
        for k, j in enumerate(agent.neighbor_ids):
            slots[k].append((i, j, row[j]))
    w_self = np.array([row[i] for i, row in enumerate(w_rows)])
    return w_self, [(np.array(r), np.array(c), np.array(w)[:, None]) for r, c, w in (zip(*s) for s in slots)]


@dataclass
class MinibatchResult:
    train_mse: float
    grads: np.ndarray  # (n, dim) per-node batch-summed gradients
    yhat: np.ndarray  # (B, n)
    ledger: CommLedger
    protocol_consensus: np.ndarray | None = None


def check_pairing(strategy: str, kind: str) -> None:
    """Reject an optimizer the strategy does not train; fwd-only bills any."""
    kinds = strategy_of(strategy).kinds
    if kinds and kind not in kinds:
        raise ValueError(f"strategy {strategy!r} requires one of {kinds}, got {kind!r}")


def run_minibatch(net: Network, samples, strategy: str, alpha_t=None, engine="stacked", plan=None) -> MinibatchResult:
    """Execute one mini-batch: schedule, gradients, optimizer update, ledger.

    `engine` selects the vectorized kernel ("stacked", the default) or
    message-level execution ("agents"); both agree numerically and bill the
    same cached plan cost. The update replaces `net.theta`; it steps on the
    per-node batch-summed gradients, which the result holds, whatever the
    strategy. A custom `plan` is audited before it runs.
    """
    st = strategy_of(strategy)
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    cfg = net.optimizer.cfg
    check_pairing(strategy, cfg.kind)
    B = len(samples)
    if B < 1:
        raise ValueError("empty mini-batch")
    n, g0 = net.n, net.specs[0].g_in
    X, Y = stack_samples(samples)
    if X.shape != (B, n, g0) or Y.shape != (B, n):
        raise ValueError(
            f"sample shapes must be ({n}, {g0}) and ({n},), got {X.shape[1:]} and {Y.shape[1:]}"
        )
    if plan is None:
        cost = net.plan_cost(strategy, B)
    elif (plan.strategy, plan.L, plan.B, plan.K) != (strategy, len(net.specs), B, cfg.K):
        raise ValueError("custom plan does not match the requested mini-batch")
    else:
        cost = PlanCost.of(plan, net.widths, net.dim)
    if alpha_t is None:
        alpha_t = cfg.alpha * cfg.decay**net.t

    psi = net.optimizer.mix(net.theta, net.weights) if st.kinds else net.theta

    execute = _execute_agents if engine == "agents" else _execute_stacked
    grads, yhat, proto = execute(net, cost.plan, X, Y, psi)

    if st.kinds:
        net.theta = net.optimizer.apply(psi, net.weights, grads, alpha_t)
    delta = CommLedger()
    for ledger in (net.ledger, delta):
        ledger.add_plan(n, cost)
    net.t += 1
    train_mse = float(np.mean((yhat - Y) ** 2))
    return MinibatchResult(train_mse, grads, yhat, delta, proto)


def _execute_agents(net, plan, X, Y, psi):
    """Drive the agents through the plan round by round with real messages.

    `inflight` holds what a delivery produced for a later round to relay,
    under the delivered key that `delivery` names as that round's source.
    """
    agents, specs, st = net.agents, net.specs, STRATEGY[plan.strategy]
    n, L, dim = net.n, plan.L, net.dim
    for agent, row in zip(agents, psi):
        agent.params = ParamSet.from_flat(specs, row)
        agent.reset_accumulator()
    if st.chunked:
        offsets = list(accumulate(chunk_sizes(dim, L * plan.B), initial=0))
    yhat = np.zeros((plan.B, n))
    # Each sample's gradients, kept when its backward pass ends: an audited plan
    # may run sample b's consensus after sample b+1's backward pass has begun.
    per_sample = np.zeros((plan.B, n, dim)) if st.consensus == "per-sample" else None
    inflight: dict[tuple, object] = {}

    for r, items in enumerate(plan.schedule, 1):
        outgoing = []
        for p in items:
            key, source, _ = delivery(p, plan)
            held = inflight.pop(source) if source else None
            if p.kind == "fwd" and held is None:
                for i, agent in enumerate(agents):
                    agent.begin_sample(p.sample, X[p.sample - 1][i])
                held = [FwdFeature(0, x.copy()) for x in X[p.sample - 1]]
            elif p.kind == "chunk":
                lo, hi = offsets[p.chunk], offsets[p.chunk + 1]
                held = [ConsensusChunk(lo, row[lo:hi].copy()) for row in psi]
            elif p.kind == "degree":
                held = [Degree(a.degree) for a in agents]
            elif p.kind == "grad-consensus" and held is None:
                held = per_sample[p.sample - 1] if p.sample else np.stack([a.grad_accum for a in agents])
            outgoing.append((p, key, held))

        # Delivery barrier: everything broadcast this round is now visible to
        # the sender's neighbors, and each consumer step runs on it.
        for p, key, values in outgoing:
            if p.kind == "grad-consensus":
                w_self, slots = net._slots
                nxt = w_self[:, None] * values
                for rows, cols, w in slots:
                    nxt[rows] += w * values[cols]
                inflight[key] = nxt
            if p.kind not in ("fwd", "adjoint"):
                continue  # chunks and degrees are billed and audited; the mix reads psi
            b = p.sample
            msgs = [Message(j, r, v) for j, v in enumerate(values)]
            inboxes = [[msgs[j] for j in a.neighbor_ids] for a in agents]
            if p.kind == "adjoint":
                results = [local_backward_layer(a, p.layer - 1, box) for a, box in zip(agents, inboxes)]
            else:
                results = [local_forward_layer(a, p.layer, box) for a, box in zip(agents, inboxes)]
                if p.layer < L:
                    inflight[key] = results
                    continue
                yhat[b - 1] = results
                if not st.kinds:
                    continue
                for i, agent in enumerate(agents):
                    local_backward_init(agent, Y[b - 1][i], results[i])
                results = [local_backward_layer(a, L, []) for a in agents]
            if results[0] is not None:
                inflight[key] = results
            elif per_sample is not None:  # sample b's backward pass is finished
                per_sample[b - 1] = [local_gradient(a) for a in agents]
    proto = None
    if st.consensus:
        proto = sum(inflight[k] for k in delivery(UPDATE, plan)[2])
    grads = np.stack([a.grad_accum.copy() for a in agents])
    return grads, yhat, proto


def _execute_stacked(net, plan, X, Y, psi):
    """Vectorized execution: the agents' arithmetic without message objects."""
    th0, th1 = stack_flat_params(net.specs, psi)
    trains = bool(STRATEGY[plan.strategy].kinds)
    res = stacked_gradients(net.specs, th0, th1, net.shift, X, Y if trains else None, net._work)
    grads = res.grads if trains else np.zeros((net.n, net.dim))
    return grads, res.yhat, None


def ledger_report(entries) -> list[dict]:
    """Rows of measured cost next to the closed-form round counts.

    entries: iterables of (strategy, L, B, K, ledger).
    """
    return [
        {"strategy": strategy, "L": L, "B": B, "K": K, "rounds": ledger.rounds,
         "expected_rounds": expected_rounds(strategy, L, B, K),
         "broadcasts": ledger.broadcasts, "scalars": ledger.scalars}
        for strategy, L, B, K, ledger in entries
    ]


def cost_table(L: int, B: int, K: int) -> list[dict]:
    """Every strategy's bill for one mini-batch on 4 nodes with 1x1 layers:
    the `PlanCost` of its built and audited plan, as a training run's ledger
    charges it, next to the closed-form round count."""
    entries = []
    for strategy in STRATEGIES:
        ledger = CommLedger()
        ledger.add_plan(4, PlanCost.of(build_round_plan(L, B, K, strategy), [1] * (L + 1), 2 * L))
        entries.append((strategy, L, B, K, ledger))
    return ledger_report(entries)


def write_ledger_csv(path: str | Path, rows) -> None:
    cols = ("strategy", "L", "B", "K", "rounds", "broadcasts", "scalars")
    lines = [",".join(cols)] + [",".join(str(row[c]) for c in cols) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(path: str | Path, ledger: CommLedger) -> None:
    with open(path, "w") as f:
        f.write("round,kinds,per_node_scalars\n")
        f.writelines(f"{t.index},{'+'.join(t.kinds)},{t.per_node_scalars}\n" for t in ledger.iter_trace())
