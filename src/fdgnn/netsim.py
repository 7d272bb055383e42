"""Synchronous round scheduler and communication-cost ledger.

A mini-batch runs as a fixed schedule of barrier-synchronized broadcast
rounds. Five scheduling strategies are supported; their total round counts
for an L-layer model, batch size B and K gradient-consensus rounds are

    fwd-only              L*B
    naive-per-sample      B*(2L-1) + B*K
    per-batch-consensus   2*B*L - B + K
    piggyback-consensus   L*B + L - 1 + K
    piggyback-do          L*B + L - 1

The piggyback schedules attach the backward adjoint broadcast of sample b-1
for layer L-l+1 to forward round l of sample b, and finish the last sample's
backward pass in L-1 trailing rounds. piggyback-do additionally spreads each
node's flat parameter vector (plus its degree, once) over the batch's L*B
forward rounds in near-equal chunks.

Strategies only change scheduling and accounting; the applied update for a
given optimizer is identical across them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

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
from .gcnn import LayerSpec, ParamSet, num_params
from .graphs import ConsensusWeights, Graph, ShiftOperator, build_shift, metropolis_weights
from .optim import DO_KINDS, DistOptimizer, OptimizerConfig

STRATEGIES = (
    "fwd-only",
    "naive-per-sample",
    "per-batch-consensus",
    "piggyback-consensus",
    "piggyback-do",
)

ROUND_FORMULAS = {
    "fwd-only": lambda L, B, K: L * B,
    "naive-per-sample": lambda L, B, K: B * (2 * L - 1) + B * K,
    "per-batch-consensus": lambda L, B, K: 2 * B * L - B + K,
    "piggyback-consensus": lambda L, B, K: L * B + L - 1 + K,
    "piggyback-do": lambda L, B, K: L * B + L - 1,
}

_CONSENSUS_STRATEGIES = ("naive-per-sample", "per-batch-consensus", "piggyback-consensus")


class CausalityError(RuntimeError):
    """A round plan consumes a payload before its producer round."""


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
    return ROUND_FORMULAS[strategy](L, B, K)


def chunk_sizes(dim: int, slots: int) -> list[int]:
    """Split dim scalars into `slots` near-equal parts (sizes differ by <= 1)."""
    base, rem = divmod(dim, slots)
    return [base + 1 if i < rem else base for i in range(slots)]


def build_round_plan(L: int, B: int, K: int, strategy: str) -> RoundPlan:
    """Assemble the broadcast schedule for one mini-batch."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if L < 1 or B < 1:
        raise ValueError(f"need L >= 1 and B >= 1, got L={L}, B={B}")
    if strategy in _CONSENSUS_STRATEGIES and K < 1:
        raise ValueError(f"strategy {strategy!r} needs K >= 1 consensus rounds")
    sched: list[tuple[Payload, ...]] = []
    if strategy == "fwd-only":
        for b in range(1, B + 1):
            for l in range(1, L + 1):
                sched.append((Payload("fwd", sample=b, layer=l),))
    elif strategy in ("naive-per-sample", "per-batch-consensus"):
        for b in range(1, B + 1):
            for l in range(1, L + 1):
                sched.append((Payload("fwd", sample=b, layer=l),))
            for l in range(L, 1, -1):
                sched.append((Payload("adjoint", sample=b, layer=l),))
            if strategy == "naive-per-sample":
                for k in range(1, K + 1):
                    sched.append((Payload("grad-consensus", sample=b, k=k),))
        if strategy == "per-batch-consensus":
            for k in range(1, K + 1):
                sched.append((Payload("grad-consensus", k=k),))
    else:
        chunked = strategy == "piggyback-do"
        slot = 0
        for b in range(1, B + 1):
            for l in range(1, L + 1):
                items = [Payload("fwd", sample=b, layer=l)]
                if b >= 2 and l <= L - 1:
                    items.append(Payload("adjoint", sample=b - 1, layer=L - l + 1))
                if chunked:
                    items.append(Payload("chunk", chunk=slot))
                    if slot == 0:
                        items.append(Payload("degree"))
                    slot += 1
                sched.append(tuple(items))
        for i in range(1, L):
            sched.append((Payload("adjoint", sample=B, layer=L - i + 1),))
        if strategy == "piggyback-consensus":
            for k in range(1, K + 1):
                sched.append((Payload("grad-consensus", k=k),))
    plan = RoundPlan(strategy, L, B, K, tuple(sched))
    assert plan.rounds == expected_rounds(strategy, L, B, K)
    return plan


def audit_causality(plan: RoundPlan) -> None:
    """Structural check: every consumed payload was produced in an earlier round.

    A forward broadcast for layer l needs the previous forward round of the
    same sample delivered; an adjoint for layer l needs the sample's last
    forward round (l = L) or the layer-(l+1) adjoint round; a gradient
    consensus round needs the relevant backward passes finished and the
    previous consensus round, if any.
    """
    L, B = plan.L, plan.B
    fwd_round: dict[tuple[int, int], int] = {}
    adj_round: dict[tuple[int, int], int] = {}
    cons_round: dict[tuple[int | None, int], int] = {}

    def backward_done(b: int) -> int | None:
        if L >= 2:
            return adj_round.get((b, 2))
        return fwd_round.get((b, L))

    for r, items in enumerate(plan.schedule, 1):
        for p in items:
            if p.kind == "fwd":
                key = (p.sample, p.layer)
                if key in fwd_round:
                    raise CausalityError(f"duplicate forward broadcast {key}")
                if p.layer >= 2:
                    prev = fwd_round.get((p.sample, p.layer - 1))
                    if prev is None or prev >= r:
                        raise CausalityError(
                            f"round {r}: forward {key} before its layer-{p.layer - 1} inputs"
                        )
                fwd_round[key] = r
            elif p.kind == "adjoint":
                key = (p.sample, p.layer)
                if key in adj_round:
                    raise CausalityError(f"duplicate adjoint broadcast {key}")
                if p.layer == L:
                    need = fwd_round.get((p.sample, L))
                else:
                    need = adj_round.get((p.sample, p.layer + 1))
                if need is None or need >= r:
                    raise CausalityError(
                        f"round {r}: adjoint {key} before its prerequisites"
                    )
                adj_round[key] = r
            elif p.kind == "grad-consensus":
                if p.sample is None:
                    samples = range(1, B + 1)
                else:
                    samples = (p.sample,)
                for b in samples:
                    done = backward_done(b)
                    if done is None or done >= r:
                        raise CausalityError(
                            f"round {r}: gradient consensus before sample {b} finished"
                        )
                if p.k >= 2:
                    prev = cons_round.get((p.sample, p.k - 1))
                    if prev is None or prev >= r:
                        raise CausalityError(
                            f"round {r}: consensus round {p.k} before round {p.k - 1}"
                        )
                cons_round[(p.sample, p.k)] = r


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
    trace_enabled: bool = False
    trace: list = field(default_factory=list)

    def add_round(self, n_nodes: int, per_node_scalars: int, kinds) -> None:
        self.rounds += 1
        self.broadcasts += n_nodes
        self.scalars += n_nodes * per_node_scalars
        if self.trace_enabled:
            self.trace.append(RoundTrace(self.rounds, tuple(kinds), per_node_scalars))

    def absorb(self, other: "CommLedger") -> None:
        offset = self.rounds
        self.rounds += other.rounds
        self.broadcasts += other.broadcasts
        self.scalars += other.scalars
        if self.trace_enabled:
            for tr in other.trace:
                self.trace.append(
                    RoundTrace(offset + tr.index, tr.kinds, tr.per_node_scalars)
                )

    def add_plan(self, n_nodes: int, cost: PlanCost) -> None:
        """Bill every round of a plan: O(1), or one add_round per round when tracing."""
        if self.trace_enabled:
            for items, size in zip(cost.plan.schedule, cost.sizes):
                self.add_round(n_nodes, size, tuple(p.kind for p in items))
            return
        self.rounds += cost.plan.rounds
        self.broadcasts += n_nodes * cost.plan.rounds
        self.scalars += n_nodes * cost.scalars

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
    """An audited plan with the per-node scalars broadcast in each round."""

    plan: RoundPlan
    sizes: tuple[int, ...]
    scalars: int  # sum(sizes)

    @classmethod
    def of(cls, plan: RoundPlan, widths, dim: int) -> PlanCost:
        audit_causality(plan)
        chunks = chunk_sizes(dim, plan.L * plan.B) if plan.strategy == "piggyback-do" else None
        sizes = tuple(
            sum(_payload_scalars(p, widths, dim, chunks) for p in items) for items in plan.schedule
        )
        return cls(plan, sizes, sum(sizes))


class Network:
    """Simulation state shared across mini-batches: topology, weights, parameters.

    `theta`, one (n, dim) row of flat parameters per node, is the only copy of
    the optimization state. The message-level agents of the "agents" engine
    are built from the topology on first use and dropped when it changes;
    round plans are built and audited once per (strategy, batch size).
    """

    def __init__(self, graph, shift, weights, params0: ParamSet, opt_cfg, track_trace=False):
        self.graph: Graph = graph
        self.shift: ShiftOperator = shift
        self.weights: ConsensusWeights = weights
        self.specs = params0.specs
        self.dim = params0.dim
        self.widths = [self.specs[0].g_in] + [s.g_out for s in self.specs]
        self.theta = np.tile(params0.flatten(), (graph.n, 1))
        cfg = opt_cfg if isinstance(opt_cfg, OptimizerConfig) else OptimizerConfig(**opt_cfg)
        self.optimizer = DistOptimizer(cfg, graph.n, self.dim)
        self.ledger = CommLedger(trace_enabled=track_trace)
        self.track_trace = track_trace
        self.t = 0
        self._agents: list[AgentState] | None = None
        self._plans: dict[tuple[str, int], PlanCost] = {}

    @property
    def n(self) -> int:
        return self.graph.n

    def set_topology(self, graph: Graph, shift: ShiftOperator, weights: ConsensusWeights) -> None:
        """Swap the edge set under a fixed node set, keeping every node's state."""
        if graph.n != self.graph.n:
            raise ValueError("topology redraw must keep the node set")
        self.graph = graph
        self.shift = shift
        self.weights = weights
        self._agents = None

    @property
    def agents(self) -> list[AgentState]:
        """The message-level agents of the current topology, built on first use."""
        if self._agents is None:
            params = ParamSet.from_flat(self.specs, self.theta[0])
            self._agents = make_agents(self.graph, self.shift, params)
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
        diff = self.theta - self.theta.mean(axis=0)
        return float(np.max(np.linalg.norm(diff, axis=1)))


@dataclass
class MinibatchResult:
    train_mse: float
    grads: np.ndarray  # (n, dim) per-node batch-summed gradients
    per_sample_grads: np.ndarray | None
    yhat: np.ndarray  # (B, n)
    ledger: CommLedger
    protocol_consensus: np.ndarray | None = None


def check_pairing(strategy: str, kind: str) -> None:
    if strategy == "fwd-only":
        return
    if strategy in _CONSENSUS_STRATEGIES:
        if kind != "d-naive":
            raise ValueError(f"strategy {strategy!r} requires the d-naive optimizer")
    elif strategy == "piggyback-do":
        if kind not in DO_KINDS:
            raise ValueError(
                f"strategy 'piggyback-do' requires one of {DO_KINDS}, got {kind!r}"
            )


def run_minibatch(net: Network, samples, strategy: str, alpha_t=None, engine="stacked", plan=None) -> MinibatchResult:
    """Execute one mini-batch: schedule, gradients, optimizer update, ledger.

    `engine` selects the vectorized kernel ("stacked", the default) or
    message-level execution ("agents"); both agree numerically and bill the
    same cached plan cost. The update replaces `net.theta`; the result holds
    the per-node batch-summed gradients. A custom `plan` is audited before
    it runs.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if engine not in ("agents", "stacked"):
        raise ValueError(f"unknown engine {engine!r}")
    cfg = net.optimizer.cfg
    check_pairing(strategy, cfg.kind)
    B = len(samples)
    if B < 1:
        raise ValueError("empty mini-batch")
    n, g0 = net.n, net.specs[0].g_in
    for s in samples:
        if np.shape(s.X) != (n, g0) or np.shape(s.y) != (n,):
            raise ValueError(
                f"sample shapes must be ({n}, {g0}) and ({n},), "
                f"got {np.shape(s.X)} and {np.shape(s.y)}"
            )
    if plan is None:
        cost = net.plan_cost(strategy, B)
    elif (plan.strategy, plan.L, plan.B) != (strategy, len(net.specs), B):
        raise ValueError("custom plan does not match the requested mini-batch")
    else:
        cost = PlanCost.of(plan, net.widths, net.dim)
    if alpha_t is None:
        alpha_t = cfg.alpha * cfg.decay**net.t

    thetas = net.theta
    if strategy == "fwd-only":
        psi = thetas
    else:
        psi = net.optimizer.mix(thetas, net.weights.W)

    execute = _execute_agents if engine == "agents" else _execute_stacked
    grads, psg, yhat, proto = execute(net, cost.plan, samples, psi)

    if strategy != "fwd-only":
        naive_mode = "per-sample" if strategy == "naive-per-sample" else "per-batch"
        net.theta = net.optimizer.apply(
            thetas, psi, net.weights.W, grads, alpha_t,
            per_sample_grads=psg, naive_mode=naive_mode,
        )
    delta = CommLedger(trace_enabled=net.track_trace)
    delta.add_plan(n, cost)
    net.ledger.absorb(delta)
    net.t += 1
    y_all = np.stack([np.asarray(s.y, dtype=np.float64) for s in samples])
    train_mse = float(np.mean((yhat - y_all) ** 2))
    return MinibatchResult(train_mse, grads, psg, yhat, delta, proto)


def _execute_agents(net, plan, samples, psi):
    """Drive the agents through the plan round by round with real messages."""
    graph, agents, specs = net.graph, net.agents, net.specs
    n, L, B, dim = net.n, plan.L, plan.B, net.dim
    strategy = plan.strategy
    X = [np.asarray(s.X, dtype=np.float64) for s in samples]
    Y = [np.asarray(s.y, dtype=np.float64) for s in samples]
    for i, agent in enumerate(agents):
        agent.params = ParamSet.from_flat(specs, psi[i])
        agent.reset_accumulator()
    chunks = chunk_sizes(dim, L * B) if strategy == "piggyback-do" else None
    chunk_offsets = np.concatenate(([0], np.cumsum(chunks))) if chunks else None
    yhat = np.zeros((B, n))
    held_fwd: dict[tuple[int, int], list] = {}
    held_adj: dict[tuple[int, int], list] = {}
    per_sample = strategy == "naive-per-sample"
    psg = np.zeros((B, n, dim)) if per_sample else None
    cons_values: dict[int | None, np.ndarray] = {}
    w_rows = [a.w_row() for a in agents]
    proto_result: np.ndarray | None = None
    proto_accum = np.zeros((n, dim)) if per_sample else None

    def finish_sample(b):
        if per_sample:
            for i, agent in enumerate(agents):
                psg[b - 1, i] = local_gradient(agent)

    neighbor_ids = [graph.neighbors(i) for i in range(n)]

    for r, items in enumerate(plan.schedule, 1):
        outgoing: dict[Payload, list] = {}
        for p in items:
            if p.kind == "fwd":
                b, l = p.sample, p.layer
                if l == 1:
                    for i, agent in enumerate(agents):
                        agent.begin_sample(b, X[b - 1][i])
                    values = [FwdFeature(0, X[b - 1][i].copy()) for i in range(n)]
                else:
                    values = held_fwd.pop((b, l - 1))
                outgoing[p] = values
            elif p.kind == "adjoint":
                outgoing[p] = held_adj.pop((p.sample, p.layer))
            elif p.kind == "chunk":
                lo = int(chunk_offsets[p.chunk])
                hi = int(chunk_offsets[p.chunk + 1])
                outgoing[p] = [ConsensusChunk(lo, psi[i, lo:hi].copy()) for i in range(n)]
            elif p.kind == "degree":
                outgoing[p] = [Degree(graph.degree(i)) for i in range(n)]
            else:  # grad-consensus
                key = p.sample
                if p.k == 1:
                    if key is None:
                        cons_values[key] = np.stack([a.grad_accum.copy() for a in agents])
                    else:
                        cons_values[key] = psg[key - 1].copy()
                outgoing[p] = [
                    ConsensusChunk(0, cons_values[key][i].copy()) for i in range(n)
                ]

        # Delivery barrier: everything broadcast this round is now visible to
        # the sender's neighbors, and each consumer step runs on it.
        for p in items:
            values = outgoing[p]
            if p.kind == "fwd":
                b, l = p.sample, p.layer
                results = []
                for i, agent in enumerate(agents):
                    inbox = [Message(j, r, values[j]) for j in neighbor_ids[i]]
                    results.append(local_forward_layer(agent, l, inbox))
                if l < L:
                    held_fwd[(b, l)] = results
                else:
                    for i, agent in enumerate(agents):
                        yhat[b - 1, i] = results[i]
                    if strategy == "fwd-only":
                        continue
                    for i, agent in enumerate(agents):
                        local_backward_init(agent, Y[b - 1][i], results[i])
                    first = [local_backward_layer(a, L, []) for a in agents]
                    if L >= 2:
                        held_adj[(b, L)] = first
                    else:
                        finish_sample(b)
            elif p.kind == "adjoint":
                b, l = p.sample, p.layer
                results = []
                for i, agent in enumerate(agents):
                    inbox = [Message(j, r, values[j]) for j in neighbor_ids[i]]
                    results.append(local_backward_layer(agent, l - 1, inbox))
                if l - 1 >= 2:
                    held_adj[(b, l - 1)] = results
                else:
                    finish_sample(b)
            elif p.kind == "grad-consensus":
                key = p.sample
                cur = cons_values[key]
                nxt = np.empty_like(cur)
                for i in range(n):
                    row = w_rows[i]
                    acc = row[i] * cur[i]
                    for j in neighbor_ids[i]:
                        acc = acc + row[j] * cur[j]
                    nxt[i] = acc
                cons_values[key] = nxt
                if p.k == plan.K:
                    if key is None:
                        proto_result = nxt
                    else:
                        proto_accum += nxt
    if per_sample:
        proto_result = proto_accum
    grads = np.stack([a.grad_accum.copy() for a in agents])
    return grads, psg, yhat, proto_result


def _execute_stacked(net, plan, samples, psi):
    """Vectorized execution: the agents' arithmetic without message objects."""
    specs, S = net.specs, net.shift.S
    X = np.stack([np.asarray(s.X, dtype=np.float64) for s in samples])
    Y = np.stack([np.asarray(s.y, dtype=np.float64) for s in samples])
    th0, th1 = stack_flat_params(specs, psi)
    if plan.strategy == "fwd-only":
        res = stacked_gradients(specs, th0, th1, S, X, None, forward_only=True)
        return np.zeros((net.n, net.dim)), None, res.yhat, None
    per_sample = plan.strategy == "naive-per-sample"
    res = stacked_gradients(specs, th0, th1, S, X, Y, per_sample=per_sample)
    if per_sample:
        return res.grads.sum(axis=0), res.grads, res.yhat, None
    return res.grads, None, res.yhat, None


def ledger_report(entries) -> list[dict]:
    """Rows of measured cost next to the closed-form round counts.

    entries: iterables of (strategy, L, B, K, ledger).
    """
    rows = []
    for strategy, L, B, K, ledger in entries:
        rows.append(
            {
                "strategy": strategy,
                "L": L,
                "B": B,
                "K": K,
                "rounds": ledger.rounds,
                "expected_rounds": expected_rounds(strategy, L, B, K),
                "broadcasts": ledger.broadcasts,
                "scalars": ledger.scalars,
            }
        )
    return rows


def cost_table(L: int, B: int, K: int, n: int = 4, seed: int = 0) -> list[dict]:
    """Measure every strategy's cost by simulating one mini-batch."""
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    graph = Graph(n, pairs)
    shift = build_shift(graph, "adjacency")
    weights = metropolis_weights(graph)
    specs = tuple(LayerSpec(1, 1, "identity") for _ in range(L))
    rng = np.random.default_rng(seed)
    samples = [
        SimpleNamespace(X=rng.normal(size=(n, 1)), y=rng.normal(size=n))
        for _ in range(B)
    ]
    rows = []
    for strategy in STRATEGIES:
        kind = "d-naive" if strategy in _CONSENSUS_STRATEGIES else "d-sgd"
        cfg = OptimizerConfig(kind=kind, alpha=1e-3, K=K)
        params0 = ParamSet.from_flat(specs, np.zeros(num_params(specs)))
        net = Network(graph, shift, weights, params0, cfg)
        result = run_minibatch(net, samples, strategy, engine="agents")
        rows.extend(ledger_report([(strategy, L, B, K, result.ledger)]))
    return rows


def write_ledger_csv(path: str | Path, rows) -> None:
    lines = ["strategy,L,B,K,rounds,broadcasts,scalars"]
    for row in rows:
        lines.append(
            f"{row['strategy']},{row['L']},{row['B']},{row['K']},"
            f"{row['rounds']},{row['broadcasts']},{row['scalars']}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_trace_csv(path: str | Path, ledger: CommLedger) -> None:
    lines = ["round,kinds,per_node_scalars"]
    for tr in ledger.trace:
        lines.append(f"{tr.index},{'+'.join(tr.kinds)},{tr.per_node_scalars}")
    Path(path).write_text("\n".join(lines) + "\n")
