"""End-to-end training: distributed protocol runs and the centralized baseline.

Both trainers share one loop and log per-minibatch metrics against a
cumulative message-passing round axis. Distributed strategies charge their
full schedule; the centralized baseline charges the L*B forward-pass rounds
per batch so the axes are comparable. The distributed state is the
Network's (n, dim) parameter array.

Gradient scaling convention: a node's batch gradient is the plain sum of its
per-sample local gradients, and the 1/n averaging across nodes happens
through consensus. The centralized baseline steps on the node mean of the
same stacked kernel's gradients with every node holding the shared weights:
the sum over the batch of per-sample mean-squared-error gradients, which
makes learning rates directly comparable between the two.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .agents import stack_flat_params, stacked_gradients
from .datagen import DatasetSpec, default_teacher_specs, draw_samples, make_dataset, stack_samples
from .gcnn import LayerSpec, ParamSet, forward, init_params, mse_loss, validate_specs
from .graphs import (
    SHIFT_VARIANTS,
    Graph,
    GraphGenerationError,
    build_shift,
    generate_ba,
    generate_er,
    load_edge_list,
)
from .netsim import ENGINES, Network, check_pairing, expected_rounds, run_minibatch, strategy_of
from .optim import CENTRAL_KINDS, DIST_KINDS, CentralOptimizer, OptimizerConfig

# The allowed values of each `RunConfig` field that names one of a fixed set.
CHOICES = {"graph": ("ba", "er", "file"), "shift": SHIFT_VARIANTS,
           "topology_mode": ("fixed", "redraw-per-batch"), "engine": ENGINES}


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last evaluated average, the log so far and any ledger."""

    def __init__(self, message, step, last_params, log, ledger=None):
        super().__init__(message)
        self.step = step
        self.last_params = last_params
        self.log = log
        self.ledger = ledger


@dataclass
class RunConfig:
    """Everything one training run depends on; `seed` governs all randomness."""

    graph: str = "ba"
    n: int = 30
    m: int = 2
    p: float = 0.3
    graph_file: str | None = None
    shift: str = "normalized-adjacency"
    layers: int = 2
    hidden: int = 8
    n_train: int = 300
    n_test: int = 100
    noise_var: float = 0.01
    teacher_hidden: int = 16
    optimizer: str = "d-sgd"
    strategy: str = "piggyback-do"
    alpha: float = 1e-3
    decay: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    K: int = 1
    consensus_on_v: bool = False
    batch: int = 30
    epochs: int = 300
    eval_every: int = 10
    seed: int = 0
    topology_mode: str = "fixed"
    engine: str = "stacked"
    track_trace: bool = field(
        default=False, metadata={"help": "also export the per-round message-size trace"}
    )

    def validate(self) -> None:
        """Reject a bad configuration before anything runs. The graph
        generators, optimizer config, model specs and dataset spec check
        their own fields; `_setup` reports a graph it cannot draw or read."""
        for name, allowed in CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name.replace('_', ' ')} {getattr(self, name)!r}")
        if self.graph == "file" and not self.graph_file:
            raise ValueError("graph kind 'file' needs graph_file")
        if not strategy_of(self.strategy).kinds:
            raise ValueError(f"{self.strategy} is an accounting baseline, not a training strategy")
        opt = self.optimizer_config()
        if opt.kind in DIST_KINDS:
            check_pairing(self.strategy, opt.kind)
        validate_specs(self.model_specs(self.dataset_spec().g0))
        if self.batch < 1 or self.n_train < self.batch or self.n_test < 1:
            raise ValueError("need n_train >= batch >= 1 and n_test >= 1")
        if self.epochs < 1 or self.eval_every < 1:
            raise ValueError("epochs and eval_every must be >= 1")
        if self.topology_mode == "redraw-per-batch" and self.graph == "file":
            raise ValueError("cannot redraw topology for a fixed graph file")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.track_trace and opt.kind in CENTRAL_KINDS:
            raise ValueError("track_trace needs a distributed optimizer: a centralized run sends no messages")

    def optimizer_config(self) -> OptimizerConfig:
        names = [f.name for f in fields(OptimizerConfig) if f.name != "kind"]
        return OptimizerConfig(self.optimizer, **{name: getattr(self, name) for name in names})

    def dataset_spec(self, seed: int = 0) -> DatasetSpec:
        return DatasetSpec(
            n_samples=self.n_train + self.n_test,
            teacher_specs=default_teacher_specs(10, self.teacher_hidden),
            noise_var=self.noise_var,
            seed=seed,
        )

    def model_specs(self, g0: int = 10) -> tuple[LayerSpec, ...]:
        widths = [g0] + [self.hidden] * (self.layers - 1) + [1]
        specs = []
        for k in range(self.layers):
            act = "identity" if k == self.layers - 1 else "leaky-relu"
            specs.append(LayerSpec(widths[k], widths[k + 1], act))
        return tuple(specs)


METRICS_COLUMNS = "t,rounds,train_mse,test_mse,consensus_gap"


@dataclass(frozen=True)
class MetricsRecord:
    t: int
    train_mse: float
    test_mse: float
    consensus_gap: float
    ledger_snapshot: tuple[int, int, int]

    @property
    def rounds(self) -> int:
        return self.ledger_snapshot[0]

    def csv_row(self) -> str:
        """The record's `METRICS_COLUMNS` values."""
        return f"{self.t},{self.rounds},{self.train_mse!r},{self.test_mse!r},{self.consensus_gap!r}"


@dataclass
class MetricsLog:
    records: list = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        lines = [METRICS_COLUMNS] + [r.csv_row() for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


@dataclass
class TrainResult:
    node_params: np.ndarray  # (n, dim) per-node flat parameters; one row when centralized
    theta_star: ParamSet
    log: MetricsLog
    ledger: object | None = None


def _build_graph(config: RunConfig, seed: int) -> Graph:
    if config.graph == "ba":
        return generate_ba(config.n, config.m, seed)
    if config.graph == "er":
        return generate_er(config.n, config.p, seed)
    g = load_edge_list(config.graph_file)
    if not g.is_connected():
        raise ValueError(f"graph file {config.graph_file} is not connected")
    return g


def evaluate_mse(params: ParamSet, shift, samples) -> float:
    """Mean over samples of the node-mean squared error under `params`,
    from one batched forward pass over every sample."""
    yhat, _ = forward(params, shift, np.stack([s.X for s in samples]))
    return sum(mse_loss(s.y, row) for s, row in zip(samples, yhat)) / len(samples)


def _setup(config: RunConfig):
    """Graph, shift, dataset, initial parameters and redraw seed, drawn from
    `config.seed`; no trainer writes to them, so runs can share them."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    graph_seed, data_seed, init_seed, redraw_seed = (int(s.generate_state(1)[0]) for s in seeds)
    try:
        graph = _build_graph(config, graph_seed)
    except (OSError, GraphGenerationError) as err:
        raise ValueError(f"cannot build the {config.graph} graph: {err}") from err
    shift = build_shift(graph, config.shift)
    dspec = config.dataset_spec(data_seed)
    samples, teacher = make_dataset(shift, dspec)
    train = samples[: config.n_train]
    test = samples[config.n_train :]
    specs = config.model_specs(dspec.g0)
    params0 = init_params(specs, "glorot", init_seed)
    return graph, shift, dspec, teacher, train, test, specs, params0, redraw_seed


def _redraw(config: RunConfig, teacher, dspec, redraw_rng):
    """Fresh topology and batch for dynamic-topology training."""
    graph = _build_graph(config, int(redraw_rng.integers(2**31)))
    shift = build_shift(graph, config.shift)
    return (graph, shift), draw_samples(teacher, shift, dspec, config.batch, redraw_rng)


def _train(config: RunConfig, setup, step, average, progress, on_update) -> MetricsLog:
    """The loop both trainers share: epochs, topology redraw, divergence
    check, periodic evaluation, metrics log and the `on_update` callback.

    step(batch, topology, alpha_t) runs one update, where topology is the
    redrawn (graph, shift) or None, and returns (train_mse, state handed to
    on_update); average() gives the parameters to evaluate; progress(t)
    gives (consensus_gap, ledger_snapshot) after update t. A non-finite loss
    is logged, not evaluated, and raises TrainingDiverged.
    """
    _, shift, dspec, teacher, train, test, _, params0, redraw_seed = setup
    redraw_rng = np.random.default_rng(redraw_seed)
    log = MetricsLog()
    batches = config.n_train // config.batch
    total = config.epochs * batches
    test_mse = evaluate_mse(params0, shift, test)
    last_good = params0
    t = 0
    for _ in range(config.epochs):
        for bi in range(batches):
            if config.topology_mode == "redraw-per-batch":
                topology, batch = _redraw(config, teacher, dspec, redraw_rng)
            else:
                topology, batch = None, train[bi * config.batch : (bi + 1) * config.batch]
            train_mse, state = step(batch, topology, config.alpha * config.decay**t)
            t += 1
            if np.isfinite(train_mse) and (t % config.eval_every == 0 or t == total):
                last_good = average()
                test_mse = evaluate_mse(last_good, shift, test)
            gap, snapshot = progress(t)
            log.records.append(MetricsRecord(t, train_mse, test_mse, gap, snapshot))
            if not np.isfinite(train_mse):
                raise TrainingDiverged(f"non-finite training loss at update {t}", t, last_good, log)
            if on_update is not None:
                on_update(t, state)
    return log


def train_distributed(config: RunConfig, on_update=None, setup=None) -> TrainResult:
    """Run the full synchronous-round protocol for `epochs` passes.

    Returns the (n, dim) per-node parameter array, its node average, and the
    metrics log. Test evaluation uses the node-average parameters in a dense
    forward pass; it is instrumentation, not part of the protocol.
    on_update(t, net) receives the Network. `setup`, when given, is `_setup`'s
    result for a config with the same graph, data, model and seed fields.
    """
    if config.optimizer in CENTRAL_KINDS:
        raise ValueError("use train_centralized for the centralized kinds")
    config.validate()
    setup = _setup(config) if setup is None else setup
    graph, shift, _, _, _, _, _, params0, _ = setup
    net = Network(graph, shift, params0, config.optimizer_config())

    def step(batch, topology, alpha_t):
        if topology is not None:
            net.set_topology(*topology)
        result = run_minibatch(net, batch, config.strategy, alpha_t=alpha_t, engine=config.engine)
        return result.train_mse, net

    def progress(t):
        return net.consensus_gap(), net.ledger.snapshot()

    try:
        log = _train(config, setup, step, net.mean_params, progress, on_update)
    except TrainingDiverged as err:
        err.ledger = net.ledger
        raise
    return TrainResult(net.theta, net.mean_params(), log, net.ledger)


def train_centralized(config: RunConfig, on_update=None, setup=None) -> TrainResult:
    """Mini-batch baseline on a single shared parameter vector.

    The gradient is the stacked kernel's node mean with every node holding
    the same weights. The round axis charges L*B forward-pass rounds per
    mini-batch. on_update(t, theta) receives the flat parameter vector;
    `setup` is as in `train_distributed`.
    """
    if config.optimizer not in CENTRAL_KINDS:
        raise ValueError("use train_distributed for the distributed kinds")
    config.validate()
    setup = _setup(config) if setup is None else setup
    graph, shift, _, _, _, _, specs, params0, _ = setup
    opt = CentralOptimizer(config.optimizer_config(), params0.dim)
    theta = params0.flatten()
    work: dict = {}  # the stacked kernel's buffers, reused by every update

    def step(batch, topology, alpha_t):
        nonlocal theta, shift
        if topology is not None:
            shift = topology[1]
        X, Y = stack_samples(batch)
        th0, th1 = stack_flat_params(specs, np.broadcast_to(theta, (graph.n, theta.size)))
        res = stacked_gradients(specs, th0, th1, shift, X, Y, work)
        theta = opt.step(theta, res.grads.sum(axis=0) / graph.n, alpha_t)
        return float(np.mean((res.yhat - Y) ** 2)), theta

    per_batch = expected_rounds("fwd-only", config.layers, config.batch, config.K)

    def progress(t):
        return 0.0, (t * per_batch, 0, 0)

    log = _train(config, setup, step, lambda: ParamSet.from_flat(specs, theta), progress, on_update)
    return TrainResult(theta[None, :], ParamSet.from_flat(specs, theta), log)
