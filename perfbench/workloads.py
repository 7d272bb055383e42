"""Workloads and metric definitions of the fdgnn benchmark.

Every workload is one closed loop: a single process calls the trainer again
and again with the same configuration ("episodes") until its time is up.
Each episode has a fixed number of updates, so its final test MSE depends on
the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass

DESK_DATA = dict(graph="ba", n=30, m=2, layers=2, hidden=8, batch=30, n_train=300, n_test=100)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # RunConfig fields other than the seed
    # Update intervals per timing window, about 0.05 to 0.4 s of work. On
    # desk-amsgrad and central-adam the window is eval_every long, and windows
    # start at the first interval, so every window holds exactly one
    # evaluating update. On large-sgd and agents-naive the best window holds
    # none, and there updates_per_s is exactly 1000 / update_ms_p50.
    window: int

    @property
    def central(self) -> bool:
        return self.config["optimizer"].startswith("central")

    @property
    def updates(self) -> int:
        c = self.config
        return c["epochs"] * (c["n_train"] // c["batch"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-amsgrad",
            "n=30 stacked d-amsgrad: tiny kernel, so half of each update is per-update Python in netsim, Network restacking and trainer bookkeeping",
            # 600 updates per episode; eval_every=50 keeps evaluating updates at 2%.
            dict(DESK_DATA, optimizer="d-amsgrad", strategy="piggyback-do",
                 engine="stacked", epochs=60, eval_every=50),
            window=50,
        ),
        Workload(
            "large-sgd",
            "n=2000 stacked d-sgd: dense n x n S and W dominate the update, set-up time and memory",
            # Two batches of training data and 16 updates per episode;
            # eval_every above that leaves evaluation to the final update,
            # 1 in 15 update intervals.
            dict(graph="ba", n=2000, m=2, layers=2, hidden=8, batch=30, n_train=60,
                 n_test=10, optimizer="d-sgd", strategy="piggyback-do",
                 engine="stacked", epochs=8, eval_every=1000),
            window=1,
        ),
        Workload(
            "agents-naive",
            "n=30 message-level agents engine, d-naive per-sample consensus (K=2): per-node, per-message Python",
            # 110 updates per episode; updates 50, 100 and 110 evaluate (under 3%).
            dict(graph="ba", n=30, m=2, layers=2, hidden=8, batch=10, n_train=100,
                 n_test=100, optimizer="d-naive", strategy="naive-per-sample", K=2,
                 engine="agents", epochs=11, eval_every=50),
            window=2,
        ),
        Workload(
            "central-adam",
            "desk-amsgrad data on the single-worker central-adam baseline: per-sample dense forward and central_gradient",
            dict(DESK_DATA, optimizer="central-adam", epochs=60, eval_every=50),
            window=50,
        ),
    )
}

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("updates_per_s", "1/s", "higher"),
    ("update_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

ALL_DISTRIBUTED = "desk-amsgrad, large-sgd, agents-naive"

# Per-layer metrics of the traced run: name, unit, better, the end-to-end
# metric an optimisation of that layer should move, and on which workloads.
# "<span>.self_ms" is self time per update inside the update loop,
# "<span>.calls" calls per update, "<span>.setup_self_ms" self time per
# episode before the first update completes.
PER_LAYER = (
    ("netsim.run_minibatch.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad, agents-naive"),
    ("netsim.build_round_plan.self_ms", "ms", "lower", "updates_per_s", "desk-amsgrad"),
    ("netsim.build_round_plan.calls", "count", "lower", "updates_per_s", "desk-amsgrad"),
    ("netsim.audit_causality.self_ms", "ms", "lower", "updates_per_s", "desk-amsgrad"),
    ("netsim.CommLedger.add_round.calls", "count", "lower", "updates_per_s", "desk-amsgrad"),
    ("netsim.Network.thetas.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("netsim.Network.thetas.calls", "count", "lower", "update_ms_p50", "desk-amsgrad"),
    ("netsim.Network.set_thetas.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("netsim.Network.consensus_gap.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("netsim.Network.mean_params.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("netsim.ledger.rounds_per_update", "count", "lower", "none (invariant)", ALL_DISTRIBUTED),
    ("netsim.ledger.broadcasts_per_update", "count", "lower", "none (invariant)", ALL_DISTRIBUTED),
    ("netsim.ledger.scalars_per_update", "count", "lower", "none (invariant)", ALL_DISTRIBUTED),
    ("agents.stacked_gradients.self_ms", "ms", "lower", "update_ms_p50, updates_per_s", "large-sgd, desk-amsgrad"),
    ("agents.stack_flat_params.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("agents.local_forward_layer.self_ms", "ms", "lower", "update_ms_p50", "agents-naive"),
    ("agents.local_forward_layer.calls", "count", "lower", "update_ms_p50", "agents-naive"),
    ("agents.local_backward_layer.self_ms", "ms", "lower", "update_ms_p50", "agents-naive"),
    ("agents.local_backward_layer.calls", "count", "lower", "update_ms_p50", "agents-naive"),
    ("agents.local_backward_init.self_ms", "ms", "lower", "update_ms_p50", "agents-naive"),
    ("agents.local_gradient.self_ms", "ms", "lower", "update_ms_p50", "agents-naive"),
    ("agents.make_agents.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("optim.consensus_round.self_ms", "ms", "lower", "update_ms_p50", "large-sgd, desk-amsgrad"),
    ("optim.consensus_round.calls", "count", "lower", "update_ms_p50", "large-sgd, desk-amsgrad"),
    ("optim.damsgrad_update.self_ms", "ms", "lower", "update_ms_p50", "desk-amsgrad"),
    ("optim.dsgd_update.self_ms", "ms", "lower", "update_ms_p50", "large-sgd"),
    ("optim.dnaive_update.self_ms", "ms", "lower", "update_ms_p50", "agents-naive"),
    ("optim.central_update.self_ms", "ms", "lower", "update_ms_p50", "central-adam"),
    ("gcnn.forward.self_ms", "ms", "lower", "update_ms_p50", "central-adam"),
    ("gcnn.forward.calls", "count", "lower", "update_ms_p50", "central-adam"),
    ("gcnn.forward.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("gcnn.central_gradient.self_ms", "ms", "lower", "update_ms_p50", "central-adam"),
    ("graphs.generate_ba.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("graphs.build_shift.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("graphs.metropolis_weights.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("datagen.make_dataset.setup_self_ms", "ms", "lower", "setup_s", "large-sgd"),
    ("graphs.shift_bytes", "B", "lower", "peak_rss_mb", "large-sgd"),
    ("graphs.weights_bytes", "B", "lower", "peak_rss_mb", "large-sgd"),
    ("trainer.evaluate_mse.self_ms", "ms", "lower", "updates_per_s", "desk-amsgrad, central-adam"),
    ("trainer.evaluate_mse.calls", "count", "lower", "updates_per_s", "desk-amsgrad, central-adam"),
    ("trainer.loop.self_ms", "ms", "lower", "update_ms_p50, updates_per_s", "desk-amsgrad, central-adam"),
    ("trace.updates_per_s", "1/s", "higher", "none (traced throughput)", "all"),
    ("trace.base_updates_per_s", "1/s", "higher", "none (untraced throughput of the same run)", "all"),
    ("trace.slowdown", "x", "lower", "none (base / traced updates_per_s)", "all"),
)

# Public fdgnn functions and methods the traced run wraps.
TRACED = (
    "netsim.run_minibatch",
    "netsim.build_round_plan",
    "netsim.audit_causality",
    "netsim.CommLedger.add_round",
    "netsim.Network.thetas",
    "netsim.Network.set_thetas",
    "netsim.Network.consensus_gap",
    "netsim.Network.mean_params",
    "agents.stacked_gradients",
    "agents.stack_flat_params",
    "agents.local_forward_layer",
    "agents.local_backward_layer",
    "agents.local_backward_init",
    "agents.local_gradient",
    "agents.make_agents",
    "optim.DistOptimizer.mix",
    "optim.DistOptimizer.apply",
    "optim.consensus_round",
    "optim.damsgrad_update",
    "optim.dsgd_update",
    "optim.dnaive_update",
    "optim.central_update",
    "gcnn.forward",
    "gcnn.central_gradient",
    "graphs.generate_ba",
    "graphs.build_shift",
    "graphs.metropolis_weights",
    "datagen.make_dataset",
    "trainer.evaluate_mse",
)
