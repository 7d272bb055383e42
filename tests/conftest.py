"""Shared fixtures and oracle helpers for the test suite."""
from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import settings

from fdgnn.agents import (
    FwdFeature,
    Message,
    local_backward_init,
    local_backward_layer,
    local_forward_layer,
    local_gradient,
)
from fdgnn.gcnn import fd_gradient  # noqa: F401  (the finite-difference oracle the tests import)
from fdgnn.graphs import Graph, generate_ba, generate_er
from fdgnn.trainer import RunConfig, train_distributed

# A deeper sweep for CI's engine-oracle step; the default profile is unchanged.
settings.register_profile("ci-deep", max_examples=600, deadline=None)


def rel_error(a, b, floor=1e-30):
    """Max absolute deviation normalized by the reference's max magnitude."""
    a = np.asarray(a)
    b = np.asarray(b)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), floor))


def assert_fd_close(analytic, fd, tol=1e-4, floor=1e-8):
    """Coordinatewise relative agreement wherever the FD value is resolvable."""
    analytic = np.asarray(analytic)
    fd = np.asarray(fd)
    mask = np.abs(fd) > floor
    assert mask.any(), "finite-difference oracle produced no resolvable coordinates"
    rel = np.abs(analytic[mask] - fd[mask]) / np.abs(fd[mask])
    assert np.max(rel) < tol, f"max FD relative error {np.max(rel):.3e} >= {tol}"


def drive_sample(agents, graph, X, y):
    """Push one sample through the message-level ops: L forward rounds, then
    the L-1 adjoint rounds. Returns predictions and per-node local gradients."""
    n = len(agents)
    L = agents[0].n_layers
    for i, agent in enumerate(agents):
        agent.begin_sample(0, X[i])
    held = [FwdFeature(0, np.asarray(X[i], dtype=np.float64).copy()) for i in range(n)]
    yhat = np.zeros(n)
    for l in range(1, L + 1):
        outs = []
        for i, agent in enumerate(agents):
            inbox = [Message(j, l, held[j]) for j in graph.neighbors(i)]
            outs.append(local_forward_layer(agent, l, inbox))
        held = outs
    yhat[:] = outs
    for i, agent in enumerate(agents):
        local_backward_init(agent, y[i], yhat[i])
    cur = [local_backward_layer(agent, L, []) for agent in agents]
    for l in range(L, 1, -1):
        nxt = []
        for i, agent in enumerate(agents):
            inbox = [Message(j, 0, cur[j]) for j in graph.neighbors(i)]
            nxt.append(local_backward_layer(agent, l - 1, inbox))
        cur = nxt
    return yhat, np.stack([local_gradient(agent) for agent in agents])


def path_graph(n):
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    return Graph(n, tuple((0, i) for i in range(1, n)))


def cycle_graph(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@pytest.fixture(scope="session")
def graph_zoo():
    return [
        complete_graph(2),
        Graph(3, ((0, 1), (1, 2), (0, 2))),
        path_graph(4),
        star_graph(6),
        cycle_graph(8),
        complete_graph(5),
        generate_ba(12, 2, 3),
        generate_er(10, 0.4, 1),
    ]


BENCHMARK_SEED = 0


def benchmark_config(kind: str) -> RunConfig:
    return RunConfig(
        graph="ba",
        n=30,
        m=2,
        n_train=300,
        n_test=100,
        noise_var=0.01,
        batch=30,
        epochs=300,
        alpha=1e-3,
        optimizer=kind,
        strategy="piggyback-do",
        seed=BENCHMARK_SEED,
        engine="stacked",
        eval_every=100,
    )


@pytest.fixture(scope="session")
def benchmark_runs():
    """The scaled node-regression benchmark, once per optimizer, shared by
    every test that inspects it. Tracks vhat monotonicity during the
    max-normalized run."""
    out = {}
    for kind in ("d-sgd", "d-amsgrad"):
        cfg = benchmark_config(kind)
        monitor = {"violations": 0, "prev": None}

        def watch(t, net, monitor=monitor):
            vhat = net.optimizer.moments.vhat if net.optimizer.moments is not None else None
            if vhat is None:
                return
            if monitor["prev"] is not None and np.any(vhat < monitor["prev"] - 0.0):
                monitor["violations"] += 1
            monitor["prev"] = vhat.copy()

        start = time.perf_counter()
        result = train_distributed(cfg, on_update=watch if kind == "d-amsgrad" else None)
        elapsed = time.perf_counter() - start
        out[kind] = {
            "config": cfg,
            "result": result,
            "elapsed": elapsed,
            "vhat_violations": monitor["violations"],
        }
    return out
