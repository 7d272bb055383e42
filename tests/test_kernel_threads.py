"""The stacked kernel split over blocks of node rows gives the serial kernel's
bytes; concurrent callers share its helper pool, and a failing block reaches
the caller. `usable_cores` is patched to 3, so that n=101 makes three unequal
blocks (33, 34, 34) on any host, and SPLIT_MIN to 1, so that small calls split."""
import sys
import threading
from functools import partial

import numpy as np
import pytest
from scipy.sparse import csr_array

from fdgnn import agents
from fdgnn.agents import run_parallel, stack_flat_params, stacked_gradients
from fdgnn.gcnn import LayerSpec
from fdgnn.graphs import build_shift, generate_ba
from fdgnn.trainer import RunConfig, train_distributed

N = 101  # BA m=2 at this n is sparse, so build_shift gives a CSR S


def _shift(seed, symmetric):
    S = build_shift(generate_ba(N, 2, seed)).matrix
    assert S.format == "csr"
    if symmetric:
        return S
    dense = S.toarray()
    return csr_array(dense + np.triu(np.random.default_rng(seed).normal(size=(N, N)) * (dense != 0), 1))


def _specs(L, act):
    widths = [3] + [4] * (L - 1) + [1]
    return tuple(LayerSpec(widths[k], widths[k + 1], act) for k in range(L))


@pytest.fixture
def split(monkeypatch):
    """Set whether kernel calls split: SPLIT_MIN 1 with three usable cores, or never."""
    monkeypatch.setattr(agents, "usable_cores", lambda: 3)

    def set_split(on):
        monkeypatch.setattr(agents, "SPLIT_MIN", 1 if on else 10**12)

    return set_split


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("act", ["leaky-relu", "tanh", "relu"])
def test_split_kernel_gives_the_serial_bytes(split, symmetric, L, act):
    """One work dict across calls that draw a new S of the same shape, as a
    topology redraw does, and change B; forward-only calls included."""
    specs = _specs(L, act)
    rng = np.random.default_rng(10 * L + symmetric)
    work = {}
    for i in range(4):
        S, B = _shift(i, symmetric), (1, 3)[i % 2]
        th0, th1 = stack_flat_params(specs, rng.normal(size=(N, sum(2 * s.g_in * s.g_out for s in specs))))
        X, y = rng.normal(size=(B, N, 3)), rng.normal(size=(B, N))
        split(False)
        serial = stacked_gradients(specs, th0, th1, S, X, y)
        split(True)
        got = stacked_gradients(specs, th0, th1, S, X, y, work)
        assert _same(got.yhat, serial.yhat) and _same(got.grads, serial.grads)
        assert _same(stacked_gradients(specs, th0, th1, S, X, None, work).yhat, serial.yhat)
    assert len(work) == 1


def test_the_split_runs_three_blocks(split, monkeypatch):
    split(True)
    seen = []
    real = agents._aggregate
    monkeypatch.setattr(agents, "_aggregate", lambda S, x, out: seen.append(len(out)) or real(S, x, out))
    specs = _specs(2, "tanh")
    th0, th1 = stack_flat_params(specs, np.ones((N, sum(2 * s.g_in * s.g_out for s in specs))))
    stacked_gradients(specs, th0, th1, _shift(0, True), np.ones((3, N, 3)), np.zeros((3, N)))
    assert sorted(seen) == [33] * 3 + [34] * 6  # two forward aggregations and one adjoint, per block


def test_more_cores_than_nodes_cut_one_block_per_node_row(split, monkeypatch):
    """n + 1 usable cores give n one-row blocks and the serial bytes."""
    specs = _specs(2, "tanh")
    rng = np.random.default_rng(5)
    th0, th1 = stack_flat_params(specs, rng.normal(size=(N, sum(2 * s.g_in * s.g_out for s in specs))))
    S, X, y = _shift(2, False), rng.normal(size=(3, N, 3)), rng.normal(size=(3, N))
    split(False)
    serial = stacked_gradients(specs, th0, th1, S, X, y)
    split(True)
    monkeypatch.setattr(agents, "usable_cores", lambda: N + 1)
    seen = []
    real = agents._aggregate
    monkeypatch.setattr(agents, "_aggregate", lambda S, x, out: seen.append(len(out)) or real(S, x, out))
    got = stacked_gradients(specs, th0, th1, S, X, y)
    assert _same(got.yhat, serial.yhat) and _same(got.grads, serial.grads)
    assert seen == [1] * (3 * N)


CONFIGS = [dict(optimizer="d-sgd"), dict(optimizer="d-amsgrad", topology_mode="redraw-per-batch")]


def _train(kw):
    cfg = RunConfig(n=120, n_train=12, n_test=4, batch=4, epochs=2, hidden=3, seed=3, **kw)
    return train_distributed(cfg).node_params.tobytes()


def test_concurrent_trainings_get_their_own_bytes(split):
    """Two threads train on CSR S and W at once, as compare's workers do."""
    split(True)
    alone = [_train(kw) for kw in CONFIGS]
    got = [None, None]
    threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, _train(CONFIGS[i]))) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert got == alone
    assert run_parallel([lambda kw=kw: _train(kw) for kw in CONFIGS], 2) == alone
    split(False)
    assert [_train(kw) for kw in CONFIGS] == alone


def test_a_failing_block_reaches_the_caller_and_the_next_call_succeeds(split, monkeypatch):
    split(True)
    specs = _specs(2, "leaky-relu")
    rng = np.random.default_rng(0)
    th0, th1 = stack_flat_params(specs, rng.normal(size=(N, sum(2 * s.g_in * s.g_out for s in specs))))
    S, X, y = _shift(1, True), rng.normal(size=(3, N, 3)), rng.normal(size=(3, N))
    work = {}
    good = stacked_gradients(specs, th0, th1, S, X, y, work)
    real = agents.apply_activation

    def failing(spec, h, out=None):
        if len(h) == 34:
            raise FloatingPointError("block failed")
        return real(spec, h, out=out)

    monkeypatch.setattr(agents, "apply_activation", failing)
    with pytest.raises(FloatingPointError, match="block failed"):
        stacked_gradients(specs, th0, th1, S, X, y, work)
    monkeypatch.setattr(agents, "apply_activation", real)
    again = stacked_gradients(specs, th0, th1, S, X, y, work)
    assert _same(again.yhat, good.yhat) and _same(again.grads, good.grads)


def test_run_parallel_returns_results_in_order_and_raises_a_task_error():
    assert run_parallel([lambda i=i: i * i for i in range(7)], 3) == [i * i for i in range(7)]

    def boom():
        raise KeyError("task")

    with pytest.raises(KeyError):
        run_parallel([lambda: 1, boom, lambda: 2], 3)


def test_run_parallel_raises_an_error_from_a_helper(monkeypatch):
    """Only a task off the calling thread raises: the calling thread's task waits until a helper has
    claimed the other one, so the error can only come back through the helper's job."""
    monkeypatch.setattr(agents, "usable_cores", lambda: 2)
    if agents._pool()[1] == 0:
        pytest.skip("the helper pool has no thread on a one-core host")
    caller, helped = threading.current_thread(), threading.Event()

    def task():
        if threading.current_thread() is caller:
            assert helped.wait(timeout=30), "no helper claimed a task"
            return
        helped.set()
        raise KeyError("helper")

    with pytest.raises(KeyError, match="helper"):
        run_parallel([task, task], 2)


def test_nested_run_parallel_runs_every_task_once_under_contention():
    """Four threads each run 20 outer tasks whose bodies run 10 inner tasks, all asking for
    more workers than there are cores, with a 1 µs switch interval to interleave the claims."""
    counts = np.zeros((4, 20, 10), dtype=int)

    def inner(t, j, i):
        counts[t, j, i] += 1
        return i

    def outer(t, j):
        return run_parallel([partial(inner, t, j, i) for i in range(10)], 8)

    got = [None] * 4
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda t=t: got.__setitem__(t, run_parallel(
            [partial(outer, t, j) for j in range(20)], 8))) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert got == [[list(range(10))] * 20] * 4
    assert (counts == 1).all()
