"""Large-n updates write into memory the run holds: the in-place product
`matmul_into` gives the bytes of `M @ x`; the parameter rows, psi and the
moment mixes are written in place, while each update's returned gradients and
predictions and every `thetas()` snapshot stay as they were; the split
kernel's CSR transpose of S is built once per S; the chunked consensus gap
keeps a NaN."""
from functools import partial

import numpy as np
import pytest
from scipy.sparse import csr_array

from fdgnn import agents, netsim, optim
from fdgnn.agents import _rows, stack_flat_params, stacked_gradients
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import build_shift, generate_ba, matmul_into
from fdgnn.netsim import Network, run_minibatch
from fdgnn.optim import OptimizerConfig

N = 101  # BA m=2 at this n is sparse, so build_shift gives a CSR S
S_CSR = build_shift(generate_ba(N, 2, 0)).matrix
SPECS = (LayerSpec(3, 4, "leaky-relu"), LayerSpec(4, 1))


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _operators():
    """(name, M) for a dense array, a CSR matrix, its CSC transpose and a `_rows` block view."""
    assert S_CSR.format == "csr" and S_CSR.T.format == "csc"
    return [("dense", S_CSR.toarray()), ("csr", S_CSR), ("csc", S_CSR.T), ("rows", _rows(S_CSR, 30, 71))]


@pytest.mark.parametrize("cols", [None, 1, 7])
def test_matmul_into_gives_the_bytes_of_the_product(cols):
    """A vector, a single column (a vector to scipy) and a block of columns."""
    rng = np.random.default_rng(cols or 0)
    for name, M in _operators():
        x = rng.normal(size=(M.shape[1],) if cols is None else (M.shape[1], cols))
        out = np.full((M.shape[0], *x.shape[1:]), np.nan)  # stale contents must not leak in
        assert matmul_into(M, x, out) is out, name
        assert _same(out, M @ x), name


@pytest.mark.parametrize(
    "bad",
    [
        lambda shape: np.empty(shape, dtype=np.float32),
        lambda shape: np.empty(shape, order="F"),
        lambda shape: np.empty((shape[0], 2 * shape[1]))[:, ::2],
        lambda shape: np.empty((shape[0] + 1, shape[1])),
        lambda shape: np.empty(shape[0] * shape[1]),
    ],
    ids=["float32", "fortran", "strided", "rows", "flat"],
)
def test_matmul_into_rejects_an_out_it_would_not_write(bad):
    """Handed a copy, the sparse routine would write into the copy silently."""
    x = np.ones((N, 5))
    for name, M in _operators():
        out = bad((M.shape[0], 5))
        with pytest.raises(ValueError, match="C-contiguous float64 out"):
            matmul_into(M, x, out)


def test_matmul_into_rejects_an_operand_of_the_wrong_length_or_one_that_overlaps_out():
    """The sparse routine would read past x, or read rows of x it has already written."""
    for name, M in _operators():
        with pytest.raises(ValueError):
            matmul_into(M, np.ones((M.shape[1] + 1, 2)), np.empty((M.shape[0], 2)))
        x = np.ones((max(M.shape), 2))
        with pytest.raises(ValueError, match="separate"):
            matmul_into(M, x[: M.shape[1]], x[: M.shape[0]])


def _net(kind, **kw):
    graph = generate_ba(N, 2, 1)
    shift = build_shift(graph)
    assert shift.matrix.format == "csr"
    return Network(graph, shift, init_params(SPECS, "glorot", 0), OptimizerConfig(kind, alpha=0.05, **kw))


KINDS = {
    "d-sgd": ("d-sgd", {}, "piggyback-do"),
    "d-adam": ("d-adam", {}, "piggyback-do"),
    "d-naive": ("d-naive", {"K": 3}, "per-batch-consensus"),
    "d-amsgrad": ("d-amsgrad", {}, "piggyback-do"),
    "d-amsgrad-v": ("d-amsgrad", {"consensus_on_v": True}, "piggyback-do"),
}


@pytest.mark.parametrize("engine", ["stacked", "agents"])
@pytest.mark.parametrize("name", list(KINDS))
def test_a_later_update_leaves_earlier_results_and_snapshots_alone(name, engine):
    kind, kw, strategy = KINDS[name]
    net = _net(kind, **kw)
    rng = np.random.default_rng(3)
    theta = net.theta
    kept = []
    for t in range(4):
        samples = [Sample(rng.normal(size=(N, 3)), rng.normal(size=N)) for _ in range(2)]
        res = run_minibatch(net, samples, strategy, engine=engine)
        snapshot = net.thetas()
        kept.append((res, snapshot, res.grads.copy(), res.yhat.copy(), snapshot.copy()))
    assert net.theta is theta  # the update writes the parameter rows in place
    for res, snapshot, grads, yhat, theta_t in kept:
        assert _same(res.grads, grads) and _same(res.yhat, yhat) and _same(snapshot, theta_t)
    assert not _same(kept[0][1], kept[-1][1])  # the rows did move


def test_held_rows_are_reused_and_each_moment_mix_trades_places_with_the_spare():
    net = _net("d-amsgrad", consensus_on_v=True)
    rng = np.random.default_rng(4)
    opt = net.optimizer
    seen = []
    for _ in range(3):
        samples = [Sample(rng.normal(size=(N, 3)), rng.normal(size=N)) for _ in range(2)]
        run_minibatch(net, samples, "piggyback-do")
        seen.append({id(a) for a in (opt._held[0], opt.moments.m, opt.moments.v, opt.moments.spare)})
    assert len(seen[0]) == 4 and seen[0] == seen[1] == seen[2]


def test_the_split_builds_the_transpose_of_s_once_per_s(monkeypatch):
    monkeypatch.setattr(agents, "usable_cores", lambda: 3)
    monkeypatch.setattr(agents, "SPLIT_MIN", 1)
    rng = np.random.default_rng(5)
    th0, th1 = stack_flat_params(SPECS, rng.normal(size=(N, 2 * (3 * 4 + 4))))
    X, y = rng.normal(size=(2, N, 3)), rng.normal(size=(2, N))
    work = {}
    stacked_gradients(SPECS, th0, th1, S_CSR, X, y, work)
    (bufs,) = work.values()
    S, ST = bufs.transposed
    assert S is S_CSR and ST.format == "csr" and _same(ST.toarray(), S_CSR.T.toarray())
    stacked_gradients(SPECS, th0, th1, S_CSR, X, None, work)
    stacked_gradients(SPECS, th0, th1, S_CSR, X, y, work)
    assert bufs.transposed[1] is ST
    other = csr_array(build_shift(generate_ba(N, 2, 9)).matrix)
    stacked_gradients(SPECS, th0, th1, other, X, y, work)
    assert bufs.transposed[0] is other and bufs.transposed[1] is not ST and len(work) == 1


@pytest.mark.parametrize("size", [1 << 13, 64, 1])
def test_consensus_gap_of_a_nan_row_is_nan(size, monkeypatch):
    """Whichever row chunk holds the NaN, it reaches the result; with finite rows, chunks of
    2 rows (64 elements) and of one row give the largest row norm's bytes."""
    monkeypatch.setattr(netsim, "row_chunks", partial(optim.row_chunks, size=size))
    net = _net("d-sgd")
    for row in (0, N // 2, N - 1):
        theta = np.random.default_rng(row).normal(size=net.theta.shape)
        net.set_thetas(theta)
        expected = float(np.max(np.linalg.norm(theta - theta.mean(axis=0), axis=1)))
        assert repr(net.consensus_gap()) == repr(expected)
        theta[row, 1] = np.nan
        net.set_thetas(theta)
        assert np.isnan(net.consensus_gap())
