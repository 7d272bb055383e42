"""Consensus mixing and the distributed gradient-descent update family.

Distributed updates operate on stacked per-node rows: thetas is (n, dim) with
one parameter copy per row, gradients likewise. One update step mixes the
parameter rows through the consensus weights and subtracts a locally
aggregated gradient:

    theta_i <- sum_j W_ij theta_j - alpha_t * f(local batch gradients of i)

The batch gradients handed to an update are evaluated at the already-mixed
copies (mix, then adapt). On topologies where one round of averaging is exact
this makes the node-mean trajectory coincide with centralized gradient
descent, which the test suite checks to tight tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import as_matrix, matmul_into

CENTRAL_KINDS = ("central-sgd", "central-adam")
DIST_KINDS = ("d-naive", "d-sgd", "d-adam", "d-amsgrad")
OPTIMIZER_KINDS = CENTRAL_KINDS + DIST_KINDS
DO_KINDS = ("d-sgd", "d-adam", "d-amsgrad")


@dataclass
class OptimizerConfig:
    kind: str
    alpha: float = 1e-3
    decay: float = 1.0  # per-step multiplicative learning-rate factor
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    K: int = 1  # gradient-consensus rounds, d-naive only
    consensus_on_v: bool = False  # d-amsgrad: also average the second moment

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        # alpha = 0 is allowed as a degenerate frozen run.
        if not 0.0 <= self.alpha < np.inf:
            raise ValueError("learning rate must be finite and >= 0")
        if not 0.0 < self.decay < np.inf:
            raise ValueError("decay factor must be finite and positive")
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("momentum factors must lie in [0, 1)")
        if self.K < 1:
            raise ValueError("consensus round count K must be >= 1")


@dataclass
class MomentState:
    """First/second moment buffers; vhat only for the max-normalized variant; `spare`, made by the
    first moment mix, is what the next one writes into."""

    m: np.ndarray
    v: np.ndarray
    vhat: np.ndarray | None = None
    t: int = 0
    spare: np.ndarray | None = None

    @classmethod
    def zeros(cls, shape, with_vhat: bool = False) -> "MomentState":
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape) if with_vhat else None)


def consensus_round(values: np.ndarray, W, out=None) -> np.ndarray:
    """One neighbor-averaging round, written into `out` (a new array where
    None); preserves the mean exactly for doubly stochastic weights."""
    Wm = as_matrix(W)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != Wm.shape[0]:
        raise ValueError(f"need one row per node: {values.shape[0]} rows vs {Wm.shape[0]} nodes")
    return matmul_into(Wm, values, np.empty(values.shape) if out is None else out)


def run_consensus(values: np.ndarray, W, rounds: int, bufs=(None, None)) -> np.ndarray:
    """`rounds` consensus rounds, written into bufs[0], bufs[1], bufs[0], ... (new arrays for None)."""
    out = np.asarray(values, dtype=np.float64)
    for k in range(rounds):
        out = consensus_round(out, W, bufs[k % 2])
    return out


def row_chunks(a: np.ndarray, size: int = 1 << 13):
    """Slices of a's leading axis of at most `size` elements (or one row): a step's temporaries over
    one chunk, 64 KB each, reuse heap memory where (n, dim) ones would be mapped afresh."""
    rows = max(1, size * len(a) // max(a.size, 1))
    return (slice(i, i + rows) for i in range(0, len(a), rows))


def _moment_update(base, moments: MomentState, grads, cfg, alpha, out=None, max_normalized=False) -> np.ndarray:
    """Advance the moments in place and write base - alpha m_hat / (sqrt(v_hat) + epsilon) into `out`
    (new for None) by row chunks: Adam's bias-corrected moments, or, max-normalized, m and vhat, the
    running maximum of v."""
    moments.t += 1
    out = np.empty(np.shape(base)) if out is None else out
    for r in row_chunks(out):
        m, v, g = moments.m[r], moments.v[r], grads[r]
        scratch = (1.0 - cfg.beta1) * g
        np.add(np.multiply(m, cfg.beta1, out=m), scratch, out=m)
        np.multiply(np.square(g, out=scratch), 1.0 - cfg.beta2, out=scratch)
        np.add(np.multiply(v, cfg.beta2, out=v), scratch, out=v)
        if max_normalized:
            step, v_hat = alpha * m, np.maximum(moments.vhat[r], v, out=moments.vhat[r])
        else:
            step = np.divide(m, 1.0 - cfg.beta1**moments.t)
            step *= alpha
            v_hat = np.divide(v, 1.0 - cfg.beta2**moments.t, out=scratch)
        step /= np.add(np.sqrt(v_hat, out=scratch), cfg.epsilon, out=scratch)
        np.subtract(base[r], step, out=out[r])
    return out


def dsgd_update(psi, alpha_t, batch_grads, out=None):
    """Subtract the per-node summed batch gradient from the mixed rows psi, into `out` (new for None)."""
    out = np.empty(np.shape(psi)) if out is None else out
    for r in row_chunks(out):
        np.subtract(psi[r], alpha_t * batch_grads[r], out=out[r])
    return out


def dadam_update(psi, moments: MomentState, alpha_t, batch_grads, cfg, out=None):
    """A local bias-corrected adaptive step from the mixed rows psi.

    Moments stay strictly local, so they can drift apart across nodes when
    local gradients differ.
    """
    return _moment_update(psi, moments, batch_grads, cfg, alpha_t, out)


def damsgrad_update(psi, moments: MomentState, W, alpha_t, batch_grads, cfg, out=None):
    """Consensus on the first moments, then a max-normalized step from psi.

    vhat is a running coordinatewise maximum of the second moment and never
    decreases. No bias correction, matching the max-normalized scheme.
    """
    if moments.vhat is None:
        raise ValueError("moments must carry a vhat buffer")
    moments.m, moments.spare = consensus_round(moments.m, W, moments.spare), moments.m
    if cfg.consensus_on_v:
        moments.v, moments.spare = consensus_round(moments.v, W, moments.spare), moments.v
    return _moment_update(psi, moments, batch_grads, cfg, alpha_t, out, max_normalized=True)


def dnaive_update(thetas, W, K, alpha_t, grads, out=None, bufs=(None, None)):
    """Step each node, into `out` (new for None), on K consensus rounds of its (n, dim) batch-summed
    gradients, mixed in `bufs` as `run_consensus` does. Consensus is linear, so a per-sample schedule's
    sum of mixed sample gradients equals this up to rounding; it only bills more rounds."""
    if K < 1:
        raise ValueError("consensus round count K must be >= 1")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ValueError("d-naive needs (n, dim) batch-summed gradients")
    mixed = run_consensus(grads, W, K, bufs)
    return np.subtract(thetas, np.multiply(mixed, alpha_t, out=mixed), out=out)


def central_update(theta, grad, cfg: OptimizerConfig, moments: MomentState | None = None, alpha_t=None):
    """One centralized step on a flat parameter vector."""
    alpha = cfg.alpha if alpha_t is None else alpha_t
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if cfg.kind == "central-sgd":
        return theta - alpha * grad
    if cfg.kind != "central-adam":
        raise ValueError(f"{cfg.kind!r} is not a centralized kind")
    if moments is None:
        raise ValueError("adam needs a MomentState")
    return _moment_update(theta, moments, grad, cfg, alpha)


class DistOptimizer:
    """Network-wide state for the distributed update kinds.

    `mix`, the only code that mixes parameter rows, gives the copies psi a
    mini-batch computes its gradients at; `apply` finishes the update from psi
    and those gradients. The naive kind's psi is its unmixed rows.
    """

    def __init__(self, cfg: OptimizerConfig, n: int, dim: int):
        if cfg.kind not in DIST_KINDS:
            raise ValueError(f"{cfg.kind!r} is not a distributed kind")
        self.cfg = cfg
        adaptive = cfg.kind in ("d-adam", "d-amsgrad")
        self.moments = MomentState.zeros((n, dim), with_vhat=cfg.kind == "d-amsgrad") if adaptive else None
        # The (n, dim) rows an update writes: psi, or the two d-naive's consensus rounds alternate in.
        self._held = [np.empty((n, dim)) for _ in range(1 if cfg.kind in DO_KINDS else 2)]

    def mix(self, thetas, W) -> np.ndarray:
        """psi, in rows the optimizer holds and the next mix overwrites; d-naive's are `thetas`."""
        if self.cfg.kind in DO_KINDS:
            return consensus_round(thetas, W, self._held[0])
        return np.asarray(thetas, dtype=np.float64)

    def apply(self, psi, W, grads, alpha_t, out=None):
        """Write the update from `mix`'s rows psi and their (n, dim) batch-summed gradients into `out`,
        the parameter rows themselves (new for None)."""
        kind = self.cfg.kind
        if kind == "d-sgd":
            return dsgd_update(psi, alpha_t, grads, out)
        if kind == "d-adam":
            return dadam_update(psi, self.moments, alpha_t, grads, self.cfg, out)
        if kind == "d-amsgrad":
            return damsgrad_update(psi, self.moments, W, alpha_t, grads, self.cfg, out)
        return dnaive_update(psi, W, self.cfg.K, alpha_t, grads, out, self._held)
