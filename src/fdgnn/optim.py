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

from .graphs import as_matrix

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
    """First/second moment buffers; vhat only for the max-normalized variant."""

    m: np.ndarray
    v: np.ndarray
    vhat: np.ndarray | None = None
    t: int = 0

    @classmethod
    def zeros(cls, shape, with_vhat: bool = False) -> "MomentState":
        return cls(
            m=np.zeros(shape),
            v=np.zeros(shape),
            vhat=np.zeros(shape) if with_vhat else None,
        )


def consensus_round(values: np.ndarray, W) -> np.ndarray:
    """One neighbor-averaging round; preserves the mean exactly for doubly
    stochastic weights."""
    Wm = as_matrix(W)
    values = np.asarray(values, dtype=np.float64)
    if values.shape[0] != Wm.shape[0]:
        raise ValueError(
            f"need one row per node: {values.shape[0]} rows vs {Wm.shape[0]} nodes"
        )
    return Wm @ values


def run_consensus(values: np.ndarray, W, rounds: int) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    for _ in range(rounds):
        out = consensus_round(out, W)
    return out


def _adam_step(moments: MomentState, grads, cfg, alpha) -> np.ndarray:
    """Advance the moments by one step and return the bias-corrected Adam step."""
    moments.t += 1
    moments.m = cfg.beta1 * moments.m + (1.0 - cfg.beta1) * grads
    moments.v = cfg.beta2 * moments.v + (1.0 - cfg.beta2) * grads**2
    m_hat = moments.m / (1.0 - cfg.beta1**moments.t)
    v_hat = moments.v / (1.0 - cfg.beta2**moments.t)
    return alpha * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def dsgd_update(thetas, W, alpha_t, batch_grads, premixed=None):
    """Mix the parameter rows, subtract the per-node summed batch gradient."""
    psi = consensus_round(thetas, W) if premixed is None else premixed
    return psi - alpha_t * batch_grads


def dadam_update(thetas, moments: MomentState, W, alpha_t, batch_grads, cfg, premixed=None):
    """Parameter consensus followed by a local bias-corrected adaptive step.

    Moments stay strictly local, so they can drift apart across nodes when
    local gradients differ.
    """
    psi = consensus_round(thetas, W) if premixed is None else premixed
    return psi - _adam_step(moments, batch_grads, cfg, alpha_t)


def damsgrad_update(thetas, moments: MomentState, W, alpha_t, batch_grads, cfg, premixed=None):
    """Consensus on parameters and first moments, then a max-normalized step.

    vhat is a running coordinatewise maximum of the second moment and never
    decreases. No bias correction, matching the max-normalized scheme.
    """
    if moments.vhat is None:
        raise ValueError("moments must carry a vhat buffer")
    psi = consensus_round(thetas, W) if premixed is None else premixed
    moments.t += 1
    m_mixed = consensus_round(moments.m, W)
    v_prev = consensus_round(moments.v, W) if cfg.consensus_on_v else moments.v
    moments.m = cfg.beta1 * m_mixed + (1.0 - cfg.beta1) * batch_grads
    moments.v = cfg.beta2 * v_prev + (1.0 - cfg.beta2) * batch_grads**2
    moments.vhat = np.maximum(moments.vhat, moments.v)
    return psi - alpha_t * moments.m / (np.sqrt(moments.vhat) + cfg.epsilon)


def dnaive_update(thetas, W, K, alpha_t, grads):
    """Step each node on K consensus rounds of its (n, dim) batch-summed
    gradients. Consensus is linear, so a per-sample schedule's sum of mixed
    sample gradients equals this up to rounding; it only bills more rounds."""
    if K < 1:
        raise ValueError("consensus round count K must be >= 1")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ValueError("d-naive needs (n, dim) batch-summed gradients")
    return np.asarray(thetas, dtype=np.float64) - alpha_t * run_consensus(grads, W, K)


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
    return theta - _adam_step(moments, grad, cfg, alpha)


class CentralOptimizer:
    """Stateful wrapper for the centralized baseline kinds."""

    def __init__(self, cfg: OptimizerConfig, dim: int):
        if cfg.kind not in CENTRAL_KINDS:
            raise ValueError(f"{cfg.kind!r} is not a centralized kind")
        self.cfg = cfg
        self.moments = MomentState.zeros(dim) if cfg.kind == "central-adam" else None

    def step(self, theta, grad, alpha_t):
        return central_update(theta, grad, self.cfg, self.moments, alpha_t)


class DistOptimizer:
    """Network-wide state for the distributed update kinds.

    `mix` produces the working copies a mini-batch computes its gradients at;
    `apply` finishes the update from those gradients. The naive kind skips
    parameter mixing entirely.
    """

    def __init__(self, cfg: OptimizerConfig, n: int, dim: int):
        if cfg.kind not in DIST_KINDS:
            raise ValueError(f"{cfg.kind!r} is not a distributed kind")
        self.cfg = cfg
        if cfg.kind in ("d-adam", "d-amsgrad"):
            self.moments = MomentState.zeros((n, dim), with_vhat=cfg.kind == "d-amsgrad")
        else:
            self.moments = None

    def mix(self, thetas, W) -> np.ndarray:
        if self.cfg.kind in DO_KINDS:
            return consensus_round(thetas, W)
        return np.asarray(thetas, dtype=np.float64)

    def apply(self, thetas, psi, W, grads, alpha_t):
        """Finish the update from (n, dim) batch-summed gradients evaluated at `psi`."""
        kind = self.cfg.kind
        if kind == "d-sgd":
            return dsgd_update(thetas, W, alpha_t, grads, premixed=psi)
        if kind == "d-adam":
            return dadam_update(thetas, self.moments, W, alpha_t, grads, self.cfg, premixed=psi)
        if kind == "d-amsgrad":
            return damsgrad_update(thetas, self.moments, W, alpha_t, grads, self.cfg, premixed=psi)
        return dnaive_update(thetas, W, self.cfg.K, alpha_t, grads)
