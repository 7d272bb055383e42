"""Shared-parameter graph convolution: containers, forward pass, loss, dense gradient.

Each layer combines a self term X @ T0 with a neighborhood term (S @ X) @ T1,
followed by an element-wise activation. The dense implementations here are the
reference against which the per-node message-passing pipeline is validated.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import as_matrix

ACTIVATIONS = ("identity", "relu", "leaky-relu", "tanh")

FLATTEN_ORDER = "layer-major, self-weights before neighborhood-weights, row-major"


@dataclass(frozen=True)
class LayerSpec:
    """Width and activation of one convolution layer."""

    g_in: int
    g_out: int
    activation: str = "identity"
    slope: float = 0.01  # negative-branch slope, leaky-relu only

    def __post_init__(self):
        if self.g_in < 1 or self.g_out < 1:
            raise ValueError(f"layer widths must be >= 1, got {self.g_in}x{self.g_out}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        # Only here is max(h, slope*h) bitwise where(h > 0, h, slope*h); at 0, h = +inf gives NaN.
        if not 0.0 < self.slope <= 1.0:
            raise ValueError(f"slope must lie in (0, 1], got {self.slope}")


def apply_activation(spec: LayerSpec, h: np.ndarray, out=None) -> np.ndarray:
    if spec.activation == "identity":
        return h
    if spec.activation == "relu":
        return np.maximum(h, 0.0, out=out)
    if spec.activation == "leaky-relu":
        return np.maximum(h, np.multiply(h, spec.slope, out=out), out=out)
    return np.tanh(h, out=out)


def activation_derivative(spec: LayerSpec, h: np.ndarray, out=None) -> np.ndarray:
    # At the kink (and at NaN) the derivative follows the negative branch, so
    # distributed and dense passes agree bitwise. `out` may be h itself.
    if spec.activation == "identity":
        return np.ones_like(h)
    if spec.activation == "tanh":
        t = np.tanh(h, out=out)
        return np.subtract(1.0, np.square(t, out=t), out=t)
    d = (h > 0.0).astype(np.float64) if out is None else np.greater(h, 0.0, out=out)
    return d if spec.activation == "relu" else np.maximum(d, spec.slope, out=d)  # 1.0 or the slope


def validate_specs(specs: tuple[LayerSpec, ...]) -> None:
    if not specs:
        raise ValueError("need at least one layer")
    for a, b in zip(specs, specs[1:]):
        if a.g_out != b.g_in:
            raise ValueError(f"width mismatch between layers: {a.g_out} -> {b.g_in}")


def num_params(specs: tuple[LayerSpec, ...]) -> int:
    return sum(2 * s.g_in * s.g_out for s in specs)


def param_slices(specs: tuple[LayerSpec, ...]) -> list[tuple[slice, slice]]:
    """Flat-vector slices of (self, neighborhood) weights for each layer."""
    out = []
    pos = 0
    for s in specs:
        size = s.g_in * s.g_out
        out.append((slice(pos, pos + size), slice(pos + size, pos + 2 * size)))
        pos += 2 * size
    return out


def layer_views(specs, flat: np.ndarray):
    """Per-layer (self, neighborhood) weight views, of shape (..., g_in, g_out),
    of flat parameters of shape (..., dim): one vector or one row per node."""
    lead = flat.shape[:-1]
    theta0, theta1 = [], []
    for s, (sl0, sl1) in zip(specs, param_slices(specs)):
        theta0.append(flat[..., sl0].reshape(*lead, s.g_in, s.g_out))
        theta1.append(flat[..., sl1].reshape(*lead, s.g_in, s.g_out))
    return theta0, theta1


class ParamSet:
    """Per-layer weight pairs (self term, neighborhood term), viewed out of one
    flat float64 vector `flat` in FLATTEN_ORDER. The constructor packs the given
    weights into a new vector; flatten and from_flat are exact inverses.
    """

    __slots__ = ("specs", "flat", "theta0", "theta1")

    def __init__(self, specs, theta0, theta1):
        specs = tuple(specs)
        validate_specs(specs)
        if len(theta0) != len(specs) or len(theta1) != len(specs):
            raise ValueError("one weight pair required per layer")
        self.specs, self.flat = specs, np.zeros(num_params(specs))
        self.theta0, self.theta1 = layer_views(specs, self.flat)
        for dst, src in zip(self.theta0 + self.theta1, [*theta0, *theta1]):
            if src.shape != dst.shape:
                raise ValueError(f"weight shape {src.shape} != {dst.shape}")
            dst[...] = src

    @property
    def n_layers(self) -> int:
        return len(self.specs)

    @property
    def dim(self) -> int:
        return num_params(self.specs)

    def flatten(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, specs, flat: np.ndarray) -> "ParamSet":
        """Wrap a flat vector without copying it: the weights are views of a
        contiguous float64 `flat`, so a write to either shows in the other.
        Any other dtype or memory layout is converted to one first."""
        specs = tuple(specs)
        validate_specs(specs)
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (num_params(specs),):
            raise ValueError(f"flat vector length {flat.shape} != ({num_params(specs)},)")
        params = cls.__new__(cls)
        params.specs, params.flat = specs, flat
        params.theta0, params.theta1 = layer_views(specs, flat)
        return params


def init_params(specs, scheme: str = "glorot", seed: int = 0) -> ParamSet:
    """Draw a fresh ParamSet; deterministic for a given seed.

    Schemes: glorot (uniform within +-sqrt(6/(g_in+g_out))), zeros, and
    normal (N(0, 1/g_in), used for randomly drawn teacher networks). Each
    layer draws its self weights, then its neighborhood weights.
    """
    specs = tuple(specs)
    params = ParamSet.from_flat(specs, np.zeros(num_params(specs)))
    rng = np.random.default_rng(seed)
    for s, t0, t1 in zip(specs, params.theta0, params.theta1):
        for t in (t0, t1):
            if scheme == "glorot":
                bound = np.sqrt(6.0 / (s.g_in + s.g_out))
                t[...] = rng.uniform(-bound, bound, t.shape)
            elif scheme == "normal":
                t[...] = rng.normal(0.0, 1.0 / np.sqrt(s.g_in), t.shape)
            elif scheme != "zeros":
                raise ValueError(f"unknown init scheme {scheme!r}")
    return params


@dataclass
class Activations:
    """Forward caches: x[l] are layer outputs (x[0] is the input), h[l] the
    pre-activations of layer l+1, a[l] the neighbor aggregates S @ x[l]."""

    x: list = field(default_factory=list)
    h: list = field(default_factory=list)
    a: list = field(default_factory=list)


def forward(params: ParamSet, shift, X: np.ndarray):
    """Run all layers; returns the prediction column and the cached activations.

    X is (n, g0) for one sample or (B, n, g0) for a batch, giving an (n,) or
    a (B, n) prediction; each sample of a batch goes through the same matrix
    products as it would alone. A CSR shift aggregates a batch in one product
    over the node-major (n, B*g) view; CSR products add each output column on
    its own, so that too is bitwise the per-sample result.
    """
    S = as_matrix(shift)
    X = np.asarray(X, dtype=np.float64)
    n, g0 = S.shape[0], params.specs[0].g_in
    if X.ndim not in (2, 3) or X.shape[-2:] != (n, g0):
        raise ValueError(f"features must be ({n}, {g0}) or (B, {n}, {g0}), got {X.shape}")
    if params.specs[-1].g_out != 1:
        raise ValueError("prediction network must end in a width-1 layer")
    acts = Activations(x=[X])
    cur = X
    for spec, t0, t1 in zip(params.specs, params.theta0, params.theta1):
        if cur.ndim == 3 and not isinstance(S, np.ndarray):
            agg = (S @ cur.transpose(1, 0, 2).reshape(n, -1)).reshape(n, len(cur), -1).transpose(1, 0, 2)
        else:
            agg = S @ cur
        h = cur @ t0 + agg @ t1
        acts.a.append(agg)
        acts.h.append(h)
        cur = apply_activation(spec, h)
        acts.x.append(cur)
    return cur[..., 0].copy(), acts


def node_losses(y: np.ndarray, yhat: np.ndarray) -> np.ndarray:
    """Per-node squared errors."""
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    return (y - yhat) ** 2


def mse_loss(y: np.ndarray, yhat: np.ndarray) -> float:
    """Mean over nodes of the squared errors."""
    return float(np.mean(node_losses(y, yhat)))


def central_gradient(params: ParamSet, shift, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact flat gradient of mse_loss(forward(...)) via dense backpropagation."""
    S = as_matrix(shift)
    y = np.asarray(y, dtype=np.float64)
    yhat, acts = forward(params, shift, X)
    if y.shape != yhat.shape:
        raise ValueError(f"labels must be ({yhat.shape[0]},), got {y.shape}")
    n = y.shape[0]
    grad = np.zeros(params.dim)
    slices = param_slices(params.specs)
    z = (2.0 / n) * (yhat - y)[:, None]
    for k in reversed(range(params.n_layers)):
        spec = params.specs[k]
        q = z * activation_derivative(spec, acts.h[k])
        grad[slices[k][0]] = (acts.x[k].T @ q).ravel()
        grad[slices[k][1]] = (acts.a[k].T @ q).ravel()
        if k > 0:
            z = q @ params.theta0[k].T + S.T @ (q @ params.theta1[k].T)
    return grad


def fd_gradient(specs, theta: np.ndarray, shift, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Central differences (step 1e-6) of mse_loss(forward(...)): an oracle using only the forward pass."""
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        bumped = theta.copy()
        bumped[k] += 1e-6
        hi, _ = forward(ParamSet.from_flat(specs, bumped), shift, X)
        bumped[k] -= 2e-6
        lo, _ = forward(ParamSet.from_flat(specs, bumped), shift, X)
        grad[k] = (mse_loss(y, hi) - mse_loss(y, lo)) / 2e-6
    return grad


def save_params(params: ParamSet, path: str | Path) -> None:
    """Checkpoint as JSON: layer widths, activations, and the flat weight vector."""
    payload = {
        "widths": [params.specs[0].g_in] + [s.g_out for s in params.specs],
        "activations": [s.activation for s in params.specs],
        "slopes": [s.slope for s in params.specs],
        "flatten_order": FLATTEN_ORDER,
        "theta": params.flatten().tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def load_params(path: str | Path) -> ParamSet:
    payload = json.loads(Path(path).read_text())
    widths = payload["widths"]
    specs = tuple(
        LayerSpec(widths[i], widths[i + 1], payload["activations"][i], payload["slopes"][i])
        for i in range(len(widths) - 1)
    )
    return ParamSet.from_flat(specs, np.array(payload["theta"], dtype=np.float64))
