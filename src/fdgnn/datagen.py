"""Synthetic node-regression data from a randomly drawn teacher network."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcnn import LayerSpec, init_params, predict
from .graphs import ShiftOperator, as_matrix

FEATURE_KINDS = ("uniform", "normal", "binary", "one-hot")

# 10 input columns: 4 uniform(0,1), 2 standard normal, 1 Bernoulli(0.5),
# one 3-way one-hot block.
DEFAULT_FEATURE_PLAN = (
    ("uniform", 4),
    ("normal", 2),
    ("binary", 1),
    ("one-hot", 3),
)


def default_teacher_specs(g0: int = 10, hidden: int = 16) -> tuple[LayerSpec, ...]:
    return (LayerSpec(g0, hidden, "leaky-relu"), LayerSpec(hidden, 1, "identity"))


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a dataset: feature mixture, teacher architecture, noise."""

    n_samples: int
    feature_plan: tuple = DEFAULT_FEATURE_PLAN
    teacher_specs: tuple = field(default_factory=default_teacher_specs)
    noise_var: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if not 0.0 <= self.noise_var < np.inf:
            raise ValueError("noise variance must be finite and >= 0")
        for kind, width in self.feature_plan:
            if kind not in FEATURE_KINDS:
                raise ValueError(f"unknown feature kind {kind!r}")
            if width < 1 or (kind == "one-hot" and width < 2):
                raise ValueError(f"bad width {width} for feature kind {kind!r}")
        if self.teacher_specs[0].g_in != self.g0:
            raise ValueError(
                f"teacher input width {self.teacher_specs[0].g_in} != plan width {self.g0}"
            )
        if self.teacher_specs[-1].g_out != 1:
            raise ValueError("teacher must produce one output per node")

    @property
    def g0(self) -> int:
        return sum(width for _, width in self.feature_plan)


@dataclass(frozen=True)
class Sample:
    X: np.ndarray  # (n, g0)
    y: np.ndarray  # (n,)


@dataclass(frozen=True)
class Dataset:
    """N samples as read-only views of two arrays, X (N, n, g0) and y (N, n), so that runs
    can share them. An int index gives a `Sample` of views, a slice a `Dataset` of views."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("X", "y"):  # the caller's own arrays stay writable
            view = getattr(self, name).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.X)

    def __getitem__(self, i):
        return (Dataset if isinstance(i, slice) else Sample)(self.X[i], self.y[i])


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n, g0) features and (B, n) labels of B samples, as float64:
    a `Dataset`'s own arrays, not copied, or a sequence of `Sample`s stacked."""
    if not isinstance(samples, Dataset):
        samples = Dataset(np.stack([s.X for s in samples]), np.stack([s.y for s in samples]))
    return samples.X.astype(np.float64, copy=False), samples.y.astype(np.float64, copy=False)


def draw_features(plan, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """One sample's (n, g0) features, a block of columns per `plan` entry, into `out` if given."""
    out = np.empty((n, sum(width for _, width in plan))) if out is None else out
    col = 0
    for kind, width in plan:
        block, col = out[:, col : col + width], col + width
        if kind == "uniform":
            block[:] = rng.uniform(0.0, 1.0, (n, width))
        elif kind == "normal":
            block[:] = rng.normal(0.0, 1.0, (n, width))
        elif kind == "binary":
            block[:] = rng.integers(0, 2, (n, width))
        else:
            block[:] = 0.0
            block[np.arange(n), rng.integers(0, width, n)] = 1.0
    return out


def draw_samples(teacher, shift, spec: DatasetSpec, count: int, rng: np.random.Generator) -> Dataset:
    """Draw `count` samples of (features, teacher output + noise) on one topology:
    each sample's features, then its noise, and one chunked teacher pass after."""
    n = as_matrix(shift).shape[0]
    sigma = np.sqrt(spec.noise_var)
    X, noise = np.empty((count, n, spec.g0)), np.empty((count, n))
    for k in range(count):
        draw_features(spec.feature_plan, n, rng, out=X[k])
        if sigma > 0:
            noise[k] = rng.normal(0.0, sigma, n)
    clean = predict(teacher, shift, X)
    return Dataset(X, clean + noise if sigma > 0 else clean)


def make_dataset(shift: ShiftOperator, spec: DatasetSpec):
    """Draw one teacher, then n_samples of (features, teacher output + noise) on `shift`."""
    rng = np.random.default_rng(spec.seed)
    teacher_seed = int(rng.integers(2**31))
    teacher = init_params(spec.teacher_specs, scheme="normal", seed=teacher_seed)
    return draw_samples(teacher, shift, spec, spec.n_samples, rng), teacher


def save_dataset(samples, spec: DatasetSpec, n_nodes: int, out_dir: str | Path) -> None:
    """CSV bundle: features.csv (sample-major node rows), labels.csv, spec.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    X, Y = stack_samples(samples)
    for name, rows in (("features.csv", X.reshape(-1, X.shape[-1])), ("labels.csv", Y)):
        (out / name).write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    meta = {
        "n_samples": len(samples),
        "n_nodes": n_nodes,
        "g0": spec.g0,
        "feature_plan": [[k, w] for k, w in spec.feature_plan],
        "teacher_widths": [spec.teacher_specs[0].g_in]
        + [s.g_out for s in spec.teacher_specs],
        "noise_var": spec.noise_var,
        "seed": spec.seed,
    }
    (out / "spec.json").write_text(json.dumps(meta, indent=2))


def load_dataset(in_dir: str | Path):
    """Inverse of save_dataset; returns (`Dataset`, metadata dict). A bundle
    whose arrays do not match its spec, or hold a non-finite value, is a
    ValueError."""
    src = Path(in_dir)
    meta = json.loads((src / "spec.json").read_text())
    n, g0 = meta["n_nodes"], meta["g0"]
    feats = np.loadtxt(src / "features.csv", delimiter=",", ndmin=2)
    labels = np.loadtxt(src / "labels.csv", delimiter=",", ndmin=2)
    if feats.shape != (meta["n_samples"] * n, g0):
        raise ValueError(f"features shape {feats.shape} does not match spec")
    if labels.shape != (meta["n_samples"], n):
        raise ValueError(f"labels shape {labels.shape} does not match spec")
    if not (np.isfinite(feats).all() and np.isfinite(labels).all()):
        raise ValueError("dataset holds a non-finite feature or label")
    return Dataset(feats.reshape(-1, n, g0), labels), meta
