"""Synthetic node-regression data from a randomly drawn teacher network."""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .gcnn import LayerSpec, forward, init_params
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


def stack_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n, g0) features and (B, n) labels of B samples, as float64."""
    X = np.stack([s.X for s in samples]).astype(np.float64, copy=False)
    Y = np.stack([s.y for s in samples]).astype(np.float64, copy=False)
    return X, Y


def draw_features(plan, n: int, rng: np.random.Generator) -> np.ndarray:
    cols = []
    for kind, width in plan:
        if kind == "uniform":
            cols.append(rng.uniform(0.0, 1.0, (n, width)))
        elif kind == "normal":
            cols.append(rng.normal(0.0, 1.0, (n, width)))
        elif kind == "binary":
            cols.append(rng.integers(0, 2, (n, width)).astype(np.float64))
        else:
            block = np.zeros((n, width))
            block[np.arange(n), rng.integers(0, width, n)] = 1.0
            cols.append(block)
    return np.concatenate(cols, axis=1)


def draw_samples(teacher, shift, spec: DatasetSpec, count: int, rng: np.random.Generator) -> list[Sample]:
    """Draw `count` samples of (features, teacher output + noise) on one topology."""
    n = as_matrix(shift).shape[0]
    sigma = np.sqrt(spec.noise_var)
    samples = []
    for _ in range(count):
        X = draw_features(spec.feature_plan, n, rng)
        clean, _ = forward(teacher, shift, X)
        y = clean + rng.normal(0.0, sigma, n) if sigma > 0 else clean
        samples.append(Sample(X=X, y=y))
    return samples


def make_dataset(shift: ShiftOperator, spec: DatasetSpec):
    """Draw one teacher, then n_samples of (features, teacher output + noise) on `shift`."""
    rng = np.random.default_rng(spec.seed)
    teacher_seed = int(rng.integers(2**31))
    teacher = init_params(spec.teacher_specs, scheme="normal", seed=teacher_seed)
    return draw_samples(teacher, shift, spec, spec.n_samples, rng), teacher


def train_test_split(samples, fraction: float, seed: int):
    """Deterministic disjoint split; the two parts partition the input."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    cut = int(fraction * len(samples))
    train = [samples[i] for i in order[:cut]]
    test = [samples[i] for i in order[cut:]]
    return train, test


def save_dataset(samples, spec: DatasetSpec, n_nodes: int, out_dir: str | Path) -> None:
    """CSV bundle: features.csv (sample-major node rows), labels.csv, spec.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    feat_lines = []
    label_lines = []
    for s in samples:
        for row in s.X:
            feat_lines.append(",".join(repr(float(v)) for v in row))
        label_lines.append(",".join(repr(float(v)) for v in s.y))
    (out / "features.csv").write_text("\n".join(feat_lines) + "\n")
    (out / "labels.csv").write_text("\n".join(label_lines) + "\n")
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
    """Inverse of save_dataset; returns (samples, metadata dict). A bundle
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
    samples = [
        Sample(X=feats[k * n : (k + 1) * n], y=labels[k]) for k in range(meta["n_samples"])
    ]
    return samples, meta
