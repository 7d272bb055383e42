"""Graph topologies: random generators, shift operators, consensus weights."""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SHIFT_VARIANTS = (
    "adjacency",
    "laplacian",
    "normalized-adjacency",
    "normalized-laplacian",
)


class GraphGenerationError(RuntimeError):
    """A random generator failed to produce a usable (connected) graph."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..n-1.

    Edges are normalized to sorted (i, j) pairs with i < j; adjacency lists
    are precomputed for neighbor lookups.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            seen.add((min(i, j), max(i, j)))
        norm = tuple(sorted(seen))
        object.__setattr__(self, "edges", norm)
        adj = [[] for _ in range(self.n)]
        for i, j in norm:
            adj[i].append(j)
            adj[j].append(i)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._adj[i]

    def degree(self, i: int) -> int:
        return len(self._adj[i])

    @property
    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self._adj], dtype=np.int64)

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and j in self._adj[i]

    def is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


class _Stored:
    """An n x n matrix held as `matrix`: a dense array, or on a sparse graph a
    scipy `csr_array` whose `indptr`, `indices` and `data` buffers are also
    plain array attributes, so that counts of held arrays see them."""

    def __post_init__(self):
        if not isinstance(m := self.matrix, np.ndarray):
            vars(self).update(indptr=m.indptr, indices=m.indices, data=m.data)

    def dense(self) -> np.ndarray:
        """The dense array; built on each read when the matrix is CSR."""
        return self.matrix if isinstance(self.matrix, np.ndarray) else self.matrix.toarray()


def as_matrix(m):
    """The matrix a product uses: a stored operator's own form, a scipy
    sparse matrix as it is, and anything else as a float64 array."""
    if isinstance(m, _Stored):
        return m.matrix
    return m if hasattr(m, "tocsr") else np.asarray(m, dtype=np.float64)


@dataclass(frozen=True)
class ShiftOperator(_Stored):
    """Mixing matrix whose support is restricted to closed neighborhoods."""

    variant: str
    matrix: object
    S = property(_Stored.dense)


@dataclass(frozen=True)
class ConsensusWeights(_Stored):
    """Doubly stochastic neighbor-averaging matrix."""

    matrix: object
    W = property(_Stored.dense)


def generate_ba(n: int, m: int, seed: int) -> Graph:
    """Preferential-attachment graph: each new node attaches m edges.

    Starts from a complete clique on the first m nodes, so the result is
    always connected and has m*(n-m) + m*(m-1)//2 edges.
    """
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    # One entry per unit of degree; sampling from it is degree-proportional.
    endpoints: list[int] = [v for e in edges for v in e]
    for new in range(m, n):
        targets: set[int] = set()
        while len(targets) < m:
            if endpoints:
                targets.add(endpoints[int(rng.integers(len(endpoints)))])
            else:
                targets.add(int(rng.integers(new)))
        for t in sorted(targets):
            edges.append((t, new))
            endpoints.extend((t, new))
    return Graph(n, tuple(edges))


def generate_er(n: int, p: float, seed: int, max_tries: int = 100) -> Graph:
    """Connected G(n, p) sample; resamples until connected, up to max_tries."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability must be in (0, 1], got {p}")
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(n, 1)
    for _ in range(max_tries):
        keep = rng.random(i.size) < p
        g = Graph(n, tuple(zip(i[keep].tolist(), j[keep].tolist())))
        if g.is_connected():
            return g
    raise GraphGenerationError(
        f"no connected G({n}, {p}) sample in {max_tries} tries"
    )


def _matrix(n: int, i, j, w, diag=None):
    """The symmetric matrix with w on the edges (i, j) and `diag` on the
    diagonal (None: one minus the row's off-diagonal sum). It is CSR, with
    every diagonal entry stored, when the graph is sparse: its closed
    neighbourhoods hold at most n^2/16 entries. Only then is scipy imported.
    """
    w = np.broadcast_to(w, i.shape)
    if 16 * (n + 2 * len(i)) > n * n:
        M = np.zeros((n, n))
        M[i, j] = w
        M[j, i] = w
        np.fill_diagonal(M, 1.0 - M.sum(axis=1) if diag is None else diag)
        return M
    from scipy.sparse import csr_array

    if diag is None:
        diag = 1.0 - np.bincount(np.concatenate([i, j]), np.concatenate([w, w]), n)
    k = np.arange(n)
    entries = np.concatenate([w, w, np.broadcast_to(diag, k.shape)])
    return csr_array((entries, (np.concatenate([i, j, k]), np.concatenate([j, i, k]))), shape=(n, n))


def build_shift(g: Graph, variant: str = "normalized-adjacency") -> ShiftOperator:
    """Build the requested mixing matrix straight from the edge list."""
    if variant not in SHIFT_VARIANTS:
        raise ValueError(f"unknown shift variant {variant!r}")
    i, j = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    d = g.degrees.astype(np.float64)
    if variant.startswith("normalized"):
        dinv = np.where(d > 0, d, 1.0) ** -0.5  # an isolated node's entry is never read
        w = dinv[i] * dinv[j]
    else:
        w = 1.0
    diag = 0.0
    if variant.endswith("laplacian"):
        w = -w
        diag = 1.0 if variant == "normalized-laplacian" else d
    return ShiftOperator(variant, _matrix(g.n, i, j, w, diag))


def metropolis_weights(g: Graph) -> ConsensusWeights:
    """Degree-based symmetric doubly stochastic averaging weights.

    Off-diagonal entries are 1 / (1 + max(d(i), d(j))) on edges; diagonals
    absorb the remainder so every row sums to one.
    """
    i, j = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    d = g.degrees
    return ConsensusWeights(_matrix(g.n, i, j, 1.0 / (1.0 + np.maximum(d[i], d[j]))))


def metropolis_row(degree: int, neighbor_degrees: dict[int, int]) -> dict[int, float]:
    """One node's averaging weights, computable from its own and neighbor degrees."""
    return {j: 1.0 / (1.0 + max(degree, dj)) for j, dj in neighbor_degrees.items()}


def save_edge_list(g: Graph, path: str | Path) -> None:
    """Write `n` on the first line, then one ascending `i j` pair per line."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> Graph:
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"empty graph file {path}")
    n = int(text[0])
    edges = []
    for line in text[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, tuple(edges))
