"""Graph topologies: random generators, shift operators, consensus weights."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected simple graph on nodes 0..n-1, held in read-only int64 arrays: `pairs`, the
    sorted (i, j) edges with i < j, and the CSR adjacency `indptr`, `indices`, each row ascending.
    It is built from a tuple of pairs or an (E, 2) array, in any order, repeats included."""

    n: int
    pairs: np.ndarray

    def __init__(self, n: int, edges=()):
        if n < 1:
            raise ValueError("graph needs at least one node")
        e = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)  # one row per pair, or a ValueError
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        if (bad := (lo == hi) | (lo < 0) | (hi >= n)).any():  # the first bad pair, as given
            i, j = e[bad.argmax()].tolist()
            raise ValueError(f"self-loop on node {i}" if i == j else f"edge ({i}, {j}) out of range for n={n}")
        key = np.sort(lo * n + hi)  # edge (i, j) as entry i*n + j of an n x n matrix
        key = key[np.diff(key, prepend=-1) > 0]
        pairs = np.stack(np.divmod(key, n), axis=1)
        indices = np.sort(np.concatenate((key, pairs[:, 1] * n + pairs[:, 0]))) % n
        indptr = np.concatenate(([0], np.cumsum(np.bincount(pairs.ravel(), minlength=n))))
        for a in (pairs, indptr, indices):
            a.flags.writeable = False
        vars(self).update(n=n, pairs=pairs, indptr=indptr, indices=indices)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.pairs.tolist()))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.n == other.n and np.array_equal(self.pairs, other.pairs)

    def __hash__(self):
        return hash((self.n, self.edges))

    def _row(self, i: int) -> np.ndarray:
        i = range(self.n)[i]  # as a tuple index: IndexError past n, a negative i from the end
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(self._row(i).tolist())

    def degree(self, i: int) -> int:
        return len(self._row(i))

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, i: int, j: int) -> bool:
        return 0 <= i < self.n and j in self._row(i)

    def is_connected(self) -> bool:
        """Breadth-first from node 0, gathering a whole frontier's CSR rows at once."""
        seen, front = np.zeros(self.n, dtype=bool), np.zeros(1, dtype=np.int64)
        while front.size:
            seen[front] = True
            start, count = self.indptr[front], self.indptr[front + 1] - self.indptr[front]
            reached = self.indices[np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())]
            reached = np.sort(reached[~seen[reached]])
            front = reached[np.diff(reached, prepend=-1) > 0]
        return bool(seen.all())


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
    always connected and has m*(n-m) + m*(m-1)//2 edges. Node u draws targets from `ends`, the
    edges so far flattened, 1,024 nodes at a time (README "Graph operators: dense or CSR").
    """
    if not n > m >= 1:
        raise ValueError(f"need n > m >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    ends = [v for i in range(m) for j in range(i + 1, m) for v in (i, j)]
    u = m
    while u < n:
        nodes = np.arange(u, min(n, u + 1024))
        highs = np.repeat(np.maximum(m * (2 * nodes - m - 1), nodes), m)  # len(ends or range(u))
        state = rng.bit_generator.state
        draws = rng.integers(0, highs).tolist()
        for k in range(0, len(draws), m):
            targets = {(ends or range(u))[d] for d in draws[k : k + m]}
            if repeat := len(targets) < m:  # redraw to here from the block's start, then one by one
                rng.bit_generator.state = state
                rng.integers(0, highs[: k + m])
                while len(targets) < m:
                    targets.add(ends[int(rng.integers(len(ends)))])
            for t in sorted(targets):
                ends += (t, u)
            u += 1
            if repeat:
                break
    return Graph(n, np.array(ends).reshape(-1, 2))


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
        g = Graph(n, np.stack((i[keep], j[keep]), axis=1))
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
    i, j = g.pairs.T
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
    i, j = g.pairs.T
    d = g.degrees
    return ConsensusWeights(_matrix(g.n, i, j, 1.0 / (1.0 + np.maximum(d[i], d[j]))))


def metropolis_row(degree: int, neighbor_degrees: dict[int, int]) -> dict[int, float]:
    """One node's averaging weights, computable from its own and neighbor degrees."""
    return {j: 1.0 / (1.0 + max(degree, dj)) for j, dj in neighbor_degrees.items()}


def save_edge_list(g: Graph, path: str | Path) -> None:
    """Write `n` on the first line, then one ascending `i j` pair per line."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.pairs.tolist())
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
