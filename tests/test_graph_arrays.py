"""The array-backed `Graph` gives the results of the tuple-based graph it replaced."""
from dataclasses import dataclass, field

import numpy as np
import pytest

from fdgnn.graphs import Graph, generate_ba, generate_er


@dataclass(frozen=True)
class TupleGraph:
    """The former `Graph`: sorted (i, j) tuples and per-node adjacency tuples."""

    n: int
    edges: tuple
    _adj: tuple = field(init=False, repr=False, compare=False)

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

    def neighbors(self, i):
        return self._adj[i]

    def degree(self, i):
        return len(self._adj[i])

    @property
    def degrees(self):
        return np.array([len(a) for a in self._adj], dtype=np.int64)

    def has_edge(self, i, j):
        return 0 <= i < self.n and j in self._adj[i]

    def is_connected(self):
        seen, stack = {0}, [0]
        while stack:
            for v in self._adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


CASES = {
    "ba-60-m1": (60, generate_ba(60, 1, 3).edges),
    "ba-200-m2": (200, generate_ba(200, 2, 0).edges),
    "ba-90-m3": (90, generate_ba(90, 3, 7).edges),
    "er-40": (40, generate_er(40, 0.2, 1).edges),
    "er-25-complete": (25, generate_er(25, 1.0, 0).edges),
    "path-with-isolated-nodes": (9, ((0, 1), (1, 2), (2, 3), (5, 6))),
    "single-node": (1, ()),
    "edgeless": (5, ()),
    "duplicate-and-reversed-pairs": (6, ((3, 1), (1, 3), (0, 5), (5, 0), (0, 5), (2, 4), (4, 2), (1, 3))),
    "two-components": (6, ((4, 5), (0, 1), (2, 1), (0, 2), (3, 4))),
    "star-reversed": (7, tuple((i, 0) for i in range(6, 0, -1))),
}


def _forms(edges):
    """The edges as a tuple of pairs and as an (E, 2) array."""
    return {"tuple": tuple(edges), "array": np.array(edges, dtype=np.int64).reshape(-1, 2)}


@pytest.mark.parametrize("form", ["tuple", "array"])
@pytest.mark.parametrize("name", CASES)
def test_graph_matches_the_tuple_reference(name, form):
    n, edges = CASES[name]
    g, ref = Graph(n, _forms(edges)[form]), TupleGraph(n, tuple(edges))
    assert g.edges == ref.edges
    assert all(type(v) is int for e in g.edges for v in e)
    assert g.degrees.tolist() == ref.degrees.tolist() and g.degrees.dtype == np.int64
    for i in range(-n, n):
        assert g.neighbors(i) == ref.neighbors(i)
        assert g.degree(i) == ref.degree(i)
    for i in range(-2, n + 2):
        for j in range(-2, n + 2):
            assert g.has_edge(i, j) is ref.has_edge(i, j)
    assert g.is_connected() is ref.is_connected()
    for bad in (n, n + 3):
        with pytest.raises(IndexError):
            g.neighbors(bad)
        with pytest.raises(IndexError):
            g.degree(bad)


@pytest.mark.parametrize("name", CASES)
def test_graph_csr_rows_are_the_neighbour_lists(name):
    n, edges = CASES[name]
    g, ref = Graph(n, edges), TupleGraph(n, tuple(edges))
    assert g.pairs.shape == (len(ref.edges), 2) and g.pairs.dtype == np.int64
    assert g.pairs.tolist() == [list(e) for e in ref.edges]
    assert g.indptr.tolist() == np.concatenate(([0], np.cumsum(ref.degrees))).tolist()
    assert g.indices.tolist() == [j for i in range(n) for j in ref.neighbors(i)]


def test_graph_equality_and_hash_follow_the_reference():
    graphs = [(n, edges) for n, edges in CASES.values()]
    graphs += [(6, ((1, 3), (0, 5), (2, 4))), (7, ((1, 3), (0, 5), (2, 4))), (6, ((1, 3), (0, 5)))]
    for n_a, e_a in graphs:
        for n_b, e_b in graphs:
            g_a, g_b = Graph(n_a, e_a), Graph(n_b, np.array(e_b, dtype=np.int64).reshape(-1, 2))
            assert (g_a == g_b) is (TupleGraph(n_a, tuple(e_a)) == TupleGraph(n_b, tuple(e_b)))
            assert (g_a != g_b) is not (g_a == g_b)
        assert hash(Graph(n_a, e_a)) == hash(TupleGraph(n_a, tuple(e_a)))
    assert Graph(3, ((0, 1),)) != TupleGraph(3, ((0, 1),))
    assert len({Graph(4, ((0, 1), (2, 3))), Graph(4, ((3, 2), (1, 0))), Graph(4, ((0, 1),))}) == 2


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, ((0, 0),)),
        (3, ((0, 3),)),
        (3, ((0, 1), (2, 2), (0, 7))),
        (3, ((0, 1), (0, 7), (2, 2))),
        (3, ((1, 2), (-1, 0), (1, 1))),
        (4, ((2, 1), (5, 5))),
        (4, ((3, -2),)),
        (2, ((1, 0), (0, 1), (1, 2))),
        (1, ((0, 0),)),
    ],
)
@pytest.mark.parametrize("form", ["tuple", "array"])
def test_bad_edges_report_the_first_offender_as_before(n, edges, form):
    with pytest.raises(ValueError) as ref:
        TupleGraph(n, edges)
    with pytest.raises(ValueError) as got:
        Graph(n, _forms(edges)[form])
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("edges", [((0, 1, 2), (2, 3, 4)), (0, 1, 2, 3), ((0, 1), (2,)), np.array([0, 1, 2, 3])])
def test_graph_rejects_edges_that_are_not_pairs(edges):
    with pytest.raises(ValueError):
        Graph(5, edges)


def test_graph_needs_a_node():
    for n in (0, -1):
        with pytest.raises(ValueError, match="graph needs at least one node"):
            Graph(n, ())


def test_graph_arrays_reject_writes():
    g = Graph(5, ((0, 1), (1, 2), (3, 4)))
    for arr in (g.pairs, g.indptr, g.indices):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        g.n = 6
    source = np.array([[0, 1], [1, 2]])
    g = Graph(3, source)
    source[0, 0] = 2  # the caller's own array stays writable, and the graph holds no view of it
    assert g.edges == ((0, 1), (1, 2))
