"""`generate_ba` draws the same edges as the per-edge reference sampler."""
import numpy as np
import pytest

from fdgnn.graphs import generate_ba

GRID = [(n, m, seed) for m in (1, 2, 3) for n in (m + 1, m + 2, 10, 57, 300) for seed in range(4)]


def per_edge_ba(n, m, seed):
    """The reference sampler: a clique on the first m nodes, then each new node
    draws targets one at a time from a list holding one entry per unit of
    degree (uniformly among the earlier nodes while that list is empty) until
    it has m distinct ones, and attaches to them in ascending order."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    endpoints = [v for e in edges for v in e]
    for new in range(m, n):
        targets = set()
        while len(targets) < m:
            if endpoints:
                targets.add(endpoints[int(rng.integers(len(endpoints)))])
            else:
                targets.add(int(rng.integers(new)))
        for t in sorted(targets):
            edges.append((t, new))
            endpoints.extend((t, new))
    return tuple(sorted(edges))


@pytest.mark.parametrize("n,m,seed", GRID)
def test_generate_ba_matches_the_per_edge_draws(n, m, seed):
    g = generate_ba(n, m, seed)
    assert g.edges == per_edge_ba(n, m, seed)
    assert len(g.edges) == m * (n - m) + m * (m - 1) // 2
    assert g.is_connected()


def test_ba_grid_draws_differ_by_seed():
    assert len({per_edge_ba(300, m, seed) for m in (1, 2, 3) for seed in range(4)}) == 12
