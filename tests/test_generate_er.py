"""`generate_er` draws the same edges as the pair-list sampler it replaced."""
import numpy as np
import pytest

from fdgnn.graphs import Graph, GraphGenerationError, generate_er

GRID = [(n, p, seed) for n in (2, 3, 15, 60) for p in (0.05, 0.3, 1.0) for seed in range(4)]


def pair_list_er(n, p, seed, max_tries=100):
    """The former sampler: one draw per listed pair (i < j, row-major), per try.
    Returns the graph and the try it was accepted on, or None after max_tries."""
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for tries in range(1, max_tries + 1):
        mask = rng.random(len(pairs)) < p
        g = Graph(n, tuple(e for e, keep in zip(pairs, mask) if keep))
        if g.is_connected():
            return g, tries
    return None, max_tries


@pytest.mark.parametrize("n,p,seed", GRID)
def test_generate_er_matches_the_pair_list_draws(n, p, seed):
    ref, _ = pair_list_er(n, p, seed)
    if ref is None:
        with pytest.raises(GraphGenerationError):
            generate_er(n, p, seed)
    else:
        assert generate_er(n, p, seed).edges == ref.edges


def test_er_grid_covers_retries_and_failures():
    outcomes = [pair_list_er(n, p, seed) for n, p, seed in GRID]
    assert any(g is not None and tries > 1 for g, tries in outcomes)
    assert any(g is None for g, _ in outcomes)
