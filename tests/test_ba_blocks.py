"""`generate_ba` draws its targets a block of nodes at a time: past the first
block and through repeated targets it keeps the per-edge sampler's edges and
generator state, which rests on a numpy property tested here by name."""
import numpy as np
import pytest

from fdgnn.graphs import generate_ba
from test_generate_ba import per_edge_ba

# n past one (1,025 nodes and more) and several blocks, for each m.
GRID = [(n, m, seed) for m in (1, 2, 3) for n in (1030, 2100, 10_000) for seed in range(3)]


def repeated_nodes(n, m, seed):
    """The nodes whose first m draws in the per-edge sampler repeat a target."""
    rng = np.random.default_rng(seed)
    ends = [v for i in range(m) for j in range(i + 1, m) for v in (i, j)]
    out = []
    for new in range(m, n):
        targets, draws = set(), 0
        while len(targets) < m:
            targets.add(ends[int(rng.integers(len(ends)))] if ends else int(rng.integers(new)))
            draws += 1
        if draws > m:
            out.append(new)
        for t in sorted(targets):
            ends += (t, new)
    return out


def test_numpy_array_bounds_draw_as_successive_scalar_calls():
    bounds = np.random.default_rng(99).integers(1, 2**31, 500)
    bounds[::3] = 1
    bounds[1::7] = 2
    bounds[-1] = 1
    for seed in range(5):
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        assert batched.integers(0, bounds).tolist() == [int(scalar.integers(b)) for b in bounds.tolist()]
        assert batched.bit_generator.state == scalar.bit_generator.state
        assert batched.integers(0, bounds[:7]).tolist() == [int(scalar.integers(b)) for b in bounds[:7].tolist()]
        assert batched.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("n,m,seed", GRID)
def test_generate_ba_matches_the_per_edge_draws_across_blocks(n, m, seed):
    assert generate_ba(n, m, seed).edges == per_edge_ba(n, m, seed)


def test_block_grid_repeats_targets_past_the_first_block():
    late = {(m, seed): [u for u in repeated_nodes(10_000, m, seed) if u >= 1024 + m] for m in (2, 3) for seed in range(3)}
    assert all(late.values()), late
    assert not repeated_nodes(10_000, 1, 0)


def test_generate_ba_leaves_the_per_edge_generator_state(monkeypatch):
    made = []
    real = np.random.default_rng

    def recording(seed):
        made.append(real(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    for n, m, seed in [(2, 1, 0), (300, 2, 1), (3000, 3, 2), (5000, 2, 3)]:
        made.clear()
        per_edge_ba(n, m, seed)
        generate_ba(n, m, seed)
        assert len(made) == 2
        assert made[0].bit_generator.state == made[1].bit_generator.state
