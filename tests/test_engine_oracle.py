"""The message-level engine is the oracle for the stacked kernel.

Both engines run the same updates from the same seed, over every trained
strategy/optimizer pairing, depth, batch size, consensus depth, shift variant
and topology mode. The Laplacian runs grow large, so agreement is relative to
max(|reference|, 1). The example count comes from the active hypothesis
profile (CI also runs the `ci-deep` one).
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, init_params
from fdgnn.graphs import SHIFT_VARIANTS, build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import STRATEGY, Network, run_minibatch
from fdgnn.optim import DO_KINDS, OptimizerConfig, run_consensus

PAIRINGS = [("piggyback-do", kind) for kind in DO_KINDS] + [
    (strategy, "d-naive") for strategy in ("naive-per-sample", "per-batch-consensus", "piggyback-consensus")
]
N, G0, HIDDEN, UPDATES = 8, 2, 3, 3


def _topology(seed, variant):
    g = generate_ba(N, 2, seed)
    return g, build_shift(g, variant)


def _close(got, ref):
    ref = np.asarray(ref)
    assert np.all(np.isfinite(ref))
    assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1.0)


@settings(deadline=None)
@given(
    pairing=st.sampled_from(PAIRINGS),
    L=st.integers(1, 3),
    B=st.sampled_from((1, 3)),
    K=st.integers(1, 2),
    variant=st.sampled_from(SHIFT_VARIANTS),
    redraw=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_stacked_engine_matches_the_message_level_engine(pairing, L, B, K, variant, redraw, seed):
    strategy, kind = pairing
    widths = [G0] + [HIDDEN] * (L - 1) + [1]
    specs = tuple(
        LayerSpec(widths[k], widths[k + 1], "identity" if k == L - 1 else "leaky-relu") for k in range(L)
    )
    topology = _topology(seed, variant)
    params = init_params(specs, "glorot", seed)
    nets = {
        engine: Network(*topology, params, OptimizerConfig(kind, alpha=1e-3, K=K)) for engine in ("agents", "stacked")
    }
    rng = np.random.default_rng(seed)
    for t in range(UPDATES):
        if redraw and t > 0:
            topology = _topology(seed + 1000 * t, variant)
            for net in nets.values():
                net.set_topology(*topology)
        samples = [Sample(rng.normal(size=(N, G0)), rng.normal(size=N)) for _ in range(B)]
        ref = run_minibatch(nets["agents"], samples, strategy, engine="agents")
        got = run_minibatch(nets["stacked"], samples, strategy, engine="stacked")
        _close(got.grads, ref.grads)
        _close(got.yhat, ref.yhat)
        _close(nets["stacked"].theta, nets["agents"].theta)
        assert got.ledger.snapshot() == ref.ledger.snapshot()
        if STRATEGY[strategy].consensus:
            _close(ref.protocol_consensus, run_consensus(ref.grads, metropolis_weights(topology[0]), K))
    assert nets["stacked"].ledger.snapshot() == nets["agents"].ledger.snapshot()
