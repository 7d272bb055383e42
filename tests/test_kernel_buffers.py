"""The stacked kernel writes its intermediates into caller-owned buffers and
reuses them; the in-place optimizer steps and consensus gap. Every output must
be bitwise what fresh arrays give."""
import numpy as np
import pytest
from scipy.sparse import csr_array

from fdgnn.agents import stack_flat_params, stacked_gradients
from fdgnn.datagen import Sample
from fdgnn.gcnn import LayerSpec, activation_derivative, apply_activation, init_params, load_params, param_slices
from fdgnn.graphs import build_shift, generate_ba, metropolis_weights
from fdgnn.netsim import Network, run_minibatch
from fdgnn.optim import MomentState, OptimizerConfig, consensus_round, dadam_update, damsgrad_update, dsgd_update

N = 9
S_SYM = build_shift(generate_ba(N, 2, 3)).S
S_NONSYM = S_SYM + np.triu(np.random.default_rng(4).normal(size=(N, N)) * (S_SYM != 0), 1)
SHIFTS = {"dense": S_SYM, "csr": csr_array(S_SYM), "nonsymmetric": S_NONSYM, "nonsymmetric-csr": csr_array(S_NONSYM)}


def _specs(L, act):
    widths = [3] + [4] * (L - 1) + [1]
    return tuple(LayerSpec(widths[k], widths[k + 1], act) for k in range(L))


def _inputs(specs, B, seed):
    """Heterogeneous per-node weights, with node 0's all zero so that its
    pre-activations are exactly 0, and node 1's features zero."""
    rng = np.random.default_rng(seed)
    flat = rng.normal(size=(N, sum(2 * s.g_in * s.g_out for s in specs)))
    flat[0] = 0.0
    X = rng.normal(size=(B, N, specs[0].g_in))
    X[:, 1] = 0.0
    return (*stack_flat_params(specs, flat), X, rng.normal(size=(B, N)))


def _reference(specs, th0, th1, S, X, y):
    """The kernel with a fresh array for every intermediate."""
    n = S.shape[0]
    caches, cur = [], np.ascontiguousarray(X.transpose(1, 0, 2))
    for k, spec in enumerate(specs):
        agg = (S @ cur.reshape(n, -1)).reshape(cur.shape)
        h = np.matmul(cur, th0[k]) + np.matmul(agg, th1[k])
        caches.append((cur, agg, h))
        cur = np.where(h > 0.0, h, spec.slope * h) if spec.activation == "leaky-relu" else apply_activation(spec, h)
    yhat = cur[..., 0].T.copy()
    grads = np.zeros((n, sum(2 * s.g_in * s.g_out for s in specs)))
    z = (2.0 * (yhat - y)).T[..., None]
    for k in reversed(range(len(specs))):
        xprev, agg, h = caches[k]
        q = z * activation_derivative(specs[k], h)
        for x, sl in zip((xprev, agg), param_slices(specs)[k]):
            grads[:, sl] = np.matmul(x.transpose(0, 2, 1), q).reshape(n, -1)
        if k > 0:
            msg = np.matmul(q, th1[k].transpose(0, 2, 1))
            z = np.matmul(q, th0[k].transpose(0, 2, 1)) + (S.T @ msg.reshape(n, -1)).reshape(msg.shape)
    return yhat, grads


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("L", [1, 2, 3])
@pytest.mark.parametrize("act", ["leaky-relu", "tanh", "relu"])
def test_reused_work_gives_the_bytes_of_fresh_buffers(L, act):
    """One dict across calls that change S and B, as a topology redraw and a
    short batch do; each call equals a work=None call and the fresh-array
    reference, byte for byte."""
    specs = _specs(L, act)
    work = {}
    for i, (name, S) in enumerate(list(SHIFTS.items()) * 2):
        B = (1, 3)[i % 2]
        th0, th1, X, y = _inputs(specs, B, seed=10 * L + i)
        got = stacked_gradients(specs, th0, th1, S, X, y, work)
        fresh = stacked_gradients(specs, th0, th1, S, X, y)
        ref_yhat, ref_grads = _reference(specs, th0, th1, S, X, y)
        assert _same(got.yhat, fresh.yhat) and _same(got.yhat, ref_yhat), name
        assert _same(got.grads, fresh.grads) and _same(got.grads, ref_grads), name
        assert _same(stacked_gradients(specs, th0, th1, S, X, None, work).yhat, ref_yhat), name
    assert len(work) == 1


def test_a_later_call_leaves_earlier_results_alone():
    specs = _specs(2, "leaky-relu")
    work = {}
    th0, th1, X, y = _inputs(specs, 3, seed=1)
    first = stacked_gradients(specs, th0, th1, S_SYM, X, y, work)
    kept = first.yhat.copy(), first.grads.copy()
    th0, th1, X, y = _inputs(specs, 3, seed=2)
    stacked_gradients(specs, th0, th1, S_SYM, X, y, work)
    assert _same(first.yhat, kept[0]) and _same(first.grads, kept[1])
    for buffers in work.values():
        flat = [buffers[0]] + [a for layer in buffers[1] for a in layer]
        assert not any(np.shares_memory(first.grads, a) or np.shares_memory(first.yhat, a) for a in flat)


def test_a_network_reuses_the_same_buffers_every_update():
    graph = generate_ba(N, 2, 0)
    specs = _specs(2, "leaky-relu")
    net = Network(graph, build_shift(graph), init_params(specs, "glorot", 0), OptimizerConfig("d-amsgrad"))
    rng = np.random.default_rng(0)

    def arrays():
        (x0, layers), = net._work.values()
        return [x0] + [a for layer in layers for a in layer]

    for t in range(10):
        samples = [Sample(rng.normal(size=(N, 3)), rng.normal(size=N)) for _ in range(4)]
        run_minibatch(net, samples, "piggyback-do")
        if t == 0:
            first = arrays()  # held, so a rebuilt set could not take the same memory
    assert all(a is b for a, b in zip(arrays(), first))
    assert sum(a.nbytes for a in arrays()) == sum(a.nbytes for a in first)


def _branch_leaky(h, slope):
    return np.where(h > 0.0, h, slope * h)


@pytest.mark.parametrize("slope", [1e-300, 0.01, 0.5, 1.0])
def test_leaky_relu_is_the_branch_form_bitwise(slope):
    h = np.array([-np.inf, -1.0, -1e-320, -0.0, 0.0, 1e-320, 1.0, np.inf, np.nan])
    spec = LayerSpec(1, 1, "leaky-relu", slope=slope)
    assert _same(apply_activation(spec, h), _branch_leaky(h, slope))


@pytest.mark.parametrize("slope", [0.0, 2.0])
def test_load_params_rejects_a_slope_outside_the_unit_interval(tmp_path, slope):
    """At slope 0 the branch-free form would give NaN where h = +inf."""
    path = tmp_path / "ckpt.json"
    path.write_text(f'{{"widths": [1, 1], "activations": ["leaky-relu"], "slopes": [{slope}], "theta": [0.0, 0.0]}}')
    with pytest.raises(ValueError, match=r"slope must lie in \(0, 1\]"):
        load_params(path)


@pytest.mark.parametrize("kind", ["d-sgd", "d-adam", "d-amsgrad", "d-amsgrad-v"])
def test_in_place_updates_are_the_fresh_formulas_bitwise(kind):
    W = metropolis_weights(generate_ba(N, 2, 0)).matrix
    cfg = OptimizerConfig(kind.removesuffix("-v"), alpha=0.01, consensus_on_v=kind.endswith("-v"))
    rng = np.random.default_rng(5)
    theta = rng.normal(size=(N, 6))
    moments = MomentState.zeros(theta.shape, with_vhat=kind.startswith("d-amsgrad"))
    m, v, vhat = np.zeros(theta.shape), np.zeros(theta.shape), np.zeros(theta.shape)
    ref = theta.copy()
    for t in range(1, 6):
        g = rng.normal(size=theta.shape) * 10.0 ** rng.integers(-3, 3)
        psi = consensus_round(theta, W)
        if kind == "d-sgd":
            theta, ref = dsgd_update(psi, 0.01, g), consensus_round(ref, W) - 0.01 * g
        elif kind == "d-adam":
            theta = dadam_update(psi, moments, 0.01, g, cfg)
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g**2
            m_hat, v_hat = m / (1.0 - cfg.beta1**t), v / (1.0 - cfg.beta2**t)
            ref = consensus_round(ref, W) - 0.01 * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        else:
            theta = damsgrad_update(psi, moments, W, 0.01, g, cfg)
            m = cfg.beta1 * consensus_round(m, W) + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * (consensus_round(v, W) if cfg.consensus_on_v else v) + (1.0 - cfg.beta2) * g**2
            vhat = np.maximum(vhat, v)
            ref = consensus_round(ref, W) - 0.01 * m / (np.sqrt(vhat) + cfg.epsilon)
        assert _same(theta, ref)
    if kind != "d-sgd":
        assert _same(moments.m, m) and _same(moments.v, v)


def test_consensus_gap_is_the_largest_row_norm_bitwise():
    graph = generate_ba(N, 2, 0)
    net = Network(graph, build_shift(graph), init_params(_specs(2, "tanh"), "glorot", 0), OptimizerConfig("d-sgd"))
    net.set_thetas(np.random.default_rng(1).normal(size=net.theta.shape))
    expected = float(np.max(np.linalg.norm(net.theta - net.theta.mean(axis=0), axis=1)))
    assert repr(net.consensus_gap()) == repr(expected)
