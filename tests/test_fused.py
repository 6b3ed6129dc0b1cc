"""The fused autodiff nodes against the graphs they replace.

``layers.relu_maxpool2x2`` and ``augment.ffa_transform`` are single nodes
whose backward closures replay the arithmetic of the relu -> maxpool2x2
graph and of the 19-node augmentation graph (``reference_kernels``). Both
the values and the sign bits must match, at the batch sizes training
sees, for inputs that hit every branch of the fused code.
"""

import gc

import numpy as np
import pytest

from fedfa.augment import FfaConfig, augment, ffa_transform, variant_variances
from fedfa.layers import (_POOL_TAPS, ConvNet, default_net_spec, init_params,
                          relu_maxpool2x2, softmax_cross_entropy)
from fedfa.rng import stream
from fedfa.stats import batch_variances
from fedfa.tensor import Tensor

import reference_kernels as ref

BATCHES = (1, 17, 32)
TAP_PAIRS = [(a, b) for k, a in enumerate(_POOL_TAPS) for b in _POOL_TAPS[k + 1:]]


def nhwc(x):
    """x's values in the memory layout conv2d gives its outputs."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def backward_raw(out, g):
    """Tensor.backward from out, but out's closure sees g itself: the seed
    of Tensor.backward adds +0.0, which would clear g's negative zeros."""
    head = Tensor(np.zeros(()), (out,))
    head._backward = lambda _: setattr(out, "grad", g)
    head.backward()


def signed_grad(rng, shape):
    """Normal values with some exact +0.0 and -0.0 entries."""
    g = rng.standard_normal(shape)
    pick = rng.random(shape)
    g[pick < 0.1] = 0.0
    g[pick > 0.9] = -0.0
    return g


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def run_op(op, x, g, raw):
    t = Tensor(x)
    out = op(t)
    if raw:
        backward_raw(out, g)
    else:
        out.backward(g)
    return out.data, t.grad


def assert_op_matches(fused, reference, x, g):
    for layout in (np.ascontiguousarray, nhwc):
        for raw in (False, True):
            got = run_op(fused, layout(x), g, raw)
            want = run_op(reference, layout(x), g, raw)
            for a, b in zip(got, want):
                assert_same_bits(a, b)


# ---- relu + 2x2 max-pool ------------------------------------------------------


def pool_input(rng, b, c, hw):
    """Conv-like values plus the cases relu + pool treats specially: a dead
    channel, windows with no positive value (signed zeros included) and
    windows whose positive maximum sits at several taps."""
    z = rng.standard_normal((b, c, hw, hw))
    z[:, 0] = -np.abs(z[:, 0])  # dead channel
    z[:, 1, :2, :] = rng.choice([-1.0, -0.0, 0.0], size=(b, 2, hw))  # all <= 0
    z[:, 2, 2:4, :] = rng.choice([0.0, 1.0, 2.0], size=(b, 2, hw))  # ties
    return z


def tied_input(rng, b, c, hw, pair):
    """Every window's positive maximum sits at both taps of ``pair``."""
    z = rng.uniform(-1.0, 1.0, size=(b, c, hw, hw))
    top = 2.0 + rng.random((b, c, hw // 2, hw // 2))
    for i, j in pair:
        z[:, :, i::2, j::2] = top
    return z


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("c,hw", [(8, 8), (16, 4)], ids=["hw8", "hw4"])
def test_relu_maxpool_matches_graph(b, c, hw):
    rng = np.random.default_rng(100 + b + hw)
    g = signed_grad(rng, (b, c, hw // 2, hw // 2))
    assert_op_matches(relu_maxpool2x2, ref.relu_maxpool2x2,
                      pool_input(rng, b, c, hw), g)


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("pair", TAP_PAIRS, ids=str)
def test_relu_maxpool_positive_tie_goes_to_first_tap(b, pair):
    rng = np.random.default_rng(200 + b)
    z = tied_input(rng, b, 8, 8, pair)
    g = rng.standard_normal((b, 8, 4, 4)) + 5.0  # nonzero everywhere
    assert_op_matches(relu_maxpool2x2, ref.relu_maxpool2x2, z, g)
    _, gz = run_op(relu_maxpool2x2, nhwc(z), g, raw=False)
    (i, j), (k, m) = pair
    assert np.array_equal(gz[:, :, i::2, j::2], g)
    assert not np.any(gz[:, :, k::2, m::2])


# ---- the augmentation hook ----------------------------------------------------


def hook_input(rng, b, c, hw):
    x = rng.standard_normal((b, c, hw, hw)) * rng.uniform(0.5, 3.0, size=(1, c, 1, 1))
    x[:, 0] = 0.0  # dead channel: sigma is sqrt(eps_var)
    x[:, 1] = rng.choice([-0.0, 0.0, 1.5], size=(b, hw, hw))
    return x


@pytest.mark.parametrize("b", BATCHES)
@pytest.mark.parametrize("c,hw", [(8, 4), (16, 2)], ids=["hw4", "hw2"])
@pytest.mark.parametrize("variant", ["full", "client", "random"])
def test_ffa_transform_matches_graph(b, c, hw, variant):
    rng = np.random.default_rng(400 + b + hw)
    cfg = FfaConfig(variant=variant)
    eps = rng.standard_normal((2, b, c))
    seen = []

    def budget(st):
        # the statistics the budget sees must match too
        seen.append(st.copy())
        return variant_variances(cfg, batch_variances(st), None)

    def fused(t):
        return ffa_transform(t, budget, *eps)

    def reference(t):
        return ref.ffa_transform(t, budget, *eps)

    g = signed_grad(rng, (b, c, hw, hw))
    assert_op_matches(fused, reference, hook_input(rng, b, c, hw), g)
    for a, b in zip(seen[::2], seen[1::2]):
        assert_same_bits(a, b)


def test_fused_graphs_are_freed_without_the_cycle_collector():
    # a closure holding its own output Tensor would be a reference cycle
    rng = np.random.default_rng(600)
    fused = np.ones((2, 4))
    gc.collect()
    gc.disable()
    try:
        z = Tensor(rng.standard_normal((2, 4, 8, 8)))
        eps = np.ones((2, 4))
        ffa_transform(relu_maxpool2x2(z), fused, eps, eps).sum().backward()
        del z
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---- one training step ---------------------------------------------------------


def graph_size(root):
    """Distinct Tensors reachable from root, itself, params and constants
    included."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("p,nodes", [(1.0, 15), (0.0, 13)], ids=["fired", "closed"])
def test_training_step_node_count(p, nodes):
    # 6 params; per stage conv2d, relu_maxpool2x2 and, when fired, the hook;
    # then reshape, linear and the loss (54 and 16 unfused, with the head as
    # a matmul and a bias add)
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    cfg = FfaConfig(p=p)
    rng = np.random.default_rng(0)
    fired = []

    def hook(t):
        out, used = augment(
            t, lambda st: variant_variances(cfg, batch_variances(st), None),
            cfg, rng)
        fired.append(used is not None)
        return out

    x = np.random.default_rng(1).standard_normal((32, 3, 8, 8))
    logits, _ = net.forward(Tensor(x), hooks=[hook, hook])
    loss = softmax_cross_entropy(logits, np.arange(32) % spec.classes)
    assert fired == [p == 1.0] * 2
    assert graph_size(loss) == nodes
