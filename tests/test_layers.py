import gc
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from fedfa import layers
from fedfa.layers import (EVAL_BLOCK_BYTES, ConvNet, NetSpec, StageSpec,
                          _col2im, _pool_forward, channel_mean_std, conv2d,
                          default_net_spec, global_avg_pool, inference_blocks,
                          infer_logits, init_params, linear,
                          linear_forward, maxpool2x2,
                          net_forward, predict, relu_maxpool2x2,
                          softmax_cross_entropy)
from fedfa.rng import stream
from fedfa.tensor import Tensor

from gradcheck import check_grads
from reference_kernels import col2im_slices, pool_forward
from reference_kernels import install as install_reference_kernels


def conv2d_reference(x, w, b, stride, padding):
    # straight-line quadruple loop, independent of the im2col path
    bs, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (ww + 2 * padding - kw) // stride + 1
    out = np.zeros((bs, cout, ho, wo))
    for n in range(bs):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[n, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[n, co, i, j] = (patch * w[co]).sum() + b[co]
    return out


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_forward_matches_reference(stride, padding):
    rng = np.random.default_rng(10 * stride + padding)
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    b = rng.standard_normal(4)
    got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
    want = conv2d_reference(x, w, b, stride, padding)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
def test_conv2d_grads(stride, padding):
    rng = np.random.default_rng(20 + stride + padding)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)
    r = rng.standard_normal((2, 3,
                             (5 + 2 * padding - 3) // stride + 1,
                             (5 + 2 * padding - 3) // stride + 1))
    check_grads(lambda tx, tw, tb:
                (conv2d(tx, tw, tb, stride, padding) * r).sum(), [x, w, b])


def conv2d_im2col_reference(x, w, b, stride, padding, g):
    """Pad, window with sliding_window_view, GEMM; then col2im backward.
    Returns (out, dx, dw, db) for upstream gradient g."""
    bs, cin, h, ww = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2:4]
    cols = np.ascontiguousarray(
        win.transpose(0, 2, 3, 1, 4, 5).reshape(bs * ho * wo, cin * kh * kw))
    wmat = w.reshape(cout, -1)
    out = (cols @ wmat.T + b).reshape(bs, ho, wo, cout).transpose(0, 3, 1, 2)
    # conv2d receives its output gradient in the output's NHWC memory
    # layout, so its gm is C-contiguous; at B=1 this reshape would be an
    # F-ordered view, and the sums below would run in another order
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1).reshape(-1, cout))
    dx = col2im_slices(gm @ wmat, x.shape, kh, kw, stride, padding)
    return out, dx, (gm.T @ cols).reshape(w.shape), gm.sum(axis=0)


def signed_zero_heavy(rng, shape):
    """Normal draws with about half the entries set to +0.0 or -0.0."""
    a = rng.standard_normal(shape)
    zero = rng.random(shape) < 0.5
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return a


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("ksize", [1, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_bit_identical_to_padded_window_im2col(stride, padding, ksize):
    rng = np.random.default_rng(100 * stride + 10 * padding + ksize)
    for batch in (1, 3, 17):
        x = signed_zero_heavy(rng, (batch, 2, 7, 5))
        w = rng.standard_normal((4, 2, ksize, ksize))
        b = rng.standard_normal(4)
        tx, tw, tb = Tensor(x), Tensor(w), Tensor(b)
        out = conv2d(tx, tw, tb, stride, padding)
        g = signed_zero_heavy(rng, out.shape)
        out.backward(g)
        want = conv2d_im2col_reference(x, w, b, stride, padding, g)
        for got, ref in zip((out.data, tx.grad, tw.grad, tb.grad), want):
            assert_bits_equal(got, ref)


@pytest.mark.parametrize("batch", [1, 17, 32])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 2), (2, 0)])
def test_col2im_sums_taps_in_order_from_positive_zero(stride, padding, batch):
    # patch gradients of only signed zeros and a few values: a pixel whose
    # taps are all -0.0 must come out +0.0, as it does from a zero fill
    rng = np.random.default_rng(10 * stride + padding)
    shape, k = (batch, 3, 6, 5), 3
    ho = (6 + 2 * padding - k) // stride + 1
    wo = (5 + 2 * padding - k) // stride + 1
    gcols = rng.choice([-0.0, 0.0, 0.1, -0.3, 1e16],
                       size=(batch * ho * wo, 3 * k * k))
    got = _col2im(gcols, shape, k, k, stride, padding)
    assert_bits_equal(got, col2im_slices(gcols, shape, k, k, stride, padding))
    # NHWC in memory, the layout the relu+pool backward reads fastest
    assert got.transpose(0, 2, 3, 1).flags.c_contiguous


def test_convnet_input_gets_no_gradient_and_params_match_full_graph(monkeypatch):
    spec = default_net_spec()
    x = np.random.default_rng(9).standard_normal((5, 3, 8, 8))
    y = np.array([0, 1, 2, 3, 4])

    def param_grads():
        params = init_params(spec, stream(9, "init"))
        tx = Tensor(x)
        logits, _ = ConvNet(spec, params).forward(tx)
        softmax_cross_entropy(logits, y).backward()
        assert tx.grad is None
        return {k: p.grad for k, p in params.items()}

    got = param_grads()
    with monkeypatch.context() as m:
        # the reference conv lifts the input to a Tensor and runs its col2im
        install_reference_kernels(m)
        want = param_grads()
    for k in want:
        assert_bits_equal(got[k], want[k])


def test_conv2d_backward_independent_of_gradient_layout():
    # at B=1 the NHWC reshape of an NCHW-contiguous gradient is an F-ordered
    # view; the weight and bias sums must not depend on that
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 8, 4, 4))
        w0, b0 = rng.standard_normal((16, 8, 3, 3)), rng.standard_normal(16)
        g = rng.standard_normal((1, 16, 4, 4))
        nhwc = g.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
        grads = []
        for layout in (g, nhwc):
            w, b = Tensor(w0.copy()), Tensor(b0.copy())
            conv2d(x, w, b, padding=1)._backward(layout)
            grads.append((w.grad, b.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


def test_conv2d_kernel_larger_than_padded_input_rejected():
    with pytest.raises(ValueError, match="does not fit"):
        conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))),
               Tensor(np.zeros(1)), padding=1)


def test_conv2d_channel_mismatch_message():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w = Tensor(np.zeros((2, 5, 3, 3)))
    b = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match="3 channels.*expects 5"):
        conv2d(x, w, b)


def test_maxpool_forward_hand_case():
    x = np.array([[[[1.0, 2.0, 5.0, 0.0],
                    [3.0, 4.0, 1.0, 1.0],
                    [0.0, 0.0, 2.0, 2.0],
                    [9.0, 0.0, 2.0, 3.0]]]])
    out = maxpool2x2(Tensor(x))
    assert np.array_equal(out.data, [[[[4.0, 5.0], [9.0, 3.0]]]])


def test_maxpool_routes_gradient_to_argmax():
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    t = Tensor(x)
    maxpool2x2(t).sum().backward()
    assert np.array_equal(t.grad, [[[[0.0, 0.0], [0.0, 1.0]]]])


def maxpool_argmax_reference(x, g):
    """Gather through argmax over the four taps; returns (out, dx)."""
    b, c, h, w = x.shape
    xr = x.reshape(b, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    xr = xr.reshape(b, c, h // 2, w // 2, 4)
    idx = xr.argmax(axis=-1)[..., None]
    gr = np.zeros(xr.shape)
    np.put_along_axis(gr, idx, g[..., None], axis=-1)
    dx = gr.reshape(b, c, h // 2, w // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    return np.take_along_axis(xr, idx, axis=-1)[..., 0], dx.reshape(x.shape)


def test_maxpool_bit_identical_to_argmax_gather_with_ties():
    rng = np.random.default_rng(36)
    # few distinct values, signed zeros included, so most windows tie
    x = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(3, 4, 6, 8))
    g = rng.standard_normal((3, 4, 3, 4))
    t = Tensor(x)
    out = maxpool2x2(t)
    out.backward(g)
    want_out, want_dx = maxpool_argmax_reference(x, g)
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(np.signbit(out.data), np.signbit(want_out))
    assert np.array_equal(t.grad, want_dx)


@pytest.mark.parametrize("window", [[-1.0, 0.0, -2.0, -0.5], [1.0, 1.0, 1.0, 1.0]])
def test_maxpool_tied_window_sends_gradient_to_top_left(window):
    # through ReLU: the negative window becomes the all-zero tie it produces
    r = Tensor(np.array(window).reshape(1, 1, 2, 2)).relu()
    maxpool2x2(r).sum().backward()
    assert np.array_equal(r.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


def test_maxpool_output_is_c_contiguous():
    # a transposed (NHWC-in-memory) input, as conv2d produces
    x = np.random.default_rng(37).standard_normal((2, 4, 4, 3)).transpose(0, 3, 1, 2)
    assert maxpool2x2(Tensor(x)).data.flags.c_contiguous


def pool_tie_heavy(rng, batch):
    """[B,8,8,8] of few distinct values, half of them signed zeros, so most
    windows tie. Channel 0 of sample 0 starts with a +0.0/-0.0 tie as the
    max of each pair of taps, both ways round, then two all-equal windows,
    one of them all signed zeros."""
    x = rng.choice([-1.0, -0.0, 0.0, 0.0, -0.0, 2.0], size=(batch, 8, 8, 8))
    windows = []
    for p in range(4):
        for q in range(4):
            if p != q:
                win = np.full(4, -1.0)
                win[p], win[q] = 0.0, -0.0
                windows.append(win)
    windows += [np.full(4, 2.0), np.array([-0.0, 0.0, 0.0, -0.0])]
    for k, win in enumerate(windows):
        i, j = divmod(k, 4)
        x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2] = win.reshape(2, 2)
    return x


def layouts(x):
    """x as C-contiguous NCHW and as an NCHW view of NHWC memory, the
    layout conv2d outputs have."""
    return x, x.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)


@pytest.mark.parametrize("batch", [1, 17, 512])
def test_pool_forward_bit_identical_to_nchw_fold(batch):
    x = pool_tie_heavy(np.random.default_rng(batch), batch)
    want = pool_forward(x)
    for view in layouts(x):
        got = _pool_forward(view)
        assert_bits_equal(got, want)
        assert got.flags.c_contiguous
    assert np.signbit(want).any() and (want == 0.0).sum() > np.signbit(want).sum()


@pytest.mark.parametrize("batch", [1, 17, 512])
def test_relu_after_pool_bit_identical_to_relu_before(batch):
    z = pool_tie_heavy(np.random.default_rng(100 + batch), batch)
    want = pool_forward(np.maximum(z, 0.0))
    for view in layouts(z):
        assert_bits_equal(np.maximum(_pool_forward(view), 0.0), want)
        out = relu_maxpool2x2(Tensor(view)).data
        assert_bits_equal(out, want)
        assert out.flags.c_contiguous


@pytest.mark.parametrize("spec", [
    default_net_spec(),
    NetSpec(stages=(StageSpec(3, 4), StageSpec(4, 6, stride=2)),
            image_size=8, classes=5),
], ids=["default", "strided"])
def test_infer_logits_bit_identical_to_reference_kernels(spec, monkeypatch):
    rng = np.random.default_rng(41)
    params = {k: p.data for k, p in init_params(spec, stream(41, "init")).items()}
    for k in params:
        if k.endswith("bias"):
            params[k] = signed_zero_heavy(rng, params[k].shape)
    x = signed_zero_heavy(rng, (33, 3, 8, 8))
    got = infer_logits(spec, params, x)
    with monkeypatch.context() as m:
        install_reference_kernels(m)
        want = net_forward(spec, params, x)
        graph, _ = ConvNet(spec, {k: Tensor(a) for k, a in params.items()}
                           ).forward(Tensor(x))
    assert_bits_equal(got, want)
    assert_bits_equal(got, graph.data)


def head_inputs(monkeypatch, forward):
    """forward()'s result and the feature rows it hands the head."""
    seen = []

    def recorded(x, weight, bias):
        seen.append(x.copy())
        return linear_forward(x, weight, bias)

    with monkeypatch.context() as m:
        m.setattr(layers, "linear_forward", recorded)
        out = forward()
    (feats,) = seen
    return out, feats


# stage 0 gathers K = 4*3*3 = 36 >= 32 values per row, where OpenBLAS has a
# small-matrix kernel
K36_SPEC = NetSpec(stages=(StageSpec(4, 8), StageSpec(8, 16)), image_size=8,
                   classes=5)


def signed_zero_net(spec, batch, rng):
    """Parameters with signed-zero-heavy biases and a signed-zero-heavy
    input batch for spec."""
    params = {k: p.data for k, p in init_params(spec, stream(42, "init")).items()}
    for k in params:
        if k.endswith("bias"):
            params[k] = signed_zero_heavy(rng, params[k].shape)
    size = spec.image_size
    return params, signed_zero_heavy(rng, (batch, spec.stages[0].in_ch, size, size))


# kernel and padding of a stage that keeps its input size
SAME_KERNELS = {"k3": dict(ksize=3, padding=1), "k1": dict(ksize=1, padding=0),
                "k5": dict(ksize=5, padding=2)}
# stage 0 and stage 1 kernels, each net at three image sizes
KERNEL_GRID = [(k0, k1, size) for k0 in ("k3", "k1", "k5") for k1 in ("k3", "k1")
               for size in (4, 8, 16)]


@pytest.mark.parametrize("spec", [
    *(NetSpec(stages=(StageSpec(3, 4, **SAME_KERNELS[k0]),
                      StageSpec(4, 5, **SAME_KERNELS[k1])),
              image_size=size, classes=5)
      for k0, k1, size in KERNEL_GRID),
    NetSpec(stages=(StageSpec(3, 4, stride=2, padding=0),
                    StageSpec(4, 5, ksize=1, padding=0)),
            image_size=9, classes=5),
    NetSpec(stages=(StageSpec(3, 4, ksize=5, stride=2, padding=0),
                    StageSpec(4, 5)),
            image_size=19, classes=5),
    K36_SPEC,
    NetSpec(stages=(StageSpec(3, 4), StageSpec(4, 1)), image_size=8, classes=5),
], ids=[*(f"{k0}-{k1}-{size}x{size}" for k0, k1, size in KERNEL_GRID),
        "stride2pad0-k1", "k5stride2pad0-k3", "k36", "cout1"])
@pytest.mark.parametrize("batch", [1, 17, 151, 152])
def test_infer_logits_bit_identical_to_net_forward_and_graph(spec, batch,
                                                             monkeypatch):
    rng = np.random.default_rng(batch)
    params, x = signed_zero_net(spec, batch, rng)
    tparams = {k: Tensor(a) for k, a in params.items()}
    got = head_inputs(monkeypatch, lambda: infer_logits(spec, params, x))
    for want in (head_inputs(monkeypatch, lambda: net_forward(spec, params, x)),
                 head_inputs(monkeypatch, lambda: ConvNet(spec, tparams)
                             .forward(Tensor(x))[0].data)):
        assert_bits_equal(got[0], want[0])
        assert_bits_equal(got[1], want[1])


# stage 1 of both 4x4 nets (K = 72 and K = 144) meets OpenBLAS's
# small-matrix kernel at many block sizes, not only small ones: there a
# slab's matmul differs from the whole matrix's and infer_logits returns
# net_forward's logits (layers._slab_forms_agree)
K144_SPEC = NetSpec(stages=(StageSpec(3, 16), StageSpec(16, 16)), image_size=4,
                    classes=6)
SMALL_GEMM_SWEEPS = [(default_net_spec(image_size=4), 130), (K144_SPEC, 130)]


def past_the_cap(spec):
    """The smallest set ``inference_blocks`` splits in two: a sweep to it
    covers the largest block and the first two-block split."""
    return max(1, EVAL_BLOCK_BYTES // spec.im2col_bytes) + 1


@pytest.mark.parametrize("spec,batches", [
    *((spec, past_the_cap(spec)) for spec in (default_net_spec(image_size=8),
                                              default_net_spec(image_size=16))),
    (K36_SPEC, 160),
    *SMALL_GEMM_SWEEPS,
], ids=["8x8", "16x16", "k36", "4x4", "k144"])
def test_infer_logits_bit_identical_at_every_batch_size(spec, batches,
                                                        monkeypatch):
    # every B from 1 to batches: BLAS may run a slab's matmul and the
    # whole matrix's on different kernels at some sizes
    params, x = signed_zero_net(spec, batches, np.random.default_rng(batches))
    for b in range(1, batches + 1):
        got = head_inputs(monkeypatch, lambda: infer_logits(spec, params, x[:b]))
        want = head_inputs(monkeypatch, lambda: net_forward(spec, params, x[:b]))
        assert_bits_equal(got[0], want[0])
        assert_bits_equal(got[1], want[1])


def slab_forms_agree_on(gen, k, cout, positions, b, bp):
    """Whether each of the four slabs' ``w @ slab`` equals its rows of the
    whole-matrix call at the b real samples of each position, on one draw
    of gen; the slab's bp - b pad samples at each position are drawn too,
    since no real output may read them."""
    m = positions * b
    cols, w = gen.uniform(-1.0, 1.0, (4 * m, k)), gen.uniform(-1.0, 1.0, (cout, k))
    whole = cols @ w.T
    for t in range(0, 4 * m, m):
        slab = gen.uniform(-1.0, 1.0, (k, positions, bp))
        slab[:, :, :b] = cols[t:t + m].T.reshape(k, positions, b)
        got = (w @ slab.reshape(k, -1)).reshape(cout, positions, bp)
        if not np.array_equal(got[:, :, :b],
                              whole[t:t + m].T.reshape(cout, positions, b)):
            return False
    return True


@pytest.mark.parametrize("spec,batches", SMALL_GEMM_SWEEPS, ids=["4x4", "k144"])
def test_gemm_probe_verdicts_hold_on_another_draw(spec, batches):
    # the probe's premise on this core: a shape's verdict does not depend
    # on the data, the pad samples' included, so a third draw agrees with
    # the probe's (on SkylakeX both sweeps meet both verdicts)
    gen = np.random.default_rng(2)
    for b in range(1, batches + 1):
        for s, size in zip(spec.stages, spec.conv_sizes):
            k, positions = s.in_ch * s.ksize ** 2, (size // 2) ** 2
            shape = (k, s.out_ch, positions, b, b + b % 2)
            agree = slab_forms_agree_on(gen, *shape)
            assert layers._slab_forms_agree(*shape) == agree, shape


@pytest.mark.parametrize("k", [2, 3, 5])
def test_gemm_probe_sees_differences_few_outputs_hide(k):
    # at Cout = 1 and a few columns, every output of a draw can coincide
    # although the forms differ (at K = 3 and one column per slab, 34 % of
    # draws do), so two draws are not enough; slabs of 10, 12, 14 and 20
    # columns leave a tail of columns mod 8, where BLAS's kernel choice
    # changes, and an odd b puts a pad column after each position's
    # samples; the verdict must match 200 draws of another generator
    gen = np.random.default_rng(3)
    for positions, b in ((1, 1), (1, 2), (1, 3), (1, 5), (1, 9), (1, 12),
                         (1, 13), (1, 20), (3, 3), (4, 5), (2, 7)):
        shape = (k, 1, positions, b, b + b % 2)
        agree = all(slab_forms_agree_on(gen, *shape) for _ in range(200))
        assert layers._slab_forms_agree(*shape) == agree, shape


def test_infer_logits_bias_after_pool_keeps_ties_and_zero_signs(monkeypatch):
    # a 1x1 conv of weight 1, so before its bias the conv output is the
    # input (with -0.0 read as +0.0, as BLAS sums from +0.0): windows of
    # tiny distinct values tie only once a bias of +-1 is added, and zero
    # maxima meet zero biases of both signs
    spec = NetSpec(stages=(StageSpec(1, 1, ksize=1, padding=0),),
                   image_size=16, classes=3)
    rng = np.random.default_rng(43)
    x = rng.choice([-0.0, 0.0, 1e-17, 2e-17, -1e-17, -1.0, 1.0],
                   size=(40, 1, 16, 16))
    x[0, 0, :2, :2] = [[1e-17, 2e-17], [-1e-17, 0.0]]
    for bias in (1.0, -1.0, 0.0, -0.0):
        params = {"conv0.weight": np.ones((1, 1, 1, 1)),
                  "conv0.bias": np.array([bias]),
                  "head.weight": rng.standard_normal((64, 3)),
                  "head.bias": np.zeros(3)}
        got = head_inputs(monkeypatch, lambda: infer_logits(spec, params, x))
        want = head_inputs(monkeypatch, lambda: net_forward(spec, params, x))
        assert_bits_equal(got[0], want[0])
        assert_bits_equal(got[1], want[1])
    # some windows' taps differ before the bias and all tie after it
    win = x.reshape(40, 8, 2, 8, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
    assert ((win + 1.0 == (win + 1.0).max(axis=1, keepdims=True)).all(axis=1)
            & (win != win.max(axis=1, keepdims=True)).any(axis=1)).any()


def test_infer_logits_rejects_what_net_forward_rejects():
    odd = NetSpec(stages=(StageSpec(3, 4), StageSpec(4, 5, ksize=2, padding=0)),
                  image_size=8, classes=3)  # 8 -> pool 4 -> 3, odd
    too_big = NetSpec(stages=(StageSpec(3, 4, ksize=5, padding=0),),
                      image_size=8, classes=3)  # run on 4x4 inputs
    x = np.zeros((2, 3, 8, 8))
    for spec, xs, message in ((odd, x, "spatial dims must be even, got 3x3"),
                              (too_big, x[..., :4, :4], "does not fit"),
                              (default_net_spec(), x[:, :2], "2 channels"),
                              (default_net_spec(), x[:0], "the batch is empty"),
                              (default_net_spec(), x[0], r"\[B,C,H,W\]"),
                              (default_net_spec(), x[0].tolist(), r"\[B,C,H,W\]")):
        params = {k: p.data for k, p in init_params(spec, stream(0, "init")).items()}
        for forward in (net_forward, infer_logits, predict):
            with pytest.raises(ValueError, match=message):
                forward(spec, params, xs)


def test_conv_pool_graph_is_freed_without_the_cycle_collector():
    # a backward closure that held its own output Tensor would make a cycle,
    # keeping every training step's graph (im2col matrices included) alive
    # until the cycle collector runs
    rng = np.random.default_rng(38)
    gc.collect()
    gc.disable()
    try:
        x, w, b = (Tensor(rng.standard_normal(s)) for s in
                   ((2, 3, 4, 4), (4, 3, 3, 3), (4,)))
        maxpool2x2(conv2d(x, w, b, padding=1).relu()).sum().backward()
        del x, w, b
        assert gc.collect() == 0
    finally:
        gc.enable()


def _mean_std_graph(x):
    mu, sigma = channel_mean_std(x)
    (mu.sum() + sigma.sum()).backward()
    return sigma  # the sqrt node


@pytest.mark.parametrize("build", [_mean_std_graph])
def test_sqrt_and_exp_graphs_are_freed_without_the_cycle_collector(build):
    rng = np.random.default_rng(39)
    gc.collect()
    gc.disable()
    try:
        x = Tensor(rng.standard_normal((2, 3, 4, 4)))
        inner = weakref.ref(build(x).data)
        del x
        assert inner() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_maxpool_grads():
    rng = np.random.default_rng(30)
    # distinct values so the argmax is stable under the FD probe
    x = rng.permutation(64).reshape(1, 4, 4, 4).astype(float)
    r = rng.standard_normal((1, 4, 2, 2))
    check_grads(lambda tx: (maxpool2x2(tx) * r).sum(), [x])


def test_maxpool_odd_size_rejected():
    with pytest.raises(ValueError, match="even"):
        maxpool2x2(Tensor(np.zeros((1, 1, 3, 4))))


def test_global_avg_pool():
    rng = np.random.default_rng(31)
    x = rng.standard_normal((2, 3, 4, 4))
    out = global_avg_pool(Tensor(x))
    assert np.allclose(out.data, x.mean(axis=(2, 3)))
    check_grads(lambda tx: (global_avg_pool(tx) ** 2).sum(), [x])


def test_linear_grads_and_shape_error():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((4, 5))
    w = rng.standard_normal((5, 3))
    b = rng.standard_normal(3)
    check_grads(lambda tx, tw, tb: (linear(tx, tw, tb) ** 2).sum(), [x, w, b])
    with pytest.raises(ValueError, match="input dim 5 != weight rows 4"):
        linear(Tensor(x), Tensor(rng.standard_normal((4, 3))), Tensor(b))


def test_cross_entropy_uniform_logits():
    for n in (2, 5, 10):
        logits = Tensor(np.zeros((3, n)))
        loss = softmax_cross_entropy(logits, np.array([0, 1, n - 1]))
        assert abs(float(loss.data) - np.log(n)) < 1e-12


def softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def test_cross_entropy_grad_closed_form():
    rng = np.random.default_rng(33)
    z = rng.standard_normal((4, 5))
    y = np.array([0, 2, 4, 1])
    t = Tensor(z.copy())
    softmax_cross_entropy(t, y).backward()
    p = softmax(z)
    p[np.arange(4), y] -= 1.0
    assert np.allclose(t.grad, p / 4, atol=1e-12)


def test_cross_entropy_fd_grad():
    rng = np.random.default_rng(34)
    z = rng.standard_normal((3, 4))
    y = np.array([1, 0, 3])
    check_grads(lambda tz: softmax_cross_entropy(tz, y), [z])


def test_cross_entropy_large_logits_stable():
    z = Tensor(np.array([[1000.0, 0.0], [-1000.0, 0.0]]))
    loss = softmax_cross_entropy(z, np.array([0, 0]))
    assert np.isfinite(float(loss.data))


def test_channel_mean_std_exact_mode():
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 2, 2))
    mu, sigma = channel_mean_std(x)
    assert mu.data.item() == 4.0
    assert sigma.data.item() == pytest.approx(np.sqrt(5.0 + layers.EPS_VAR),
                                              abs=1e-12)


def test_channel_mean_std_grads():
    rng = np.random.default_rng(35)
    x = rng.standard_normal((2, 3, 4, 4))
    r1 = rng.standard_normal((2, 3, 1, 1))
    r2 = rng.standard_normal((2, 3, 1, 1))

    def loss(tx):
        mu, sigma = channel_mean_std(tx)
        return (mu * r1).sum() + (sigma * r2).sum()

    check_grads(loss, [x])


def test_init_params_bounds_and_determinism():
    spec = default_net_spec()
    p1 = init_params(spec, stream(7, "init"))
    p2 = init_params(spec, stream(7, "init"))
    for k in p1:
        assert np.array_equal(p1[k].data, p2[k].data)
    w = p1["conv0.weight"].data
    bound = np.sqrt(6.0 / (3 * 3 * 3))
    assert np.abs(w).max() <= bound
    assert np.array_equal(p1["conv0.bias"].data, np.zeros(8))
    assert not np.array_equal(
        w, init_params(spec, stream(8, "init"))["conv0.weight"].data)


def test_convnet_forward_shapes_and_tape():
    spec = default_net_spec(channels=3, image_size=8, classes=6)
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
    logits, stage_outputs = net.forward(Tensor(x))
    assert logits.shape == (4, 6)
    assert [t.shape for t in stage_outputs] == [(4, 8, 4, 4), (4, 16, 2, 2)]


def test_convnet_hooks_called_in_order():
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.random.default_rng(1).standard_normal((2, 3, 8, 8))
    seen = []

    def make(k):
        def hook(t):
            seen.append((k, t.shape))
            return t * 2.0
        return hook

    logits_plain, _ = net.forward(Tensor(x))
    logits_hooked, _ = net.forward(Tensor(x), hooks=[make(0), make(1)])
    assert seen == [(0, (2, 8, 4, 4)), (1, (2, 16, 2, 2))]
    assert not np.allclose(logits_plain.data, logits_hooked.data)


def test_convnet_partial_hooks_allowed():
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
    logits, _ = net.forward(Tensor(x), hooks=[None, lambda t: t])
    assert logits.shape == (2, 6)
    with pytest.raises(ValueError, match="3 hooks for 2 stages"):
        net.forward(Tensor(x), hooks=[None, None, None])


def test_net_forward_rejects_more_hooks_than_stages():
    spec = default_net_spec()
    params = {k: p.data for k, p in init_params(spec, stream(0, "init")).items()}
    x = np.random.default_rng(2).standard_normal((2, 3, 8, 8))
    passthrough = lambda a: (a, None)  # noqa: E731
    assert net_forward(spec, params, x, hooks=[None, passthrough]).shape == (2, 6)
    with pytest.raises(ValueError, match="3 hooks for 2 stages"):
        net_forward(spec, params, x, hooks=[None, None, passthrough])


def test_empty_batch_is_named_in_the_error():
    spec = default_net_spec()
    params = init_params(spec, stream(0, "init"))
    arrays = {k: p.data for k, p in params.items()}
    empty = np.zeros((0, 3, 8, 8))
    for call in (lambda: net_forward(spec, arrays, empty),
                 lambda: predict(spec, arrays, empty)):
        with pytest.raises(ValueError, match="the batch is empty"):
            call()


def test_convnet_rejects_bad_rank():
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(0, "init")))
    with pytest.raises(ValueError, match=r"expected input \[B,C,H,W\]"):
        net.forward(Tensor(np.zeros((3, 8, 8))))


def test_feature_dims_account_for_pooling():
    spec = NetSpec(stages=(StageSpec(3, 4), StageSpec(4, 8)),
                   image_size=16, classes=5)
    assert spec.feature_dims == (8, 4)


def test_end_to_end_network_gradcheck():
    # tiny net, every parameter checked against finite differences
    spec = NetSpec(stages=(StageSpec(2, 3), StageSpec(3, 4)),
                   image_size=4, classes=3)
    params = init_params(spec, stream(3, "init"))
    x = np.random.default_rng(4).standard_normal((2, 2, 4, 4))
    y = np.array([0, 2])
    names = list(params.keys())
    arrays = [params[k].data.copy() for k in names]

    def loss(*tensors):
        net = ConvNet(spec, dict(zip(names, tensors)))
        logits, _ = net.forward(Tensor(x))
        return softmax_cross_entropy(logits, y)

    check_grads(loss, arrays)


@pytest.mark.parametrize("batch", [1, 32, 513])
def test_predict_matches_autodiff_forward_exactly(batch):
    spec = default_net_spec(channels=3, image_size=8, classes=6)
    params = init_params(spec, stream(5, "init"))
    net = ConvNet(spec, params)
    x = np.random.default_rng(batch).standard_normal((batch, 3, 8, 8))
    logits, _ = net.forward(Tensor(x))
    arrays = {k: p.data for k, p in params.items()}
    assert np.array_equal(infer_logits(spec, arrays, x), logits.data)
    assert np.array_equal(predict(spec, arrays, x), logits.data.argmax(axis=1))


@pytest.mark.parametrize("image_size,cap", [(8, 151), (16, 37)])
def test_inference_blocks_are_balanced_and_fit_the_budget(image_size, cap):
    # the largest im2col slab is stage 0's: one pool tap's quarter of
    # image_size**2 rows of 3*3*3
    spec = default_net_spec(channels=3, image_size=image_size, classes=6)
    assert spec.im2col_bytes == (image_size // 2) ** 2 * 27 * 8
    assert EVAL_BLOCK_BYTES // spec.im2col_bytes == cap
    for n in range(1, 4 * cap + 2):
        blocks = inference_blocks(spec, n)
        sizes = [blk.stop - blk.start for blk in blocks]
        assert len(blocks) == -(-n // cap)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= cap
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert [blk.stop - blk.start for blk in inference_blocks(spec, 0)] == [0]


@pytest.mark.parametrize("image_size", [8, 16])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 151, 152, 512, 600])
def test_blocked_predictions_equal_one_unblocked_call(n, image_size):
    spec = default_net_spec(channels=3, image_size=image_size, classes=6)
    params = {k: p.data for k, p in init_params(spec, stream(5, "init")).items()}
    x = np.random.default_rng(n).standard_normal((n, 3, image_size, image_size))
    assert np.array_equal(predict(spec, params, x),
                          infer_logits(spec, params, x).argmax(axis=1))


def test_a_set_within_the_cap_is_one_call(monkeypatch):
    spec = default_net_spec(channels=3, image_size=8, classes=6)
    params = {k: p.data for k, p in init_params(spec, stream(5, "init")).items()}
    x = np.random.default_rng(0).standard_normal((512, 3, 8, 8))
    calls = []

    def counted(spec, params, xb):
        calls.append(xb.shape[0])
        return infer_logits(spec, params, xb)

    monkeypatch.setattr(layers, "infer_logits", counted)
    for n, want in [(1, [1]), (128, [128]), (151, [151]), (152, [76, 76]),
                    (512, [128] * 4)]:
        calls.clear()
        predict(spec, params, x[:n])
        assert calls == want

