"""Network layers and the small conv net used throughout the simulator.

The feature extractor is a sequence of conv stages, each a conv followed
by relu and 2x2 max-pool (``StageSpec``). After each stage an optional
per-stage hook runs, which is where stochastic feature augmentation plugs
in. The classifier head is a single linear layer on the flattened final
feature map.

Every training op is a kernel pair on plain arrays: a forward kernel that
returns its output and a backward context, and a backward kernel that
maps the output's gradient and that context to the input and parameter
gradients (``conv2d_*``, ``relu_maxpool2x2_*``, ``linear_*``,
``softmax_cross_entropy_*``; the augmentation's ``ffa_forward``/
``ffa_backward`` live in ``augment``). They have two callers:

- ``net_forward`` and ``net_backward``, the array forward and the
  graph-free training chain. ``experiment.make_train_fn`` trains every
  batch through them with a tape of backward contexts, and ``theory``
  checks on them. No Tensor is built.
- The autodiff ops ``conv2d``, ``relu_maxpool2x2``, ``maxpool2x2``,
  ``linear`` and ``softmax_cross_entropy``, one Tensor node per pair, and
  ``ConvNet.forward`` on top of them. No command or run builds the graph;
  it is the tests' reference for the chain. Its ``maxpool2x2`` runs the
  pool pair ``maxpool2x2_*`` on its own, for the acceptance gate and the
  per-layer benchmark.

Both callers run the same kernels, so the chain's loss and gradients are
the graph's bit for bit (``net_backward`` says why the graph's gradient
copies can be dropped).

Evaluation (``predict``, which ``experiment.evaluate`` calls) has a loop
of its own, ``infer_logits``, on blocks of up to 151 samples at 8x8
(``inference_blocks``). It gathers and multiplies one pool tap's quarter
of each im2col matrix at a time, runs an odd block with one zero pad
sample so that no benchmark block's stage 1 falls back to ``net_forward``,
keeps nothing for a backward pass and gives the logits of ``net_forward``
bit for bit, so predictions equal the argmax of the training forward.

The training kernels work in the memory order the conv matmul writes,
NHWC, with im2col rows in (B, H, W) order, because the weight and bias
gradients sum over those rows in that order; ``_pool_max``,
``relu_maxpool2x2_forward``, ``_col2im`` and their backward kernels say
how each keeps it. ``infer_logits`` sums nothing over rows, so it keeps
each activation channel-major instead, in the input's (C, H, W) feature
order; its docstring says how it stays bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, kernel_node

# added to each spatial variance under sigma's square root (channel_mean_std)
EPS_VAR = 1e-6


# ---- kernels on raw arrays --------------------------------------------------


@functools.cache
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  padding: int, infer: bool = False) -> tuple[np.ndarray, int, int]:
    """Flat gather index into C*H*W features in (C, H, W) order, plus one
    trailing zero; taps that fall in the padding point at the zero.
    Ordered (Ho, Wo, C, kh, kw) for ``_im2col``, or for ``infer_logits``
    (i, j, C, kh, kw, Ho/2, Wo/2): four slabs, one per pool tap (i, j),
    each the transposed im2col matrix of the output positions
    (2p + i, 2q + j) in pooled order (p, q). Read-only, because the cache
    shares it."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv2d: {kh}x{kw} kernel does not fit a {h}x{w} input "
            f"with padding {padding}"
        )
    if infer and (ho % 2 or wo % 2):
        raise ValueError(f"maxpool2x2: spatial dims must be even, got {ho}x{wo}")
    rows = (np.arange(ho)[:, None, None, None, None] * stride
            + np.arange(kh)[:, None] - padding)
    cols = (np.arange(wo)[:, None, None, None] * stride
            + np.arange(kw) - padding)
    chan = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, chan * (h * w) + rows * w + cols, c * h * w)
    if infer:
        idx = idx.reshape(ho // 2, 2, wo // 2, 2, -1).transpose(1, 3, 4, 0, 2)
    idx = idx.ravel()
    idx.flags.writeable = False
    return idx, ho, wo


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Unpadded x [B,C,H,W] -> [B*Ho*Wo, C*kh*kw] patch rows, one gather."""
    b, c, h, w = x.shape
    idx, ho, wo = _im2col_index(c, h, w, kh, kw, stride, padding)
    rows = np.concatenate((x.reshape(b, c * h * w), np.zeros((b, 1))), axis=1)
    cols = np.take(rows, idx, axis=1).reshape(b * ho * wo, c * kh * kw)
    return cols, (ho, wo)


@functools.cache
def _col2im_taps(h: int, w: int, kh: int, kw: int, stride: int,
                 padding: int) -> tuple[tuple, int, int]:
    """Per kernel tap (i, j), in (kh, kw) order: the input rows and columns
    it reaches and the output rows and columns that reach them, as slices.
    Taps that fall only in the padding are left out."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1

    def reach(k, n, n_out):
        # output o reads input o * stride + k - padding, kept if in [0, n)
        lo = max(0, -(-(padding - k) // stride))
        hi = min(n_out, (n - 1 + padding - k) // stride + 1)
        if hi <= lo:
            return None
        first = lo * stride + k - padding
        last = first + (hi - lo - 1) * stride
        return slice(first, last + 1, stride), slice(lo, hi)

    taps = []
    for i in range(kh):
        for j in range(kw):
            rows, cols = reach(i, h, ho), reach(j, w, wo)
            if rows is not None and cols is not None:
                taps.append((i, j, rows[0], cols[0], rows[1], cols[1]))
    return tuple(taps), ho, wo


def _col2im(gcols: np.ndarray, shape: tuple[int, int, int, int], kh: int,
            kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of ``_im2col``: sums [B*Ho*Wo, C*kh*kw] patch gradients
    back into a [B,C,H,W] gradient, NHWC in memory.

    A zero-filled buffer takes one strided ``+=`` per tap in (kh, kw)
    order, so each pixel sums its taps in that order starting from +0.0:
    no -0.0 survives, whatever the signs of the zeros in gcols. The NHWC
    buffer keeps the channels of a tap contiguous on both sides."""
    b, c, h, w = shape
    taps, ho, wo = _col2im_taps(h, w, kh, kw, stride, padding)
    g6 = gcols.reshape(b, ho, wo, c, kh, kw)
    gx = np.zeros((b, h, w, c))
    for i, j, rows, cols, out_rows, out_cols in taps:
        gx[:, rows, cols] += g6[:, out_rows, out_cols, :, i, j]
    return gx.transpose(0, 3, 1, 2)


def _conv_shape(cin: int, weight: np.ndarray) -> tuple[int, int, int]:
    """(Cout, kh, kw) of a conv weight that takes cin input channels."""
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(
            f"conv2d: input has {cin} channels, weight expects {cin_w}"
        )
    return cout, kh, kw


def _conv_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  stride: int, padding: int):
    """Returns the [B,Cout,Ho,Wo] output and the im2col matrix."""
    b, cin = x.shape[:2]
    cout, kh, kw = _conv_shape(cin, weight)
    cols, (ho, wo) = _im2col(x, kh, kw, stride, padding)
    out_flat = cols @ weight.reshape(cout, -1).T
    # the same elementwise add as broadcasting [M, Cout] + [Cout], in place
    # along whole per-sample rows instead of Cout-long inner loops; the bias
    # is tiled per call, since SGD changes it every step, with repeat rather
    # than np.tile, which adds microseconds of Python per call
    rows = out_flat.reshape(b, ho * wo * cout)
    np.add(rows, bias[np.newaxis].repeat(ho * wo, axis=0).ravel(), out=rows)
    return out_flat.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2), cols


# window offsets in argmax order: on ties the first of these wins
_POOL_TAPS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _pool_max(x: np.ndarray) -> np.ndarray:
    """2x2 max with stride 2: a [B,C,H/2,W/2] view of NHWC memory.

    The taps are folded over the NHWC view of x, the memory order conv
    outputs have, so each np.maximum streams whole rows; the values do not
    depend on the view. np.maximum returns its second operand on ties, so
    the taps are folded in reverse to keep the first maximum (the one
    argmax would pick; this only shows on signed zeros).
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2: spatial dims must be even, got {h}x{w}")
    nhwc = x.transpose(0, 2, 3, 1)
    x11, x10, x01, x00 = (nhwc[:, i::2, j::2] for i, j in reversed(_POOL_TAPS))
    out = np.maximum(x11, x10)
    np.maximum(out, x01, out=out)
    np.maximum(out, x00, out=out)
    return out.transpose(0, 3, 1, 2)


def _pool_forward(x: np.ndarray) -> np.ndarray:
    """``_pool_max`` into a C-contiguous [B,C,H/2,W/2] array.

    The output is made C-contiguous on purpose: hooks reduce it over
    (H, W), and a different memory layout changes the summation order and
    thus the low bits of those statistics.
    """
    return np.ascontiguousarray(_pool_max(x))


# ---- kernel pairs -----------------------------------------------------------


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   stride: int, padding: int):
    out, cols = _conv_forward(x, weight, bias, stride, padding)
    return out, (cols, weight, x.shape, stride, padding)


def conv2d_backward(g: np.ndarray, ctx, input_grad: bool = True):
    """(gx, gweight, gbias); gx is None without input_grad, and otherwise
    NHWC in memory (``_col2im``)."""
    cols, weight, shape, stride, padding = ctx
    cout, _, kh, kw = weight.shape
    # C order whatever g's layout: the reshape is an F-ordered view for an
    # NCHW-contiguous g at B=1, and the order sets the low bits of the sums
    gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1).reshape(-1, cout))
    gw = (gm.T @ cols).reshape(weight.shape)
    gx = None
    if input_grad:
        gx = _col2im(gm @ weight.reshape(cout, -1), shape, kh, kw, stride, padding)
    # einsum adds the rows in the order the axis-0 sum does, but along
    # whole rows instead of Cout-long inner loops; at Cout == 1 that sum is
    # pairwise, so it stays
    gb = np.einsum("ij->j", gm) if cout > 1 else gm.sum(axis=0)
    return gx, gw, gb


def maxpool2x2_forward(x: np.ndarray):
    pooled = _pool_forward(x)
    return pooled, (x, pooled)


def maxpool2x2_backward(g: np.ndarray, ctx) -> np.ndarray:
    """Each window's gradient goes to its first maximum, as argmax's would."""
    x, pooled = ctx
    gx = np.zeros(x.shape)
    free = np.ones(pooled.shape, dtype=bool)
    for i, j in _POOL_TAPS[:-1]:
        hit = free & (x[:, :, i::2, j::2] == pooled)
        np.copyto(gx[:, :, i::2, j::2], g, where=hit)
        free &= ~hit
    i, j = _POOL_TAPS[-1]
    np.copyto(gx[:, :, i::2, j::2], g, where=free)
    return gx


def relu_maxpool2x2_forward(z: np.ndarray):
    """``maxpool2x2(relu(z))``, pooling first: np.maximum returns its second
    operand on ties, so a window whose max is <= 0 (signed zeros included)
    gives +0.0 in either order, and a positive max is the same value. The
    relu writes the C-contiguous output ``_pool_forward`` would; the
    backward keeps the pool's NHWC max."""
    top = _pool_max(z)
    return np.maximum(top, 0.0, order="C"), (z, top)


def relu_maxpool2x2_backward(g: np.ndarray, ctx) -> np.ndarray:
    """The gradient of ``maxpool2x2(relu(z))`` without the relu mask.

    relu zeroes every window whose max is <= 0, so only windows with a
    positive max pass gradient, to their first maximum; those windows are
    where the graph's relu mask is one. z, viewed in the conv output's NHWC
    memory as [B,H/2,2,W/2,2,C], is compared with the pool's max (taken
    before the relu) once. Ties are rare among positive values: only when
    the hits outnumber the positive windows are the taps masked in argmax
    order. The result is NHWC in memory, where the conv backward reads it.
    """
    z, top = ctx
    b, c, h, w = z.shape
    win = (b, h // 2, 1, w // 2, 1, c)
    top = top.transpose(0, 2, 3, 1).reshape(win)  # a view: NHWC memory
    live = top > 0
    # NaN equals nothing, so windows without a positive max get no hit
    top = np.where(live, top, np.nan)
    hit = z.transpose(0, 2, 3, 1).reshape(b, h // 2, 2, w // 2, 2, c) == top
    if np.count_nonzero(hit) != np.count_nonzero(live):
        # a positive max held by two taps: keep the first, as argmax does
        free = np.ones((b, h // 2, w // 2, c), dtype=bool)
        for i, j in _POOL_TAPS:
            tap = hit[:, :, i, :, j, :]
            tap &= free
            free &= ~tap
    gz = np.where(hit, g.transpose(0, 2, 3, 1).reshape(win), 0.0)
    return gz.reshape(b, h, w, c).transpose(0, 3, 1, 2)


def linear_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """x: [B,D]; weight: [D,K]; bias: [K]."""
    if x.shape[1] != weight.shape[0]:
        raise ValueError(
            f"linear: input dim {x.shape[1]} != weight rows {weight.shape[0]}"
        )
    return x @ weight + bias, (x, weight)


def linear_backward(g: np.ndarray, ctx):
    """(gx, gweight, gbias)."""
    x, weight = ctx
    return g @ weight.T, x.T @ g, g.sum(axis=0)


def softmax_cross_entropy_forward(z: np.ndarray, labels: np.ndarray):
    """Mean cross entropy over the batch. labels: int array [B]."""
    b = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    total = e.sum(axis=1)
    lse = m[:, 0] + np.log(total)
    # .mean()'s sum and divide without its Python wrapper
    return np.add.reduce(lse - z[np.arange(b), labels]) / b, (e, total, labels)


def softmax_cross_entropy_backward(g, ctx) -> np.ndarray:
    e, total, labels = ctx
    b = e.shape[0]
    p = e / total[:, np.newaxis]
    p[np.arange(b), labels] -= 1.0
    return g * p / b


# ---- autodiff ops -----------------------------------------------------------


def conv2d(x: Tensor | np.ndarray, weight: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution. x: [B,Cin,H,W]; weight: [Cout,Cin,kh,kw]; bias: [Cout].

    A raw ndarray x is a constant: it gets no gradient, so the backward
    pass skips the col2im."""
    xt = x if isinstance(x, Tensor) else None
    xd = x.data if xt is not None else np.asarray(x, dtype=np.float64)
    out, ctx = conv2d_forward(xd, weight.data, bias.data, stride, padding)
    return kernel_node(out, (xt, weight, bias),
                       lambda g: conv2d_backward(g, ctx, xt is not None))


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. Requires even spatial dims."""
    out, ctx = maxpool2x2_forward(x.data)
    return kernel_node(out, (x,), lambda g: (maxpool2x2_backward(g, ctx),))


def relu_maxpool2x2(z: Tensor) -> Tensor:
    """``maxpool2x2(z.relu())`` as one node, values and gradients bit for bit."""
    out, ctx = relu_maxpool2x2_forward(z.data)
    return kernel_node(out, (z,), lambda g: (relu_maxpool2x2_backward(g, ctx),))


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per sample per channel: [B,C,H,W] -> [B,C]."""
    return x.mean(axis=(2, 3))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x: [B,D]; weight: [D,K]; bias: [K]."""
    out, ctx = linear_forward(x.data, weight.data, bias.data)
    return kernel_node(out, (x, weight, bias), lambda g: linear_backward(g, ctx))


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy over the batch. labels: int array [B]."""
    loss, ctx = softmax_cross_entropy_forward(logits.data, labels)
    return kernel_node(loss, (logits,),
                       lambda g: (softmax_cross_entropy_backward(g, ctx),))


def channel_mean_std(x: Tensor | np.ndarray):
    """Per-sample per-channel spatial statistics, the one implementation of
    them.

    For a Tensor x, returns the differentiable pair (mu, sigma), both
    [B,C,1,1]. For an ndarray x (``stats.channel_stats``), returns one
    [2,B,C,1,1] array whose leading axis is (mu, sigma), from the same
    numpy arithmetic; it unpacks as the pair does. sigma is the square
    root of the population spatial variance plus EPS_VAR, which keeps the
    node differentiable on constant channels.
    """
    if isinstance(x, Tensor):
        mu = x.mean(axis=(2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(2, 3), keepdims=True)
        return mu, (var + EPS_VAR).sqrt()
    x = np.asarray(x, dtype=np.float64)
    inv_n = 1.0 / float(x.shape[2] * x.shape[3])
    pair = np.empty((2,) + x.shape[:2] + (1, 1))
    mu = np.multiply(x.sum(axis=(2, 3), keepdims=True), inv_n, out=pair[0])
    var = ((x - mu) ** 2).sum(axis=(2, 3), keepdims=True) * inv_n
    np.sqrt(var + EPS_VAR, out=pair[1])
    return pair


# ---- the conv net -----------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    """One conv stage: a ksize x ksize conv from in_ch to out_ch channels,
    then relu and 2x2 max-pool, so the conv output's sides must be even."""

    in_ch: int
    out_ch: int
    ksize: int = 3
    stride: int = 1
    padding: int = 1


@dataclass(frozen=True)
class NetSpec:
    """Architecture of the desk-scale classifier: conv stages on a square
    image_size input, then a linear head from the last stage's flattened
    pooled output to classes logits."""

    stages: tuple[StageSpec, ...]
    image_size: int
    classes: int

    @property
    def conv_sizes(self) -> tuple[int, ...]:
        """Side of each stage's conv output, before its pool."""
        size, sizes = self.image_size, []
        for s in self.stages:
            size = (size + 2 * s.padding - s.ksize) // s.stride + 1
            sizes.append(size)
            size //= 2
        return tuple(sizes)

    @property
    def feature_dims(self) -> tuple[int, int]:
        """Channels and side of the last stage's pooled output."""
        return self.stages[-1].out_ch, self.conv_sizes[-1] // 2

    @property
    def im2col_bytes(self) -> int:
        """Bytes per sample of the net's largest float64 im2col slab: one
        pool tap's quarter of a stage's im2col matrix, the most
        ``infer_logits`` gathers at once outside ``net_forward``."""
        return max((size // 2) ** 2 * s.in_ch * s.ksize * s.ksize * 8
                   for s, size in zip(self.stages, self.conv_sizes))

    @property
    def stage_channels(self) -> tuple[int, ...]:
        """Channel count at each hook site (one site per stage)."""
        return tuple(s.out_ch for s in self.stages)


def default_net_spec(channels: int = 3, image_size: int = 8,
                     classes: int = 6) -> NetSpec:
    return NetSpec(
        stages=(
            StageSpec(in_ch=channels, out_ch=8),
            StageSpec(in_ch=8, out_ch=16),
        ),
        image_size=image_size,
        classes=classes,
    )


def init_params(spec: NetSpec, rng: np.random.Generator) -> dict[str, Tensor]:
    """Kaiming-uniform fan-in init; biases zero. Ordered by layer."""
    params: dict[str, Tensor] = {}
    for i, s in enumerate(spec.stages):
        fan_in = s.in_ch * s.ksize * s.ksize
        bound = np.sqrt(6.0 / fan_in)
        params[f"conv{i}.weight"] = Tensor(
            rng.uniform(-bound, bound, size=(s.out_ch, s.in_ch, s.ksize, s.ksize))
        )
        params[f"conv{i}.bias"] = Tensor(np.zeros(s.out_ch))
    feat_ch, feat_size = spec.feature_dims
    d = feat_ch * feat_size * feat_size
    bound = np.sqrt(6.0 / d)
    params["head.weight"] = Tensor(rng.uniform(-bound, bound, size=(d, spec.classes)))
    params["head.bias"] = Tensor(np.zeros(spec.classes))
    return params


def _as_batch(x) -> np.ndarray:
    """x as a float64 [B,C,H,W] array with B > 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected input [B,C,H,W], got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("the batch is empty")
    return x


def net_forward(spec: NetSpec, params: dict[str, np.ndarray], x: np.ndarray,
                hooks=None, tape: list | None = None) -> np.ndarray:
    """The logits ``ConvNet.forward`` computes, bit for bit, on raw arrays:
    the same forward kernels, no Tensors.

    hooks are per-stage callables (entries may be None) taking the stage
    output and returning (out, back): back is None when out is the input
    passed through, else a function from the gradient of out to that of
    the input. A list tape collects every op's backward context for
    ``net_backward``; without one nothing is kept.
    """
    out = _as_batch(x)
    if hooks is not None and len(hooks) > len(spec.stages):
        raise ValueError(f"{len(hooks)} hooks for {len(spec.stages)} stages")
    for i, s in enumerate(spec.stages):
        out, conv = conv2d_forward(out, params[f"conv{i}.weight"],
                                   params[f"conv{i}.bias"], s.stride, s.padding)
        out, act = relu_maxpool2x2_forward(out)
        hook = None
        if hooks is not None and i < len(hooks) and hooks[i] is not None:
            out, back = hooks[i](out)
            hook = (back, out) if back is not None else None
        if tape is not None:
            tape.append((conv, act, hook))
    logits, head = linear_forward(out.reshape(out.shape[0], -1),
                                  params["head.weight"], params["head.bias"])
    if tape is not None:
        tape.append((head, out.shape))
    return logits


def net_backward(tape: list, g: np.ndarray) -> dict[str, np.ndarray]:
    """The parameter gradients ``Tensor.backward`` leaves after
    ``ConvNet.forward``, bit for bit, from a ``net_forward`` tape and the
    gradient g of the logits.

    The graph stores each node's gradient through ``Tensor._accumulate``, a
    copy g + 0.0 in the memory layout of the node's data; the chain hands
    each backward kernel the previous one's output as it is. The + 0.0 only
    turns -0.0 into +0.0, and the sign of a zero cannot reach a parameter:
    every parameter gradient is a numpy sum or a BLAS matmul, both of which
    start from +0.0 (tests/test_chain.py checks the sign bits), and no
    backward kernel divides by a gradient or branches on its sign. The
    layout matters only where a kernel reduces over its gradient in memory
    order, the hook's transform; there the chain restores the layout of
    the hook's output, which the conv backward's NHWC col2im does not have.
    """
    *stages, (head, shape) = tape
    g, head_w, head_b = linear_backward(g, head)
    g = g.reshape(shape)
    grads = {}
    for i in range(len(stages) - 1, -1, -1):
        conv, act, hook = stages[i]
        if hook is not None:
            back, out = hook
            if g.strides != out.strides:
                g = np.add(g, 0.0, out=np.empty_like(out))
            g = back(g)
        g = relu_maxpool2x2_backward(g, act)
        g, grads[f"conv{i}.weight"], grads[f"conv{i}.bias"] = conv2d_backward(
            g, conv, input_grad=i > 0)
    grads["head.weight"], grads["head.bias"] = head_w, head_b
    return grads


@functools.cache
def _slab_forms_agree(k: int, cout: int, positions: int, b: int,
                      bp: int) -> bool:
    """Whether ``w @ slab`` (w [Cout, K], slab [K, positions*bp], both
    C-ordered, bp >= b samples at each position) equals, at the first b
    samples of each position, the matching rows of ``net_forward``'s
    ``cols @ w.T`` on the whole C-ordered cols [4*positions*b, K] of the b
    real samples, for each of its four slabs, bit for bit on random draws
    from a private generator. The reference is the whole matrix, not a
    slab's rows, because OpenBLAS's small-matrix kernel depends on the row
    count. The bp - b pad samples are zero; their values cannot reach a
    real output, since each column of ``w @ slab`` reads only its own slab
    column. Premise: two call forms that agree on random data agree on all
    data, since BLAS picks its kernel by shape and layout alone; so a
    verdict holds only on the core that probed it. False sends the block
    to ``net_forward``."""
    m = positions * b
    # draws until 256 outputs are compared: where the forms differ, one
    # output coincides by chance up to ~80 % of the time (at Cout = 1,
    # K = 2..5), so one draw of (K=3, Cout=1, m=1) agrees 34 % of the time
    for d in range(-(-256 // (cout * 4 * m))):
        w = _uniform(np.random.default_rng((d, 1)), (cout, k))
        # the whole matrix lives only for its call; each slab is then drawn
        # again from the same stream, which fills rows in order
        whole = _uniform(np.random.default_rng((d, 0)), (4 * m, k)) @ w.T
        again = np.random.default_rng((d, 0))
        slab = np.zeros((k, positions, bp))
        for t in range(0, 4 * m, m):
            slab[:, :, :b] = _uniform(again, (m, k)).T.reshape(k, positions, b)
            got = (w @ slab.reshape(k, -1)).reshape(cout, positions, bp)
            if not np.array_equal(got[:, :, :b],
                                  whole[t:t + m].T.reshape(cout, positions, b)):
                return False
    return True


def _uniform(gen: np.random.Generator, shape) -> np.ndarray:
    """Uniform on [-1, 1), scaled in place: no temporary of its size."""
    a = gen.random(shape)
    a *= 2.0
    a -= 1.0
    return a


def infer_logits(spec: NetSpec, params: dict[str, np.ndarray],
                 x: np.ndarray) -> np.ndarray:
    """The logits of ``net_forward`` without hooks, bit for bit, from a loop
    of its own that keeps nothing for a backward pass.

    Activations stay channel-major, in the input's (C, H, W) feature
    order: one row per feature, plus a zero row that padding taps point
    at. A row holds the B samples and, for an odd B, one zero pad sample,
    so every row is bp = B + B % 2 wide: at an odd width, stage 1's slabs
    of the default net would have 4*B = 4 (mod 8) columns, where SkylakeX's
    BLAS sums them differently from ``net_forward``'s call. Each column of
    a matmul reads only its own slab column, so the pad cannot reach a
    real output, and the head reads the first B columns. The im2col
    gather is ordered by pool tap outermost, so the transposed im2col
    matrix is four slabs [C*kh*kw, positions/4*bp], one per tap, each in
    pooled position order. ``np.take`` copies whole rows into one slab at
    a time, and the conv is ``W @ slab``; the slabs' products are folded
    max(acc, next) as they arrive, in reverse tap order, as ``_pool_max``
    folds them, the last straight into the next stage's rows. Where
    ``_slab_forms_agree`` finds that BLAS sums a stage's slab differently
    from ``net_forward``'s call, the block's logits are ``net_forward``'s
    own. The bias is added after the pool: rounding is monotone, so
    max_t fl(z_t + b) = fl(max_t z_t + b), and a zero max keeps its sign
    (fl(z + b) is -0.0 only for z = b = -0.0). Then relu; the head gets
    the last rows as C-ordered [B, C*H*W].
    """
    x = _as_batch(x)
    b, c, h, w = x.shape
    bp = b + b % 2
    rows = np.empty((c * h * w + 1, bp))
    rows[:-1, :b] = x.reshape(b, -1).T
    rows[:-1, b:] = 0.0  # the pad sample
    for i, s in enumerate(spec.stages):
        rows[-1] = 0.0  # the padding's zero row
        weight, bias = params[f"conv{i}.weight"], params[f"conv{i}.bias"]
        cout, kh, kw = _conv_shape(c, weight)
        idx, h, w = _im2col_index(c, h, w, kh, kw, s.stride, s.padding,
                                  infer=True)
        k, wm = c * kh * kw, weight.reshape(cout, -1)
        c, h, w = cout, h // 2, w // 2
        # probed before the gather: the probe's draws and the slabs are
        # never live at once, which keeps a block's peak memory down
        if not _slab_forms_agree(k, cout, h * w, b, bp):
            return net_forward(spec, params, x)
        out = np.empty((c * h * w + 1, bp))
        feats = out[:-1].reshape(c, -1)
        taps = idx.reshape(4, -1)
        acc = wm @ np.take(rows, taps[3], axis=0).reshape(k, -1)
        # each slab dies with its product, before the next is gathered,
        # so one slab at a time counts toward a block's peak memory
        for t, dest in ((2, acc), (1, acc), (0, feats)):
            np.maximum(acc, wm @ np.take(rows, taps[t], axis=0).reshape(k, -1),
                       out=dest)
        rows = out
        np.add(feats, bias[:, np.newaxis], out=feats)
        np.maximum(feats, 0.0, out=feats)
    head_rows = np.ascontiguousarray(rows[:-1, :b].T)
    return linear_forward(head_rows, params["head.weight"], params["head.bias"])[0]


# Inference runs on blocks of samples whose largest im2col slab
# (``NetSpec.im2col_bytes``) fits in this many bytes: 151 samples at 8x8,
# 37 at 16x16, and an odd block gathers one pad sample more. A sweep of
# ``predict`` from 256 KiB to 2 MiB (one SkylakeX core, one OpenBLAS
# thread, 24 interleaved repeats; n = 512, 128, 72 and the odd splits 97,
# 153, 301 at 8x8, and 512, 128, 72, 41 at 16x16), times against 512 KiB:
# - at 8x8, odd blocks cost no more a sample than even ones: 97 samples
#   (one block) take 2.84 us a sample and 301 (151 + 150) 2.82, against
#   3.14 on 128. 153 samples in one block (640 KiB and up) take 0.90-0.91x
#   their 77 + 76. 512 samples take 0.90x at 384 KiB (blocks of 103 and
#   102) and 0.97-1.04x at 640-768 KiB (171 and 170), but 384 KiB and
#   below split 128 samples in two, 1.11-1.12x. 1 MiB and up keep 301
#   samples in one block, 1.32-1.34x, and 2 MiB 512 samples, 1.37x;
# - at 16x16, 640 and 768 KiB take 0.89-1.06x, 448 KiB and below split
#   72 samples into three blocks, 1.11-1.21x, and 1 MiB and up lose the
#   cache, 1.13-1.43x on 72 and 512 samples.
EVAL_BLOCK_BYTES = 512 << 10


def inference_blocks(spec: NetSpec, n: int) -> list[slice]:
    """Split n samples into ceil(n / cap) blocks whose sizes differ by at
    most one, cap = max(1, EVAL_BLOCK_BYTES // spec.im2col_bytes). Balanced
    blocks leave no tail of a few rows for BLAS's small-matrix paths; n = 0
    gives one empty block, which ``infer_logits`` rejects."""
    cap = max(1, EVAL_BLOCK_BYTES // spec.im2col_bytes)
    k = max(1, -(-n // cap))
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def predict(spec: NetSpec, params: dict[str, np.ndarray],
            x: np.ndarray) -> np.ndarray:
    """Predicted class per sample: the argmax of ``infer_logits``, one
    ``inference_blocks`` block at a time. A sample's logits do not depend
    on the other samples of its block, so the blocks change no prediction."""
    x = _as_batch(x)
    return np.concatenate([infer_logits(spec, params, x[blk]).argmax(axis=1)
                           for blk in inference_blocks(spec, x.shape[0])])


class ConvNet:
    """Conv, relu and pool stages with per-stage hooks, then a linear head."""

    def __init__(self, spec: NetSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params

    def forward(self, x: Tensor, hooks=None) -> tuple[Tensor, list[Tensor]]:
        """The logits and each stage's output, the activation a hook sees.
        hooks is a list of callables (one per stage, entries may be None);
        each takes and returns the stage activation."""
        if x.data.ndim != 4:
            raise ValueError(f"expected input [B,C,H,W], got shape {x.shape}")
        if hooks is not None and len(hooks) > len(self.spec.stages):
            raise ValueError(
                f"{len(hooks)} hooks for {len(self.spec.stages)} stages"
            )
        stage_outputs = []
        # the input is a constant: the first conv computes no gradient for it
        out = x.data
        for i, s in enumerate(self.spec.stages):
            out = relu_maxpool2x2(conv2d(
                out,
                self.params[f"conv{i}.weight"],
                self.params[f"conv{i}.bias"],
                stride=s.stride,
                padding=s.padding,
            ))
            stage_outputs.append(out)
            if hooks is not None and i < len(hooks) and hooks[i] is not None:
                out = hooks[i](out)
        b = out.shape[0]
        flat = out.reshape(b, -1)
        logits = linear(flat, self.params["head.weight"], self.params["head.bias"])
        return logits, stage_outputs
