"""Network layers and the small conv net used throughout the simulator.

The feature extractor is a sequence of conv stages (conv, relu, optional
2x2 max-pool). After each stage an optional per-stage hook runs, which is
where stochastic feature augmentation plugs in. The classifier head is a
single linear layer on the flattened final feature map.

Convolution and pooling are plain-numpy kernels (``_conv_forward``,
``_pool_forward``) shared by two callers: the autodiff ops ``conv2d``,
``relu_maxpool2x2`` and ``maxpool2x2``, which add backward closures, and
the graph-free inference path ``infer_logits``/``ConvNet.predict``, which
builds no Tensors. Both run the same arithmetic, so predictions equal the
argmax of the training forward bit for bit.

Both kernels work in the memory order the conv matmul writes, NHWC. The
conv adds its bias in place along whole per-sample rows, the same
elementwise add as a broadcast. The pool folds its four taps over the NHWC
view, in reverse tap order so the first maximum wins a tie, and relu runs
after the pool on the quarter-size array. That order is bit-identical to
relu first: np.maximum returns its second operand on ties, so a window
whose max is <= 0 gives +0.0 either way, and a positive max is unchanged.

In training, ``ConvNet.forward`` hands the first conv the raw input array:
``conv2d`` treats an ndarray as a constant, so no input gradient is
computed. For Tensor inputs the conv backward scatters patch gradients
back with ``_col2im``, one ``np.bincount`` over a cached tap-major index,
which sums each pixel's taps in the same order as a zero-filled buffer
with one strided ``+=`` per tap, bit for bit. A stage with both relu and
pool is one ``relu_maxpool2x2`` node, whose backward gives the gradient of
``maxpool2x2(z.relu())`` bit for bit without the relu node, the
zero-filled pool gradient or the relu mask.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


# ---- kernels on raw arrays --------------------------------------------------


@functools.cache
def _im2col_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  padding: int) -> tuple[np.ndarray, int, int]:
    """Flat gather index into a per-sample row of C*H*W values plus one
    trailing zero, ordered (Ho, Wo, C, kh, kw); taps that fall in the
    padding point at the zero. Read-only, because the cache shares it."""
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"conv2d: {kh}x{kw} kernel does not fit a {h}x{w} input "
            f"with padding {padding}"
        )
    rows = (np.arange(ho)[:, None, None, None, None] * stride
            + np.arange(kh)[:, None] - padding)
    cols = (np.arange(wo)[:, None, None, None] * stride
            + np.arange(kw) - padding)
    chan = np.arange(c)[:, None, None]
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    idx = np.where(inside, chan * (h * w) + rows * w + cols, c * h * w).ravel()
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
def _col2im_index(c: int, h: int, w: int, kh: int, kw: int, stride: int,
                  padding: int) -> tuple[np.ndarray, int, int]:
    """``_im2col_index`` reordered tap-major (kh, kw, Ho, Wo, C): the
    order in which ``_col2im`` adds each pixel's taps. Independent of the
    batch size; read-only, because the cache shares it."""
    idx, ho, wo = _im2col_index(c, h, w, kh, kw, stride, padding)
    taps = idx.reshape(ho, wo, c, kh, kw).transpose(3, 4, 0, 1, 2).ravel()
    taps.flags.writeable = False
    return taps, ho, wo


def _col2im(gcols: np.ndarray, shape: tuple[int, int, int, int], kh: int,
            kw: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of ``_im2col``: sums [B*Ho*Wo, C*kh*kw] patch gradients
    back into an unpadded [B,C,H,W] array with one ``np.bincount``.

    bincount adds its weights in order of occurrence, starting from +0.0.
    With the tap-major index, each pixel sums its taps in (kh, kw) order,
    exactly as a zero-filled buffer with one ``+=`` per tap would, signed
    zeros included."""
    b, c, h, w = shape
    idx, ho, wo = _col2im_index(c, h, w, kh, kw, stride, padding)
    # sample s scatters into its own row of C*H*W bins plus a trailing bin
    # for the padding taps, which is dropped
    row = c * h * w + 1
    bins = np.add.outer(np.arange(0, b * row, row), idx).ravel()
    taps = gcols.reshape(b, ho, wo, c, kh, kw).transpose(0, 4, 5, 1, 2, 3)
    acc = np.bincount(bins, taps.ravel(), minlength=b * row)
    return acc.reshape(b, row)[:, :-1].reshape(shape)


def _conv_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                  stride: int, padding: int):
    """Returns the [B,Cout,Ho,Wo] output and the im2col matrix."""
    b, cin = x.shape[:2]
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ValueError(
            f"conv2d: input has {cin} channels, weight expects {cin_w}"
        )
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


def _pool_forward(x: np.ndarray) -> np.ndarray:
    """2x2 max with stride 2 into a C-contiguous [B,C,H/2,W/2] array.

    The taps are folded over the NHWC view of x, the memory order conv
    outputs have, so each np.maximum streams whole rows; the values do not
    depend on the view. np.maximum returns its second operand on ties, so
    the taps are folded in reverse to keep the first maximum (the one
    argmax would pick; this only shows on signed zeros). The output is made
    C-contiguous on purpose: hooks reduce it over (H, W), and a different
    memory layout changes the summation order and thus the low bits of
    those statistics.
    """
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2: spatial dims must be even, got {h}x{w}")
    nhwc = x.transpose(0, 2, 3, 1)
    x11, x10, x01, x00 = (nhwc[:, i::2, j::2] for i, j in reversed(_POOL_TAPS))
    out = np.maximum(x11, x10)
    np.maximum(out, x01, out=out)
    np.maximum(out, x00, out=out)
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


# ---- autodiff ops -----------------------------------------------------------


def conv2d(x: Tensor | np.ndarray, weight: Tensor, bias: Tensor,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution. x: [B,Cin,H,W]; weight: [Cout,Cin,kh,kw]; bias: [Cout].

    A raw ndarray x is a constant: it gets no gradient, so the backward
    pass skips the col2im."""
    xt = x if isinstance(x, Tensor) else None
    xd = x.data if xt is not None else np.asarray(x, dtype=np.float64)
    cout, _, kh, kw = weight.shape
    out_data, cols = _conv_forward(xd, weight.data, bias.data, stride, padding)
    out = Tensor(out_data, (weight, bias) if xt is None else (xt, weight, bias))

    def back(g):
        # C order whatever g's layout: the reshape is an F-ordered view for an
        # NCHW-contiguous g at B=1, and the order sets the low bits of the sums
        gm = np.ascontiguousarray(g.transpose(0, 2, 3, 1).reshape(-1, cout))
        weight._accumulate((gm.T @ cols).reshape(weight.shape))
        bias._accumulate(gm.sum(axis=0))
        if xt is not None:
            gcols = gm @ weight.data.reshape(cout, -1)
            xt._accumulate(_col2im(gcols, xd.shape, kh, kw, stride, padding))

    out._backward = back
    return out


def maxpool2x2(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2. Requires even spatial dims."""
    pooled = _pool_forward(x.data)
    out = Tensor(pooled, (x,))

    def back(g):
        # route each window's gradient to its first maximum, as argmax would;
        # the closure holds the array, not out, so it makes no reference cycle
        gx = np.zeros(x.shape)
        free = np.ones(pooled.shape, dtype=bool)
        for i, j in _POOL_TAPS[:-1]:
            hit = free & (x.data[:, :, i::2, j::2] == pooled)
            np.copyto(gx[:, :, i::2, j::2], g, where=hit)
            free &= ~hit
        i, j = _POOL_TAPS[-1]
        np.copyto(gx[:, :, i::2, j::2], g, where=free)
        x._accumulate(gx)

    out._backward = back
    return out


def relu_maxpool2x2(z: Tensor) -> Tensor:
    """``maxpool2x2(z.relu())`` as one node, values and gradients bit for bit.

    The forward pools first and applies relu to the quarter-size result:
    np.maximum returns its second operand on ties, so a window whose max is
    <= 0 (signed zeros included) gives +0.0 in either order, and a positive
    max is the same value either way.

    relu zeroes every window whose max is <= 0, so only windows with a
    positive max pass gradient, to their first maximum; those windows are
    where the graph's relu mask is one. The backward compares z, viewed in
    the conv output's NHWC memory as [B,H/2,2,W/2,2,C], with the pooled
    max once. Ties are rare among positive values: only when the hits
    outnumber the positive windows are the taps masked in argmax order.
    The gradient is written straight into NHWC memory, where the conv
    backward reads it.
    """
    pooled = _pool_forward(z.data)
    np.maximum(pooled, 0.0, out=pooled)
    out = Tensor(pooled, (z,))

    def back(g):
        b, c, h, w = z.shape
        win = (b, h // 2, 1, w // 2, 1, c)
        top = pooled.transpose(0, 2, 3, 1).reshape(win)
        live = top > 0
        # NaN equals nothing, so windows without a positive max get no hit
        top = np.where(live, top, np.nan)
        hit = z.data.transpose(0, 2, 3, 1).reshape(b, h // 2, 2, w // 2, 2, c) == top
        if np.count_nonzero(hit) != np.count_nonzero(live):
            # a positive max held by two taps: keep the first, as argmax does
            free = np.ones((b, h // 2, w // 2, c), dtype=bool)
            for i, j in _POOL_TAPS:
                tap = hit[:, :, i, :, j, :]
                tap &= free
                free &= ~tap
        gw = np.add(g.transpose(0, 2, 3, 1), 0.0, order="C").reshape(win)
        gz = np.where(hit, gw, 0.0).reshape(b, h, w, c).transpose(0, 3, 1, 2)
        z._accumulate(gz)

    out._backward = back
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per sample per channel: [B,C,H,W] -> [B,C]."""
    return x.mean(axis=(2, 3))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x: [B,D]; weight: [D,K]; bias: [K]."""
    if x.shape[1] != weight.shape[0]:
        raise ValueError(
            f"linear: input dim {x.shape[1]} != weight rows {weight.shape[0]}"
        )
    return x @ weight + bias


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross entropy over the batch. labels: int array [B]."""
    z = logits.data
    b = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    loss = (lse - z[np.arange(b), labels]).mean()
    out = Tensor(loss, (logits,))

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        logits._accumulate(g * p / b)

    out._backward = back
    return out


def channel_mean_std(x: Tensor | np.ndarray, eps_var: float = 1e-6):
    """Per-sample per-channel spatial statistics, the one implementation of
    them.

    Returns (mu, sigma), both shaped [B,C,1,1]: differentiable Tensors for
    a Tensor x, arrays for an ndarray x (``stats.channel_stats`` and the
    fused augmentation node), from the same numpy arithmetic. sigma is the
    square root of the population spatial variance plus eps_var, which
    keeps the node differentiable on constant channels.
    """
    if isinstance(x, Tensor):
        mu = x.mean(axis=(2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(2, 3), keepdims=True)
        return mu, (var + eps_var).sqrt()
    x = np.asarray(x, dtype=np.float64)
    inv_n = 1.0 / float(x.shape[2] * x.shape[3])
    mu = x.sum(axis=(2, 3), keepdims=True) * inv_n
    var = ((x - mu) ** 2).sum(axis=(2, 3), keepdims=True) * inv_n
    return mu, np.sqrt(var + eps_var)


# ---- the conv net -----------------------------------------------------------


@dataclass(frozen=True)
class StageSpec:
    in_ch: int
    out_ch: int
    ksize: int = 3
    stride: int = 1
    padding: int = 1
    relu: bool = True
    pool: bool = True


@dataclass(frozen=True)
class NetSpec:
    """Architecture of the desk-scale classifier."""

    stages: tuple[StageSpec, ...]
    image_size: int
    classes: int

    @property
    def feature_dims(self) -> tuple[int, int]:
        size = self.image_size
        for s in self.stages:
            size = (size + 2 * s.padding - s.ksize) // s.stride + 1
            if s.pool:
                size //= 2
        return self.stages[-1].out_ch, size

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


@dataclass
class Tape:
    """Forward record: the activation at each hook site."""

    stage_outputs: list[Tensor] = field(default_factory=list)


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


def infer_logits(spec: NetSpec, params: dict[str, np.ndarray],
                 x: np.ndarray) -> np.ndarray:
    """Hook-free forward pass on raw arrays: the logits ``ConvNet.forward``
    computes, bit for bit, with no Tensors or backward closures."""
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 4:
        raise ValueError(f"expected input [B,C,H,W], got shape {out.shape}")
    for i, s in enumerate(spec.stages):
        out, _ = _conv_forward(out, params[f"conv{i}.weight"],
                               params[f"conv{i}.bias"], s.stride, s.padding)
        if s.pool:
            out = _pool_forward(out)
        if s.relu:
            out = np.maximum(out, 0.0, out=out)
    flat = out.reshape(out.shape[0], -1)
    return flat @ params["head.weight"] + params["head.bias"]


class ConvNet:
    """Conv stages with per-stage hooks, then a linear head."""

    def __init__(self, spec: NetSpec, params: dict[str, Tensor]):
        self.spec = spec
        self.params = params

    def forward(self, x: Tensor, hooks=None) -> tuple[Tensor, Tape]:
        """Run the network. hooks is a list of callables (one per stage,
        entries may be None); each takes and returns the stage activation."""
        if x.data.ndim != 4:
            raise ValueError(f"expected input [B,C,H,W], got shape {x.shape}")
        if hooks is not None and len(hooks) > len(self.spec.stages):
            raise ValueError(
                f"{len(hooks)} hooks for {len(self.spec.stages)} stages"
            )
        tape = Tape()
        # the input is a constant: the first conv computes no gradient for it
        out = x.data
        for i, s in enumerate(self.spec.stages):
            out = conv2d(
                out,
                self.params[f"conv{i}.weight"],
                self.params[f"conv{i}.bias"],
                stride=s.stride,
                padding=s.padding,
            )
            if s.relu and s.pool:
                out = relu_maxpool2x2(out)
            elif s.relu:
                out = out.relu()
            elif s.pool:
                out = maxpool2x2(out)
            tape.stage_outputs.append(out)
            if hooks is not None and i < len(hooks) and hooks[i] is not None:
                out = hooks[i](out)
        b = out.shape[0]
        flat = out.reshape(b, -1)
        logits = linear(flat, self.params["head.weight"], self.params["head.bias"])
        return logits, tape

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted class per sample, without building an autodiff graph."""
        params = {k: p.data for k, p in self.params.items()}
        return infer_logits(self.spec, params, x).argmax(axis=1)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
