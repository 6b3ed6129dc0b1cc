"""Straightforward reference versions of the training and inference kernels.

``conv_forward`` adds the bias by broadcasting [M, Cout] + [Cout].
``pool_forward`` folds four strided taps of the NCHW view. ``conv2d``
treats every input as a Tensor, so the first conv of a net computes an
input gradient nobody reads, and it scatters patch gradients back with one
strided ``+=`` per kernel tap. ``relu_maxpool2x2`` is the full-size relu
node followed by the ``maxpool2x2`` node. ``ffa_transform`` builds the
augmentation as the 19-node graph its formula spells out, statistics
included. ``linear`` is a matmul node and a bias add node, and
``softmax_cross_entropy`` writes its backward inline. ``accumulate``
zero-fills a new gradient buffer, then adds. ``batch_grads`` is the
training step as a graph: ``ConvNet.forward``, the loss nodes and
``Tensor.backward``. ``evaluate`` scores a test set in one unblocked
``net_forward`` call per 512 samples, so it runs the two forward kernels
in plain row order, not ``infer_logits``'s channel-major loop. ``install``
swaps all of them into the library, the two forward kernels, the training
step and ``evaluate`` included, so training runs on the graph and
evaluation on the reference forward kernels without blocks;
runs with and without them must agree bit for bit.

``class_templates`` draws each class's template parameters channel by
channel with ``rng.uniform``, one small map at a time; ``install`` leaves
``data`` alone.
"""

import importlib

import numpy as np

from fedfa import experiment, layers
from fedfa.tensor import Tensor

# the module: the package name fedfa.augment is the function
augment = importlib.import_module("fedfa.augment")


def class_templates(spec, rng):
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    templates = np.zeros((spec.classes, spec.channels, size, size))
    for k in range(spec.classes):
        for c in range(spec.channels):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            width = rng.uniform(0.12, 0.3)
            amp = rng.uniform(0.8, 1.6)
            bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
            fy, fx = rng.uniform(0.5, 2.5, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            grating = 0.6 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
            templates[k, c] = bump + grating
    return templates


def conv_forward(x, weight, bias, stride, padding):
    b = x.shape[0]
    cout, _, kh, kw = weight.shape
    cols, (ho, wo) = layers._im2col(x, kh, kw, stride, padding)
    out_flat = cols @ weight.reshape(cout, -1).T + bias
    return out_flat.reshape(b, ho, wo, cout).transpose(0, 3, 1, 2), cols


def pool_forward(x):
    # np.maximum keeps its second operand on ties: folding the taps in
    # reverse keeps the first maximum
    b, c, h, w = x.shape
    x11, x10, x01, x00 = (x[:, :, i::2, j::2]
                          for i, j in ((1, 1), (1, 0), (0, 1), (0, 0)))
    out = np.maximum(x11, x10, out=np.empty((b, c, h // 2, w // 2)))
    np.maximum(out, x01, out=out)
    return np.maximum(out, x00, out=out)


def col2im_slices(gcols, shape, kh, kw, stride, padding):
    """[B*Ho*Wo, C*kh*kw] patch gradients -> [B,C,H,W], tap by tap."""
    b, c, h, w = shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    g6 = gcols.reshape(b, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    gxp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride,
                j:j + stride * wo:stride] += g6[:, :, i, j]
    return gxp[:, :, padding:padding + h, padding:padding + w]


def conv2d(x, weight, bias, stride=1, padding=0):
    x = x if isinstance(x, Tensor) else Tensor(x)
    cout, _, kh, kw = weight.shape
    out_data, cols = conv_forward(x.data, weight.data, bias.data, stride,
                                  padding)
    out = Tensor(out_data, (x, weight, bias))

    def back(g):
        gm = g.transpose(0, 2, 3, 1).reshape(-1, cout)
        weight._accumulate((gm.T @ cols).reshape(weight.shape))
        bias._accumulate(gm.sum(axis=0))
        gcols = gm @ weight.data.reshape(cout, -1)
        x._accumulate(col2im_slices(gcols, x.shape, kh, kw, stride, padding))

    out._backward = back
    return out


def relu_maxpool2x2(z):
    return layers.maxpool2x2(z.relu())


def ffa_transform(x, fused, eps_mu, eps_sigma):
    mu, sigma = layers.channel_mean_std(x)
    if callable(fused):
        fused = fused(np.stack((mu.data, sigma.data))[..., 0, 0])
    d_mu, d_sigma = augment._shifts(fused, (eps_mu, eps_sigma))[..., None, None]
    mu_hat = mu + d_mu
    sigma_hat = sigma + d_sigma
    return sigma_hat * ((x - mu) / sigma) + mu_hat


def linear(x, weight, bias):
    return x @ weight + bias


def softmax_cross_entropy(logits, labels):
    z = logits.data
    b = z.shape[0]
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    out = Tensor((lse - z[np.arange(b), labels]).mean(), (logits,))

    def back(g):
        p = np.exp(z - m)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(b), labels] -= 1.0
        logits._accumulate(g * p / b)

    out._backward = back
    return out


def batch_grads(net_spec, params, x, targets, hooks=None):
    tparams = {k: Tensor(v) for k, v in params.items()}
    # a chain hook returns (out, back); a graph hook returns out
    graph_hooks = hooks and [h and (lambda t, h=h: h(t)[0]) for h in hooks]
    logits, _ = layers.ConvNet(net_spec, tparams).forward(Tensor(x),
                                                          hooks=graph_hooks)
    terms = [layers.softmax_cross_entropy(logits, labels) for labels, _ in targets]
    if len(targets) == 1 and targets[0][1] == 1.0:
        loss = terms[0]  # a plain batch
    else:
        # mixup: the lam-weighted sum of the losses against both label vectors
        loss = terms[0] * targets[0][1]
        for term, (_, weight) in zip(terms[1:], targets[1:]):
            loss = loss + term * weight
    loss.backward()
    return float(loss.data), {k: t.grad for k, t in tparams.items()}


def evaluate(params, net_spec, x, y, chunk=512):
    hits = 0
    for start in range(0, x.shape[0], chunk):
        pred = layers.net_forward(net_spec, params,
                                  x[start:start + chunk]).argmax(axis=1)
        hits += int((pred == y[start:start + chunk]).sum())
    return hits / x.shape[0]


def accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def install(monkeypatch):
    monkeypatch.setattr(layers, "_conv_forward", conv_forward)
    monkeypatch.setattr(layers, "_pool_forward", pool_forward)
    monkeypatch.setattr(layers, "conv2d", conv2d)
    monkeypatch.setattr(layers, "relu_maxpool2x2", relu_maxpool2x2)
    monkeypatch.setattr(layers, "linear", linear)
    monkeypatch.setattr(layers, "softmax_cross_entropy", softmax_cross_entropy)
    monkeypatch.setattr(augment, "ffa_transform", ffa_transform)
    monkeypatch.setattr(Tensor, "_accumulate", accumulate)
    monkeypatch.setattr(experiment, "batch_grads", batch_grads)
    monkeypatch.setattr(experiment, "evaluate", evaluate)
