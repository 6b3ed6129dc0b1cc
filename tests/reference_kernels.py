"""Straightforward reference versions of the training kernels.

``conv2d`` treats every input as a Tensor, so the first conv of a net
computes an input gradient nobody reads, and it scatters patch gradients
back with one strided ``+=`` per kernel tap. ``relu_maxpool2x2`` is the
relu node followed by the ``maxpool2x2`` node. ``ffa_transform`` builds
the augmentation as the 19-node graph its formula spells out, statistics
included. ``accumulate`` zero-fills a new gradient buffer, then adds.
``install`` swaps all four into the library; runs with and without them
must agree bit for bit.
"""

import importlib

import numpy as np

from fedfa import layers
from fedfa.stats import EPS_VAR, ChannelStats
from fedfa.tensor import Tensor

# the module: the package name fedfa.augment is the function
augment = importlib.import_module("fedfa.augment")


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
    out_data, cols = layers._conv_forward(x.data, weight.data, bias.data,
                                          stride, padding)
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


def ffa_transform(x, fused, eps_mu, eps_sigma, eps_var=EPS_VAR):
    mu, sigma = layers.channel_mean_std(x, eps_var=eps_var)
    if callable(fused):
        fused = fused(ChannelStats.of(mu.data, sigma.data))
    d_mu, d_sigma = augment._shifts(fused, eps_mu, eps_sigma)
    mu_hat = mu + d_mu
    sigma_hat = sigma + d_sigma
    return sigma_hat * ((x - mu) / sigma) + mu_hat


def accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def install(monkeypatch):
    monkeypatch.setattr(layers, "conv2d", conv2d)
    monkeypatch.setattr(layers, "relu_maxpool2x2", relu_maxpool2x2)
    monkeypatch.setattr(augment, "ffa_transform", ffa_transform)
    monkeypatch.setattr(Tensor, "_accumulate", accumulate)
