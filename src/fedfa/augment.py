"""Stochastic feature-statistic augmentation.

A gated layer that resamples the per-sample channel statistics of a
feature map and renormalizes the map onto the new statistics. The gate is
drawn first; only a fired gate computes the statistics, once, through
``stats.channel_stats``, and they feed the variance budget, the transform
and the caller's momentum update. Budgets come from the batch itself
("client" variant), a fixed width ("random"), or the batch variances
rescaled by cross-client modulation coefficients ("full").

The mean and the std travel as one stacked pair, as in ``stats``: the
statistics are [2,B,C], the unit-normal draws [2,B,C], and the budgets
and modulation coefficients [2,C], each with (mean, std) on the leading
axis. Each formula is written once on the stacked array.

The renormalization is a kernel pair, ``ffa_forward`` and
``ffa_backward``. The backward is the closed form of the graph the formula
would build, as in instance norm: the same numpy operations in the same
order, so its gradients are bit for bit those of the graph. ``augment``
on an array, the training chain's hook, returns the output and the
backward; on a Tensor, as the gradient checks and the tests use it, it
returns one ``ffa_transform`` node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .stats import channel_stats
from .tensor import Tensor, kernel_node

VARIANTS = ("full", "client", "random")


@dataclass(frozen=True)
class FfaConfig:
    p: float = 0.5
    variant: str = "full"
    random_std: float = 0.5

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.random_std < 0:
            raise ValueError("random_std must be nonnegative")


def modulate(shared_var: np.ndarray) -> np.ndarray:
    """Convert cross-client variances to per-channel weights summing to C,
    along the last axis ([C], or the [2,C] pair).

    Weight of channel j is (1 + 1/v_j)^-1 = v_j/(1+v_j), the heavy-tailed
    unit-degree form; a zero-variance channel gets weight 0 (continuous
    limit). An all-zero vector degenerates to uniform weights.
    """
    v = np.asarray(shared_var, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("shared variances must be nonnegative")
    w = v / (1.0 + v)
    total = w.sum(axis=-1, keepdims=True)
    out = np.ones_like(w)
    np.divide(v.shape[-1] * w, total, out=out, where=total != 0.0)
    return out


def fuse(gamma: np.ndarray, client_var: np.ndarray) -> np.ndarray:
    """Residual rescaling: fused variance = (gamma + 1) * client variance."""
    gamma = np.asarray(gamma, dtype=np.float64)
    client_var = np.asarray(client_var, dtype=np.float64)
    if gamma.shape != client_var.shape:
        raise ValueError(
            f"shape mismatch: gamma {gamma.shape} vs variance {client_var.shape}"
        )
    return (gamma + 1.0) * client_var


def variant_variances(cfg: FfaConfig, client_var: np.ndarray,
                      gamma: np.ndarray | None) -> np.ndarray:
    """Pick the [2,C] variance budget for ``cfg.variant``.

    client_var is the batch variances [2,C] and gamma the site's [2,C]
    modulation coefficients. For the full variant a missing gamma (nothing
    aggregated yet) degenerates to the client-only budget, which fusing
    with a zero gamma gives bit for bit; the other variants ignore gamma.
    """
    if cfg.variant == "random":
        return np.full(client_var.shape, cfg.random_std ** 2)
    if cfg.variant == "client" or gamma is None:
        return client_var
    return fuse(gamma, client_var)


def _shifts(fused: np.ndarray, eps) -> np.ndarray:
    """eps * sqrt(var_hat): the shifts [2,B,C] of the statistics, from the
    draws eps [2,B,C] (or broadcastable, e.g. a pair of [B,C] arrays) and
    the [2,C] budget."""
    return np.asarray(eps, dtype=np.float64) * np.sqrt(fused)[:, None, :]


def ffa_forward(x: np.ndarray, fused, eps):
    """Forward kernel of the augmentation's deterministic core.

    Renormalizes x from its statistics (mu, sigma) onto the shifted ones:
    (sigma + d_sigma) * (x - mu) / sigma + (mu + d_mu). fused is the [2,C]
    variance budget, or a function that builds it from the map's [2,B,C]
    statistics. eps is the [2,B,C] draw (see ``_shifts``). Returns the
    output, in x's memory layout, and the context of ``ffa_backward``.
    """
    stats = channel_stats(x)
    if callable(fused):
        fused = fused(stats)
    mu, sigma = stats[..., None, None]
    mu_hat, sigma_hat = (stats + _shifts(fused, eps))[..., None, None]
    xc = x - mu
    q = xc / sigma
    out = sigma_hat * q + mu_hat
    return out, (out, sigma, sigma_hat, xc, q)


def ffa_backward(g: np.ndarray, ctx) -> np.ndarray:
    """The gradient of x, in x's memory layout, through the feature map and
    its statistics but not through the variance budgets.

    The closures of the graph out = p + mu_hat, p = sigma_hat * q,
    q = xc / sigma, xc = x - mu, sigma = sqrt(var + layers.EPS_VAR),
    var = mean((x - mu)**2), mu = mean(x), in its topological order, with
    the same numpy operations. The graph's two x - mu nodes hold equal
    arrays; xc stands for both, and x takes its three terms in the graph's
    order. The graph copies each node's first gradient into the layout of
    the node's data, adding +0.0; here only p's copy stays, because g's
    layout may differ from out's and the sums over g_p * q follow it. The
    other copies keep their operands' layout, and their + 0.0 would only
    clear the sign of zeros, which no sum or later product turns into a
    different value. The sum over g itself runs in g's layout, as the
    graph's sum over the gradient of out does.
    """
    out, sigma, sigma_hat, xc, q = ctx
    inv_n = 1.0 / float(xc.shape[2] * xc.shape[3])

    def per_map(a):  # the graph's unbroadcast from [B,C,H,W] to [B,C,1,1]
        return a.sum(axis=(2, 3), keepdims=True)

    g_p = g
    if g.strides != out.strides:
        g_p = np.add(g, 0.0, out=np.empty_like(out))
    g_mu_hat = per_map(g)
    g_sigma = per_map(g_p * q)
    g_q = g_p * sigma_hat
    gx = g_q / sigma
    g_sigma += per_map(-g_q * xc / sigma**2)
    g_mu = per_map(-gx)
    g_d = g_sigma * 0.5 / sigma * inv_n * 2 * xc
    g_mu += per_map(-g_d)
    g_mu += g_mu_hat
    gx += g_d
    gx += g_mu * inv_n
    return gx


def ffa_transform(x: Tensor, fused, eps_mu: np.ndarray,
                  eps_sigma: np.ndarray) -> Tensor:
    """The kernel pair ``ffa_forward``/``ffa_backward`` as one Tensor node,
    with the draws of the mean and the std as two arrays."""
    out, ctx = ffa_forward(x.data, fused, (eps_mu, eps_sigma))
    return kernel_node(out, (x,), lambda g: (ffa_backward(g, ctx),))


def draw_eps(rng: np.random.Generator, batch: int, channels: int) -> np.ndarray:
    """One unit-normal draw per (sample, channel) for the mean and the std,
    [2,B,C]: the numbers of a [B,C] draw for the mean, then one for the std."""
    return rng.standard_normal((2, batch, channels))


def augment(x, fused, cfg: FfaConfig, rng: np.random.Generator, eps=None):
    """Apply the gated statistic perturbation to a feature map.

    fused is the [2,C] variance budget, or a function that builds it from
    the map's [2,B,C] statistics. The gate is drawn first: only a fired
    gate computes the statistics, once, and calls that function with them.
    Passing eps forces the gate open with those draws; the rng is not
    consumed.

    For a Tensor x, returns (x_hat, used_eps): x_hat is one
    ``ffa_transform`` node and used_eps the [2,B,C] draw (or the eps
    passed). For an array x, the training chain's hook, returns (x_hat,
    back): back maps the gradient of x_hat to that of x. used_eps and back
    are None when the gate stayed closed (p == 0 or an unlucky draw), and
    x_hat is then x itself.
    """
    if eps is None:
        if cfg.p == 0.0 or rng.random() >= cfg.p:
            return x, None
        eps = draw_eps(rng, x.shape[0], x.shape[1])
    if isinstance(x, Tensor):
        return ffa_transform(x, fused, *eps), eps
    out, ctx = ffa_forward(x, fused, eps)
    return out, functools.partial(ffa_backward, ctx=ctx)


def noise_view(x: np.ndarray, fused: np.ndarray, used_eps) -> np.ndarray:
    """Additive-noise form of the same perturbation.

    e = eps_sigma * S_sigma * (x - mu)/sigma + eps_mu * S_mu, so that
    x + e reproduces the augmented map exactly (up to rounding).
    """
    mu, sigma = channel_stats(x)[..., None, None]
    d_mu, d_sigma = _shifts(fused, used_eps)[..., None, None]
    return d_sigma * (x - mu) / sigma + d_mu
