"""Stochastic feature-statistic augmentation.

A gated layer that resamples the per-sample channel statistics of a
feature map and renormalizes the map onto the new statistics. The gate is
drawn first; only a fired gate computes the statistics, once, and they
feed the variance budget, the transform and the caller's momentum update.
Budgets come from the batch itself ("client" variant), a fixed width
("random"), or the batch variances rescaled by cross-client modulation
coefficients ("full").

The renormalization is a kernel pair, ``ffa_forward`` and
``ffa_backward``. The backward is the closed form of the graph the formula
would build, as in instance norm: the same numpy operations in the same
order, so its gradients are bit for bit those of the graph. ``augment``
on an array, the training chain's hook, returns the output and the
backward; on a Tensor, as ``theory``, the gradient checks and the tests
use it, it returns one ``ffa_transform`` node.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .layers import channel_mean_std
from .stats import EPS_VAR, BatchStatVariance, ChannelStats
from .tensor import Tensor, kernel_node

VARIANTS = ("full", "client", "random")


@dataclass(frozen=True)
class ModulationCoefficients:
    """Per-channel rescaling weights, each vector summing to C."""

    gamma_mu: np.ndarray
    gamma_sigma: np.ndarray

    @classmethod
    def zero(cls, channels: int) -> "ModulationCoefficients":
        return cls(np.zeros(channels), np.zeros(channels))


@dataclass(frozen=True)
class FusedVariance:
    """Final per-channel variance budgets for statistic resampling."""

    var_mu_hat: np.ndarray
    var_sigma_hat: np.ndarray


@dataclass(frozen=True)
class FfaConfig:
    p: float = 0.5
    variant: str = "full"
    random_std: float = 0.5
    eps_var: float = EPS_VAR

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")
        if self.random_std < 0:
            raise ValueError("random_std must be nonnegative")


def modulate(shared_var: np.ndarray) -> np.ndarray:
    """Convert cross-client variances to per-channel weights summing to C.

    Weight of channel j is (1 + 1/v_j)^-1 = v_j/(1+v_j), the heavy-tailed
    unit-degree form; a zero-variance channel gets weight 0 (continuous
    limit). All-zero input degenerates to uniform weights.
    """
    v = np.asarray(shared_var, dtype=np.float64)
    if np.any(v < 0):
        raise ValueError("shared variances must be nonnegative")
    w = v / (1.0 + v)
    total = w.sum()
    if total == 0.0:
        return np.ones_like(v)
    return v.size * w / total


def fuse(gamma: np.ndarray, client_var: np.ndarray) -> np.ndarray:
    """Residual rescaling: fused variance = (gamma + 1) * client variance."""
    gamma = np.asarray(gamma, dtype=np.float64)
    client_var = np.asarray(client_var, dtype=np.float64)
    if gamma.shape != client_var.shape:
        raise ValueError(
            f"shape mismatch: gamma {gamma.shape} vs variance {client_var.shape}"
        )
    return (gamma + 1.0) * client_var


def variant_variances(cfg: FfaConfig, client_var: BatchStatVariance,
                      gamma: ModulationCoefficients | None) -> FusedVariance:
    """Pick the variance budget for ``cfg.variant``.

    client_var carries the batch variances (var_mu, var_sigma). For the
    full variant a missing gamma (nothing aggregated yet) degenerates to
    the client-only budget; the other variants ignore gamma.
    """
    if cfg.variant == "random":
        v = np.full(client_var.var_mu.shape[0], cfg.random_std ** 2)
        return FusedVariance(var_mu_hat=v, var_sigma_hat=v.copy())
    if cfg.variant == "client":
        return FusedVariance(client_var.var_mu, client_var.var_sigma)
    if gamma is None:
        gamma = ModulationCoefficients.zero(client_var.var_mu.shape[0])
    return FusedVariance(
        var_mu_hat=fuse(gamma.gamma_mu, client_var.var_mu),
        var_sigma_hat=fuse(gamma.gamma_sigma, client_var.var_sigma),
    )


def _shifts(fused: FusedVariance, eps_mu, eps_sigma):
    """eps * sqrt(var_hat) for the mean and the std: the shifts of the
    statistics, as eps's [B,C] plus two unit axes."""
    def shift(eps, var):
        e = np.asarray(eps, dtype=np.float64)
        return e.reshape(e.shape + (1, 1)) * np.sqrt(var)[None, :, None, None]
    return shift(eps_mu, fused.var_mu_hat), shift(eps_sigma, fused.var_sigma_hat)


def ffa_forward(x: np.ndarray, fused, eps_mu: np.ndarray,
                eps_sigma: np.ndarray, eps_var: float = EPS_VAR):
    """Forward kernel of the augmentation's deterministic core.

    Renormalizes x from its statistics (mu, sigma) onto the shifted ones:
    (sigma + d_sigma) * (x - mu) / sigma + (mu + d_mu). fused is the
    variance budget, or a function that builds it from the map's
    ``ChannelStats``. eps_mu/eps_sigma broadcast against [B,C]. Returns the
    output, in x's memory layout, and the context of ``ffa_backward``.
    """
    mu, sigma = channel_mean_std(x, eps_var=eps_var)
    if callable(fused):
        fused = fused(ChannelStats.of(mu, sigma))
    d_mu, d_sigma = _shifts(fused, eps_mu, eps_sigma)
    mu_hat = mu + d_mu
    sigma_hat = sigma + d_sigma
    xc = x - mu
    q = xc / sigma
    out = sigma_hat * q + mu_hat
    return out, (out, mu, sigma, sigma_hat, xc, q)


def ffa_backward(g: np.ndarray, ctx) -> np.ndarray:
    """The gradient of x, in x's memory layout, through the feature map and
    its statistics but not through the variance budgets.

    The closures of the graph out = p + mu_hat, p = sigma_hat * q,
    q = xc / sigma, xc = x - mu, sigma = sqrt(var + eps_var),
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
    out, mu, sigma, sigma_hat, xc, q = ctx
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
                  eps_sigma: np.ndarray, eps_var: float = EPS_VAR) -> Tensor:
    """The kernel pair ``ffa_forward``/``ffa_backward`` as one Tensor node."""
    out, ctx = ffa_forward(x.data, fused, eps_mu, eps_sigma, eps_var)
    return kernel_node(out, (x,), lambda g: (ffa_backward(g, ctx),))


def draw_eps(rng: np.random.Generator, batch: int,
             channels: int) -> tuple[np.ndarray, np.ndarray]:
    """One unit-normal draw per (sample, channel) for the mean and the std."""
    return (rng.standard_normal((batch, channels)),
            rng.standard_normal((batch, channels)))


def augment(x, fused, cfg: FfaConfig, rng: np.random.Generator,
            training: bool = True, eps=None):
    """Apply the gated statistic perturbation to a feature map.

    fused is the variance budget, or a function that builds it from the
    map's ``ChannelStats``. The gate is drawn first: only a fired gate
    computes the statistics, once, and calls that function with them.
    Passing eps forces the gate open with those draws; the rng is not
    consumed.

    For a Tensor x, returns (x_hat, used_eps): x_hat is one
    ``ffa_transform`` node and used_eps the (eps_mu, eps_sigma) drawn. For
    an array x, the training chain's hook, returns (x_hat, back): back maps
    the gradient of x_hat to that of x. used_eps and back are None when
    the gate stayed closed (eval mode, p == 0, or an unlucky draw), and
    x_hat is then x itself.
    """
    if eps is None:
        if not training or cfg.p == 0.0 or rng.random() >= cfg.p:
            return x, None
        eps = draw_eps(rng, x.shape[0], x.shape[1])
    eps_mu, eps_sigma = eps
    if isinstance(x, Tensor):
        return (ffa_transform(x, fused, eps_mu, eps_sigma, eps_var=cfg.eps_var),
                (eps_mu, eps_sigma))
    out, ctx = ffa_forward(x, fused, eps_mu, eps_sigma, eps_var=cfg.eps_var)
    return out, functools.partial(ffa_backward, ctx=ctx)


def noise_view(x: np.ndarray, fused: FusedVariance, used_eps,
               eps_var: float = EPS_VAR) -> np.ndarray:
    """Additive-noise form of the same perturbation.

    e = eps_sigma * S_sigma * (x - mu)/sigma + eps_mu * S_mu, so that
    x + e reproduces the augmented map exactly (up to rounding).
    """
    mu, sigma = channel_mean_std(x, eps_var=eps_var)
    d_mu, d_sigma = _shifts(fused, *used_eps)
    return d_sigma * (x - mu) / sigma + d_mu
