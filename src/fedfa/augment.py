"""Stochastic feature-statistic augmentation.

A gated layer that resamples the per-sample channel statistics of a
feature map and renormalizes the map onto the new statistics. The gate is
drawn first; only a fired gate computes the statistics, once, and they
feed the variance budget, the transform and the caller's momentum update.
Budgets come from the batch itself ("client" variant), a fixed width
("random"), or the batch variances rescaled by cross-client modulation
coefficients ("full").

The renormalization is one autodiff node (``ffa_transform``). Its
backward is the closed form of the graph the formula would build, as in
instance norm: the same numpy operations in the same order, so runs are
bit for bit those of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import channel_mean_std
from .stats import EPS_VAR, BatchStatVariance, ChannelStats
from .tensor import Tensor, _unbroadcast

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


def _first(g: np.ndarray, like: np.ndarray) -> np.ndarray:
    """A node's first gradient as ``Tensor._accumulate`` stores it: g + 0.0
    in like's memory layout."""
    return np.add(g, 0.0, out=np.empty_like(like))


def ffa_transform(x: Tensor, fused, eps_mu: np.ndarray,
                  eps_sigma: np.ndarray, eps_var: float = EPS_VAR) -> Tensor:
    """Deterministic core of the augmentation, Tensor in, one Tensor node out.

    Renormalizes x from its statistics (mu, sigma) onto the shifted ones:
    (sigma + d_sigma) * (x - mu) / sigma + (mu + d_mu). fused is the
    variance budget, or a function that builds it from the map's
    ``ChannelStats``. eps_mu/eps_sigma broadcast against [B,C]; gradients
    flow through the feature map and its statistics, not through the
    variance budgets.
    """
    xd = x.data
    mu, sigma = channel_mean_std(xd, eps_var=eps_var)
    if callable(fused):
        fused = fused(ChannelStats.of(mu, sigma))
    d_mu, d_sigma = _shifts(fused, eps_mu, eps_sigma)
    mu_hat = mu + d_mu
    sigma_hat = sigma + d_sigma
    xc = xd - mu
    q = xc / sigma
    out_data = sigma_hat * q + mu_hat
    out = Tensor(out_data, (x,))
    inv_n = 1.0 / float(x.shape[2] * x.shape[3])

    def back(g):
        # The closures of the graph out = p + mu_hat, p = sigma_hat * q,
        # q = xc / sigma, xc = x - mu, sigma = sqrt(var + eps_var),
        # var = mean((x - mu)**2), mu = mean(x), in its topological order.
        # The graph's two x - mu nodes hold equal arrays; xc stands for both.
        # A node's first gradient adds +0.0 (a second +0.0 would change no
        # bit), and x takes its three terms in the graph's order.
        g_p = _first(g, out_data)
        g_mu_hat = _first(_unbroadcast(g, mu_hat.shape), mu_hat)
        g_sigma = _first(_unbroadcast(g_p * q, sigma_hat.shape), sigma)
        g_q = _first(g_p * sigma_hat, q)
        g_xc = _first(g_q / sigma, xc)
        g_sigma += _unbroadcast(-g_q * xc / sigma**2, sigma.shape)
        x._accumulate(g_xc)
        g_mu = _first(_unbroadcast(-g_xc, mu.shape), mu)
        g_var = _first(g_sigma * 0.5 / sigma, sigma)
        g_sq = _first(np.broadcast_to(_first(g_var * inv_n, sigma), xc.shape), xc)
        g_d = _first(g_sq * 2 * xc, xc)
        x._accumulate(g_d)
        g_mu += _unbroadcast(-g_d, mu.shape)
        g_mu += g_mu_hat
        x._accumulate(np.broadcast_to(_first(g_mu * inv_n, mu), x.shape))

    out._backward = back
    return out


def draw_eps(rng: np.random.Generator, batch: int,
             channels: int) -> tuple[np.ndarray, np.ndarray]:
    """One unit-normal draw per (sample, channel) for the mean and the std."""
    return (rng.standard_normal((batch, channels)),
            rng.standard_normal((batch, channels)))


def augment(x: Tensor, fused, cfg: FfaConfig, rng: np.random.Generator,
            training: bool = True, eps=None):
    """Apply the gated statistic perturbation to a feature map.

    fused is the variance budget, or a function that builds it from the
    map's ``ChannelStats``. The gate is drawn first: only a fired gate
    computes the statistics, once, and calls that function with them;
    x_hat is then one ``ffa_transform`` node.

    Returns (x_hat, used_eps). used_eps is None when the gate stayed
    closed (eval mode, p == 0, or an unlucky draw). Passing eps forces
    the gate open with those draws; the rng is not consumed.
    """
    if eps is None:
        if not training or cfg.p == 0.0 or rng.random() >= cfg.p:
            return x, None
        eps = draw_eps(rng, x.shape[0], x.shape[1])
    eps_mu, eps_sigma = eps
    x_hat = ffa_transform(x, fused, eps_mu, eps_sigma, eps_var=cfg.eps_var)
    return x_hat, (eps_mu, eps_sigma)


def noise_view(x: np.ndarray, fused: FusedVariance, used_eps,
               eps_var: float = EPS_VAR) -> np.ndarray:
    """Additive-noise form of the same perturbation.

    e = eps_sigma * S_sigma * (x - mu)/sigma + eps_mu * S_mu, so that
    x + e reproduces the augmented map exactly (up to rounding).
    """
    mu, sigma = channel_mean_std(x, eps_var=eps_var)
    d_mu, d_sigma = _shifts(fused, *used_eps)
    return d_sigma * (x - mu) / sigma + d_mu
