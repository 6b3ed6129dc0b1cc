"""Stochastic feature-statistic augmentation.

A gated layer that resamples the per-sample channel statistics of a
feature map and renormalizes the map onto the new statistics. The gate is
drawn first; only a fired gate computes the statistics, once, and they
feed the variance budget, the transform and the caller's momentum update.
Budgets come from the batch itself ("client" variant), a fixed width
("random"), or the batch variances rescaled by cross-client modulation
coefficients ("full").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import channel_mean_std
from .stats import EPS_VAR, BatchStatVariance, ChannelStats
from .tensor import Tensor

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


def _resample(x: Tensor, mu: Tensor, sigma: Tensor, fused: FusedVariance,
              eps_mu, eps_sigma) -> Tensor:
    """Renormalize x from its statistics (mu, sigma) onto shifted ones."""
    d_mu, d_sigma = _shifts(fused, eps_mu, eps_sigma)
    mu_hat = mu + d_mu
    sigma_hat = sigma + d_sigma
    return sigma_hat * ((x - mu) / sigma) + mu_hat


def ffa_transform(x: Tensor, fused: FusedVariance, eps_mu: np.ndarray,
                  eps_sigma: np.ndarray, eps_var: float = EPS_VAR) -> Tensor:
    """Deterministic core of the augmentation, Tensor in, Tensor out.

    eps_mu/eps_sigma broadcast against [B,C]; gradients flow through the
    feature map and its statistics, not through the variance budgets.
    """
    mu, sigma = channel_mean_std(x, eps_var=eps_var)
    return _resample(x, mu, sigma, fused, eps_mu, eps_sigma)


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
    computes the statistics, once, and calls that function with them.

    Returns (x_hat, used_eps). used_eps is None when the gate stayed
    closed (eval mode, p == 0, or an unlucky draw). Passing eps forces
    the gate open with those draws; the rng is not consumed.
    """
    if eps is None:
        if not training or cfg.p == 0.0 or rng.random() >= cfg.p:
            return x, None
        eps = draw_eps(rng, x.shape[0], x.shape[1])
    eps_mu, eps_sigma = eps
    mu, sigma = channel_mean_std(x, eps_var=cfg.eps_var)
    if callable(fused):
        fused = fused(ChannelStats.of(mu, sigma))
    x_hat = _resample(x, mu, sigma, fused, eps_mu, eps_sigma)
    return x_hat, (eps_mu, eps_sigma)


def noise_view(x: np.ndarray, fused: FusedVariance, used_eps,
               eps_var: float = EPS_VAR) -> np.ndarray:
    """Additive-noise form of the same perturbation.

    e = eps_sigma * S_sigma * (x - mu)/sigma + eps_mu * S_mu, so that
    x + e reproduces the augmented map exactly (up to rounding).
    """
    mu, sigma = (t.data for t in channel_mean_std(Tensor(x), eps_var=eps_var))
    d_mu, d_sigma = _shifts(fused, *used_eps)
    return d_sigma * (x - mu) / sigma + d_mu
