"""Channel-wise feature statistics: batch variances and momentum bookkeeping.

All estimators here are population (biased) moments: spatial variance is
averaged over H*W, batch variance over B. The spatial moments have one
implementation, ``layers.channel_mean_std``; ``ChannelStats`` views its
array output as [B,C], and ``channel_stats`` applies it to a numpy map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .layers import channel_mean_std

EPS_VAR = 1e-6


@dataclass(frozen=True)
class ChannelStats:
    """Per-sample per-channel spatial moments, both [B, C]."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def of(cls, mu: np.ndarray, sigma: np.ndarray) -> "ChannelStats":
        """View ``channel_mean_std``'s [B,C,1,1] arrays as [B,C]."""
        return cls(mu=mu[:, :, 0, 0], sigma=sigma[:, :, 0, 0])


def channel_stats(x: np.ndarray, eps_var: float = EPS_VAR) -> ChannelStats:
    """Spatial mean and std of a feature map [B,C,H,W].

    eps_var is added under the square root; pass 0 for exact values.
    """
    if x.ndim != 4:
        raise ValueError(f"expected [B,C,H,W], got shape {x.shape}")
    if x.shape[2] * x.shape[3] == 0:
        raise ValueError("empty spatial extent")
    return ChannelStats.of(*channel_mean_std(x, eps_var=eps_var))


@dataclass(frozen=True)
class BatchStatVariance:
    """Variance of the per-sample statistics across a batch, both [C]."""

    var_mu: np.ndarray
    var_sigma: np.ndarray


def batch_variances(stats: ChannelStats) -> BatchStatVariance:
    return BatchStatVariance(
        var_mu=stats.mu.var(axis=0),
        var_sigma=stats.sigma.var(axis=0),
    )


@dataclass(frozen=True)
class MomentumStats:
    """Running per-channel estimate of a client's feature statistics.

    mu_bar starts at zero and sigma_bar at one; both are re-initialized at
    the start of every round and updated only on forward passes where the
    augmentation gate fires.
    """

    mu_bar: np.ndarray
    sigma_bar: np.ndarray
    alpha: float = 0.99

    @classmethod
    def fresh(cls, channels: int, alpha: float = 0.99) -> "MomentumStats":
        return cls(
            mu_bar=np.zeros(channels),
            sigma_bar=np.ones(channels),
            alpha=alpha,
        )


def momentum_update(ms: MomentumStats, stats: ChannelStats) -> MomentumStats:
    """Pull the running statistics toward the batch means of mu and sigma."""
    a = ms.alpha
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {a}")
    return replace(
        ms,
        mu_bar=a * ms.mu_bar + (1.0 - a) * stats.mu.mean(axis=0),
        sigma_bar=a * ms.sigma_bar + (1.0 - a) * stats.sigma.mean(axis=0),
    )
