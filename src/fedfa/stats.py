"""Channel-wise feature statistics: batch variances and momentum bookkeeping.

A statistic pair is one float64 array whose leading axis is (mean, std):
[2,B,C] per sample, [2,C] per channel. It is stacked statistic-major, so
each statistic's slab has the memory order, and thus the sums, of an
unstacked array; every formula below runs once on the stacked array.

All estimators here are population (biased) moments: spatial variance is
averaged over H*W, batch variance over B. The spatial moments have one
implementation, ``layers.channel_mean_std``, whose std carries
``layers.EPS_VAR`` under the root; ``channel_stats`` views its array output
as [2,B,C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import channel_mean_std


def channel_stats(x: np.ndarray) -> np.ndarray:
    """Spatial mean and std of a feature map [B,C,H,W], as [2,B,C]."""
    if x.ndim != 4:
        raise ValueError(f"expected [B,C,H,W], got shape {x.shape}")
    if x.shape[2] * x.shape[3] == 0:
        raise ValueError("empty spatial extent")
    return channel_mean_std(x)[..., 0, 0]


def _batch_mean(stats: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """stats.mean(axis=1): the same sum and in-place divide, without
    np.mean's Python wrapper."""
    mean = np.add.reduce(stats, axis=1, keepdims=keepdims)
    mean /= stats.shape[1]
    return mean


def batch_variances(stats: np.ndarray) -> np.ndarray:
    """Variance of the per-sample statistics [2,B,C] across the batch, [2,C].

    The ufunc sequence of stats.var(axis=1), bit for bit.
    """
    dev = stats - _batch_mean(stats, keepdims=True)
    np.square(dev, out=dev)
    return _batch_mean(dev)


@dataclass(frozen=True)
class MomentumStats:
    """A client's running per-channel feature statistics, tracked only by
    the full variant, whose server turns them into modulation coefficients.

    pair is [2,C]: mu_bar starts each round at zero and sigma_bar at one;
    both update only on forward passes where the augmentation gate fires.
    """

    pair: np.ndarray

    @property
    def mu_bar(self) -> np.ndarray:
        return self.pair[0]

    @property
    def sigma_bar(self) -> np.ndarray:
        return self.pair[1]

    @classmethod
    def fresh(cls, channels: int) -> "MomentumStats":
        return cls(np.stack((np.zeros(channels), np.ones(channels))))


def momentum_update(ms: MomentumStats, stats: np.ndarray,
                    alpha: float) -> MomentumStats:
    """Pull the running pair toward the batch means of stats [2,B,C]:
    alpha * pair + (1 - alpha) * batch mean, alpha in [0,1] (the config's,
    checked by ``ExperimentConfig.validate``)."""
    return MomentumStats(alpha * ms.pair + (1.0 - alpha) * _batch_mean(stats))
