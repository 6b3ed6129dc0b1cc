"""Federated learning simulator with probabilistic feature augmentation."""

from .augment import (FfaConfig, augment, ffa_transform, fuse, modulate,
                      noise_view, variant_variances)
from .config import DatasetConfig, ExperimentConfig
from .federation import (ClientState, RoundReport, ServerState, aggregate,
                         comm_cost, run_round, sharing_variances)
from .stats import (MomentumStats, batch_variances, channel_stats,
                    momentum_update)
from .tensor import Tensor

__version__ = "0.1.0"

__all__ = [
    "ClientState", "DatasetConfig", "ExperimentConfig", "FfaConfig",
    "MomentumStats", "RoundReport", "ServerState", "Tensor", "aggregate",
    "augment", "batch_variances", "channel_stats", "comm_cost",
    "ffa_transform", "fuse", "modulate", "momentum_update", "noise_view",
    "run_round", "sharing_variances", "variant_variances",
]
