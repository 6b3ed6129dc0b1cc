"""The benchmark's workloads: one frozen experiment config per workload.

Every field that shapes the work is spelled out here rather than read from
``configs/`` or taken from the dataclass defaults, so the parent commit and
a change always run the same experiment. Only the seed varies
between runs; NOTES.md gives the reasoning behind each workload.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from fedfa.config import DatasetConfig, ExperimentConfig


@dataclass(frozen=True)
class Workload:
    why: str
    config: ExperimentConfig

    def for_seed(self, seed: int, run_name: str) -> ExperimentConfig:
        return dataclasses.replace(self.config, seed=int(seed), run_name=run_name)


_COMMON = dict(lr=0.05, batch_size=32, aggregation="samples", p=0.5,
               alpha=0.99, rounds=30)
_DATA = dict(classes=8, image_size=8, channels=3, noise=0.8)

WORKLOADS = {
    "fedfa_default": Workload(
        why="configs/fedfa.json as shipped: full FedFA, 4 equal feature-shift "
            "clients, 48 train / 128 test each; ~60 % train, ~40 % eval",
        config=ExperimentConfig(
            algorithm="fedfa", clients=4, participation=1.0, local_epochs=1,
            dataset=DatasetConfig(kind="feature_shift", shift_strength=1.0,
                                  train_per_client=48, test_per_client=128,
                                  **_DATA),
            **_COMMON),
    ),
    "eval_heavy": Workload(
        why="fedavg, 8 feature-shift clients, 32 train / 512 test each: ~80 % "
            "of time in evaluate at batch 512; no augmentation or stat exchange",
        config=ExperimentConfig(
            algorithm="fedavg", clients=8, participation=1.0, local_epochs=1,
            dataset=DatasetConfig(kind="feature_shift", shift_strength=1.0,
                                  train_per_client=32, test_per_client=512,
                                  **_DATA),
            **_COMMON),
    ),
    "train_skewed": Workload(
        why="fedfa, 8 size-skewed clients (ratio 4, 98..391 train), half "
            "participate, 2 local epochs: ~87 % of time in forward+backward",
        config=ExperimentConfig(
            algorithm="fedfa", clients=8, participation=0.5, local_epochs=2,
            dataset=DatasetConfig(kind="size_skew", size_ratio=4.0,
                                  test_fraction=0.25, train_per_client=256,
                                  test_per_client=32, **_DATA),
            **_COMMON),
    ),
}
