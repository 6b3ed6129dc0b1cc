"""Experiment configuration: dataclasses with JSON round-tripping."""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Algorithm:
    """What an algorithm switches on; its knobs stay in ExperimentConfig."""

    variant: str | None = None  # FedFA variance budget; None: no augmentation
    prox: bool = False  # proximal pull toward the broadcast model, prox_mu
    mixup: bool = False  # mixup batches, Beta(mixup_beta, mixup_beta)
    server_momentum: bool = False  # momentum on the server update


ALGORITHM_TABLE = {
    "fedavg": Algorithm(),
    "fedprox": Algorithm(prox=True),
    "fedavgm": Algorithm(server_momentum=True),
    "mixup": Algorithm(mixup=True),
    "fedfa": Algorithm(variant="full"),
    "fedfa-c": Algorithm(variant="client"),
    "fedfa-r": Algorithm(variant="random"),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)
DATASET_KINDS = ("feature_shift", "dirichlet", "size_skew")


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "feature_shift"
    classes: int = 8
    image_size: int = 8
    channels: int = 3
    noise: float = 0.8
    train_per_client: int = 48
    test_per_client: int = 128
    shift_strength: float = 1.0  # feature_shift
    concentration: float = 0.5   # dirichlet
    size_ratio: float = 4.0      # size_skew
    test_fraction: float = 0.25  # partition-based kinds

    def validate(self) -> None:
        _check_finite(self)
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.channels < 1:
            raise ValueError("channels must be positive")
        if self.image_size < 4 or self.image_size % 4 != 0:
            raise ValueError("image_size must be positive and divisible by 4 "
                             "(two pool layers)")
        if self.train_per_client < 1 or self.test_per_client < 1:
            raise ValueError("per-client sample counts must be positive")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")
        if self.shift_strength < 0:
            raise ValueError("shift_strength must be nonnegative")
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")
        if self.size_ratio < 1:
            raise ValueError("size_ratio must be at least 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "fedfa"
    rounds: int = 30
    local_epochs: int = 1
    lr: float = 0.05
    batch_size: int = 32
    clients: int = 4
    participation: float = 1.0
    aggregation: str = "samples"  # or "uniform"
    seed: int = 0
    # augmentation knobs (fedfa family)
    p: float = 0.5
    alpha: float = 0.99
    random_std: float = 0.5
    force_zero_gamma: bool = False
    # baseline knobs
    prox_mu: float = 0.01
    server_momentum: float = 0.9
    mixup_beta: float = 0.2
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    run_name: str | None = None

    def validate(self) -> None:
        _check_finite(self)
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose one of {ALGORITHMS}")
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.participation <= 1.0:
            raise ValueError("participation must lie in (0, 1]")
        if self.aggregation not in ("samples", "uniform"):
            raise ValueError(f"unknown aggregation {self.aggregation!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.random_std < 0:
            raise ValueError("random_std must be nonnegative")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be nonnegative")
        if not 0.0 <= self.server_momentum < 1.0:
            raise ValueError("server_momentum must lie in [0, 1)")
        if self.mixup_beta <= 0:
            raise ValueError("mixup_beta must be positive")
        if self.run_name is not None and (
                self.run_name in ("", ".", "..")
                or any(sep and sep in self.run_name
                       for sep in (os.sep, os.altsep))):
            raise ValueError("run_name must name one directory inside the run "
                             f"root, got {self.run_name!r}")
        self.dataset.validate()
        if self.dataset.kind == "feature_shift" and self.clients < 2:
            raise ValueError("clients must be at least 2 for a feature_shift "
                             "dataset")

    @property
    def method(self) -> Algorithm:
        return ALGORITHM_TABLE[self.algorithm]

    @property
    def name(self) -> str:
        return self.run_name or f"{self.algorithm}_seed{self.seed}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The validated config of a JSON object; a ValueError names the
        first key that is unknown or holds a value of the wrong JSON type."""
        _check_keys(d, cls, "experiment")
        d = dict(d)
        ds = d.pop("dataset", {})
        _check_keys(ds, DatasetConfig, "dataset")
        cfg = cls(dataset=DatasetConfig(**ds), **d)
        cfg.validate()
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")


# a field's annotation: the Python types of the JSON values it takes, and
# their name
_JSON_TYPES = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "DatasetConfig": ((dict,), "an object"),
}


def _check_finite(cfg) -> None:
    """Reject a float field holding NaN, an infinity or an integer past the
    largest float, which JSON's NaN, Infinity and long digits parse to."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite, got {value!r}")


def _check_keys(d, cls, where: str) -> None:
    """Reject a non-object d, a key that is not a field of cls, and a value
    of a JSON type the field does not take (true is no number here)."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {_as_json(d)}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(d) - set(fields)
    if unknown:
        raise ValueError(f"unknown {where} config keys: {sorted(unknown)}")
    for key, value in d.items():
        types, name = _JSON_TYPES[fields[key]]
        if not isinstance(value, types) or (isinstance(value, bool)
                                            and bool not in types):
            key = key if where == "experiment" else f"{where}.{key}"
            raise ValueError(f"{key}: expected {name}, got {_as_json(value)}")


def _as_json(value) -> str:
    return json.dumps(value, default=repr)
