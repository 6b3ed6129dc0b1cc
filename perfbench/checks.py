"""Correctness checks on one finished run directory.

Each check returns a message on failure; an empty list means the run
passed. Downlink bytes are deliberately unchecked: round 1 counts
modulation coefficients that do not exist yet, and fixing that must show
as a lower ``wire_bytes_per_round``, not as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

from fedfa import checkpoint
from fedfa.config import ExperimentConfig
from fedfa.federation import comm_cost
from fedfa.layers import default_net_spec

STAT_BYTES_PER_VALUE = 8  # statistics travel as float64


def digest(run_dir: str) -> tuple[str, str]:
    """sha256 of metrics.jsonl and model.bin, for byte-identity checks."""
    out = []
    for name in ("metrics.jsonl", "model.bin"):
        with open(os.path.join(run_dir, name), "rb") as f:
            out.append(hashlib.sha256(f.read()).hexdigest())
    return out[0], out[1]


def expected_uplink_per_client(cfg: ExperimentConfig, params) -> int:
    """Model bytes, plus one mean and one std vector per augmentation site
    for the FedFA family (half of the two-way statistic exchange)."""
    param_bytes = len(checkpoint.encode(params))
    if not cfg.algorithm.startswith("fedfa"):
        return param_bytes
    spec = default_net_spec(channels=cfg.dataset.channels,
                            image_size=cfg.dataset.image_size,
                            classes=cfg.dataset.classes)
    return param_bytes + comm_cost(spec.stage_channels, STAT_BYTES_PER_VALUE) // 2


def check_run(run_dir: str, cfg: ExperimentConfig) -> tuple[list[dict], list[str]]:
    """Returns (metrics records, failure messages)."""
    try:
        with open(os.path.join(run_dir, "metrics.jsonl")) as f:
            records = [json.loads(line) for line in f]
    except (OSError, ValueError) as err:
        return [], [f"metrics.jsonl unreadable: {err}"]
    try:
        params = checkpoint.load(os.path.join(run_dir, "model.bin"))
    except (OSError, ValueError, struct.error) as err:
        return records, [f"model.bin unreadable: {err}"]

    failures = []
    try:
        rounds = [r["round"] for r in records]
        if rounds != list(range(cfg.rounds + 1)):
            failures.append(f"rounds {rounds} are not 0..{cfg.rounds}")
        final = records[-1]["mean_test_acc"]
        if not (isinstance(final, (int, float)) and math.isfinite(final)
                and final > 1.0 / cfg.dataset.classes):
            failures.append(f"final mean_test_acc {final!r} is not finite and "
                            f"above chance 1/{cfg.dataset.classes}")
        for r in records:
            loss = r["mean_train_loss"]
            if loss is not None and not (isinstance(loss, (int, float))
                                         and math.isfinite(loss)):
                failures.append(f"round {r['round']}: mean_train_loss {loss!r}")
        if not all(np.all(np.isfinite(v)) for v in params.values()):
            failures.append("model.bin holds non-finite parameters")
        up = expected_uplink_per_client(cfg, params)
        for r in records[1:]:
            if r["uplink_bytes_per_client"] != up:
                failures.append(f"round {r['round']}: uplink_bytes_per_client "
                                f"{r['uplink_bytes_per_client']} != {up}")
            if r["uplink_bytes"] != up * len(r["train_loss"]):
                failures.append(f"round {r['round']}: uplink_bytes "
                                f"{r['uplink_bytes']} != {up} x "
                                f"{len(r['train_loss'])} trained clients")
    except (KeyError, TypeError, IndexError) as err:
        failures.append(f"metrics.jsonl malformed: {err!r}")
    return records, failures


def wire_bytes_per_round(records: list[dict]) -> float:
    """Mean uplink plus downlink bytes over the training rounds."""
    rounds = records[1:]
    return sum(r["uplink_bytes"] + r["downlink_bytes"] for r in rounds) / len(rounds)
