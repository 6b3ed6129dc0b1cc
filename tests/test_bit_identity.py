"""Whole runs with the production training chain against the reference graph.

Production training runs every batch through the graph-free chain of kernel
pairs (``experiment.batch_grads``). The reference trains through
``ConvNet.forward`` and ``Tensor.backward`` on the unfused graphs:
full-size relu then maxpool2x2, the augmentation hook as 19 Tensor nodes,
the head as a matmul and a bias add, the tap-by-tap conv backward and a
zero-filling gradient accumulator. The references also replace the forward
kernels that evaluation shares with training, with a broadcast conv bias
add and a pool fold over the NCHW view, so the test accuracies in
metrics.jsonl come from the references too. The fedavg run checks a
training step with no hook; fedprox, mixup and fedavgm check the proximal
pull, the two-label loss and the server momentum. The conv stack stores its
outputs NHWC in memory, and the FedFA hooks and the backward pass reduce
over them, so a change of memory layout or summation order anywhere in the
training step changes the low bits of a run. Stored hashes would tie this check to one machine's BLAS; comparing
two runs in one process does not.
"""

import dataclasses
import os

import pytest

from fedfa.config import ExperimentConfig
from fedfa.experiment import run_experiment

import reference_kernels

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def assert_matches_reference(cfg, tmp_path, monkeypatch):
    got = run_bytes(cfg, tmp_path / "production")
    with monkeypatch.context() as m:
        reference_kernels.install(m)
        want = run_bytes(cfg, tmp_path / "reference")
    assert got == want


def run_bytes(cfg, root):
    run_dir = run_experiment(cfg, run_root=str(root))
    out = {}
    for name in ("metrics.jsonl", "model.bin"):
        with open(os.path.join(run_dir, name), "rb") as f:
            out[name] = f.read()
    return out


# batch 47 leaves a one-sample batch per client and epoch: at B=1 a
# transposed gradient can reshape to an F-ordered view, so the bias and
# weight sums of a conv see its memory layout most directly
@pytest.mark.parametrize("config,changes", [
    ("fedavg", {}),
    ("fedfa_dirichlet", {}),
    ("fedfa", {}),
    ("fedfa", {"batch_size": 47}),
    ("fedfa", {"algorithm": "fedfa-c"}),
    ("fedfa", {"algorithm": "fedfa-r"}),
    ("fedprox", {}),
    ("fedfa", {"algorithm": "mixup"}),
    ("fedfa", {"algorithm": "fedavgm"}),
], ids=["fedavg", "fedfa_dirichlet", "fedfa", "fedfa_batch47", "fedfa-c", "fedfa-r",
        "fedprox", "mixup", "fedavgm"])
def test_runs_byte_identical_to_reference_kernels(config, changes, tmp_path,
                                                  monkeypatch):
    cfg = dataclasses.replace(
        ExperimentConfig.from_json(os.path.join(CONFIG_DIR, f"{config}.json")),
        rounds=2, **changes)
    assert_matches_reference(cfg, tmp_path, monkeypatch)


def test_blocked_evaluation_byte_identical_to_one_chunk(tmp_path, monkeypatch):
    # 512 test samples per client: production scores them in 14 blocks of
    # 36 or 37, the reference in one call; the shipped configs hold 128 per
    # client, 4 blocks of 32
    base = ExperimentConfig.from_json(os.path.join(CONFIG_DIR, "fedavg.json"))
    cfg = dataclasses.replace(
        base, clients=8, rounds=2,
        dataset=dataclasses.replace(base.dataset, train_per_client=32,
                                    test_per_client=512))
    assert_matches_reference(cfg, tmp_path, monkeypatch)
