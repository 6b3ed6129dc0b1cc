"""Fingerprint the outputs of every shipped config.

Runs each config (default: configs/*.json) in a temporary run root and
prints one line per config with the sha256 of its metrics.jsonl and
model.bin. Two checkouts that print the same lines produce byte-identical
runs, which is the check a behaviour-preserving refactor must pass:

    PYTHONPATH=src python3 scripts/golden_hashes.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 scripts/golden_hashes.py | diff before.txt -
"""

import argparse
import glob
import hashlib
import os
import tempfile

from fedfa.config import ExperimentConfig
from fedfa.experiment import run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*",
                    default=sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))))
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        for path in args.configs:
            label = os.path.splitext(os.path.basename(path))[0]
            # one run root per config: configs may share a run name
            run_dir = run_experiment(ExperimentConfig.from_json(path),
                                     run_root=os.path.join(tmp, label))
            print(f"{label}  metrics.jsonl {sha256(os.path.join(run_dir, 'metrics.jsonl'))}"
                  f"  model.bin {sha256(os.path.join(run_dir, 'model.bin'))}")


if __name__ == "__main__":
    main()
