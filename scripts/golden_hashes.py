"""Fingerprint the outputs of every shipped config and every algorithm.

Runs each config (default: configs/*.json, plus configs/fedfa.json with
``algorithm`` replaced by each algorithm no shipped config uses) in a
temporary run root and prints one line per run with the sha256 of its
metrics.jsonl and model.bin. The default set ends with one leave-one-out
run of configs/fedfa.json (held-out client 1, participation 0.75), which
trains the non-contiguous client ids 0, 2, 3; its line hashes
leave_one_out.json. Two checkouts that print the same lines
produce byte-identical runs, which is the check a behaviour-preserving
refactor must pass:

    PYTHONPATH=src python3 scripts/golden_hashes.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 scripts/golden_hashes.py | diff before.txt -
"""

import argparse
import dataclasses
import glob
import hashlib
import os
import tempfile

from fedfa.config import ALGORITHMS, ExperimentConfig
from fedfa.experiment import leave_one_out, run_experiment

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*")
    args = ap.parse_args()

    paths = args.configs or sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    runs = [(os.path.splitext(os.path.basename(p))[0], ExperimentConfig.from_json(p))
            for p in paths]
    if not args.configs:
        base = ExperimentConfig.from_json(os.path.join(CONFIG_DIR, "fedfa.json"))
        covered = {cfg.algorithm for _, cfg in runs}
        runs += [(f"fedfa[algorithm={a}]", dataclasses.replace(base, algorithm=a))
                 for a in ALGORITHMS if a not in covered]

    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(runs):
            # one run root per run: configs may share a run name
            run_dir = run_experiment(cfg, run_root=os.path.join(tmp, str(i)))
            print(f"{label}  metrics.jsonl {sha256(os.path.join(run_dir, 'metrics.jsonl'))}"
                  f"  model.bin {sha256(os.path.join(run_dir, 'model.bin'))}")
        if not args.configs:
            cfg = dataclasses.replace(base, participation=0.75)
            root = os.path.join(tmp, "loo")
            leave_one_out(cfg, 1, run_root=root)
            path = os.path.join(root, f"{cfg.name}_loo1", "leave_one_out.json")
            print(f"fedfa[participation=0.75,held_out=1]  leave_one_out.json {sha256(path)}")


if __name__ == "__main__":
    main()
