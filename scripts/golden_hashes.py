"""Fingerprint the outputs of every shipped config and every algorithm.

Runs each config (default: configs/*.json, plus configs/fedfa.json with
``algorithm`` replaced by each algorithm no shipped config uses, and
configs/fedfa.json on a ``size_skew`` dataset, the one dataset kind no
shipped config builds) in a temporary run root and prints one line per run with the sha256 of its
metrics.jsonl and model.bin. The default set ends with one leave-one-out
run of configs/fedfa.json (held-out client 1, participation 0.75), which
trains the non-contiguous client ids 0, 2, 3; its line hashes
leave_one_out.json. The last line hashes what ``fedfa check theory``
prints at seeds 0 and 3. Two checkouts that print the same lines
produce byte-identical runs, which is the check a behaviour-preserving
refactor must pass:

    PYTHONPATH=src python3 scripts/golden_hashes.py > before.txt
    # ... change the code ...
    PYTHONPATH=src python3 scripts/golden_hashes.py | diff before.txt -

The first line fingerprints what, besides the code, decides the low bits:
the numpy version, the BLAS vendor, the OpenBLAS core and its thread
count. GOLDEN.txt holds this output for the committed code, and

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/golden_hashes.py --check GOLDEN.txt

exits 0 when every line matches, 1 (printing the lines that differ) when
a run's hashes moved, and 2 without running anything when the fingerprint
differs, since the hashes of another numpy or BLAS core prove nothing
about the code. A change that moves outputs on purpose rewrites GOLDEN.txt
in the same commit.
"""

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from fedfa.allocator import pin_malloc_thresholds
from fedfa.cli import main as fedfa_main
from fedfa.config import ALGORITHMS, DATASET_KINDS, ExperimentConfig
from fedfa.experiment import leave_one_out, run_experiment
from fedfa.layers import _slab_forms_agree, default_net_spec

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "configs")


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def fingerprint() -> str:
    """numpy version, BLAS vendor, OpenBLAS core name and thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = threads = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy has loaded already
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            get_core = lib.scipy_openblas_get_corename64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            get_core.argtypes, get_core.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            core, threads = get_core().decode(), get_threads()
    return (f"# numpy {np.__version__}  blas {blas['name']} {blas.get('version', '')}"
            f"  core {core}  threads {threads}")


def slab_verdicts(blocks=(59, 107, 128, 151)) -> str:
    """Per stage of the default 8x8 net, whether ``layers.infer_logits``
    multiplies one pool tap's slab at a time (True) or leaves the block to
    ``net_forward`` (False), on this core, at the benchmark's block sizes;
    an odd block runs with one pad sample."""
    spec = default_net_spec()
    # per stage: K, Cout and the pooled positions of one sample
    shapes = [(s.in_ch * s.ksize ** 2, s.out_ch, (n // 2) ** 2)
              for s, n in zip(spec.stages, spec.conv_sizes)]
    return "# slab path, default net 8x8:" + "".join(
        f"  b={b} {[_slab_forms_agree(k, cout, p, b, b + b % 2) for k, cout, p in shapes]}"
        for b in blocks)


def theory_hash(seeds=(0, 3)) -> str:
    """sha256 of the lines ``fedfa check theory`` prints at each seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for seed in seeds:
            fedfa_main(["check", "theory", "--seed", str(seed)])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def hash_lines(configs):
    """Yield one line per run: its label and the sha256 of its outputs."""
    paths = configs or sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))
    runs = [(os.path.splitext(os.path.basename(p))[0], ExperimentConfig.from_json(p))
            for p in paths]
    if not configs:
        base = ExperimentConfig.from_json(os.path.join(CONFIG_DIR, "fedfa.json"))
        covered = {cfg.algorithm for _, cfg in runs}
        runs += [(f"fedfa[algorithm={a}]", dataclasses.replace(base, algorithm=a))
                 for a in ALGORITHMS if a not in covered]
        kinds = {cfg.dataset.kind for _, cfg in runs}
        runs += [(f"fedfa[dataset.kind={k}]",
                  dataclasses.replace(base, dataset=dataclasses.replace(base.dataset, kind=k)))
                 for k in DATASET_KINDS if k not in kinds]

    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, cfg) in enumerate(runs):
            # one run root per run: configs may share a run name
            run_dir = run_experiment(cfg, run_root=os.path.join(tmp, str(i)))
            yield (f"{label}  metrics.jsonl {sha256(os.path.join(run_dir, 'metrics.jsonl'))}"
                   f"  model.bin {sha256(os.path.join(run_dir, 'model.bin'))}")
        if not configs:
            cfg = dataclasses.replace(base, participation=0.75)
            root = os.path.join(tmp, "loo")
            leave_one_out(cfg, 1, run_root=root)
            path = os.path.join(root, f"{cfg.name}_loo1", "leave_one_out.json")
            yield f"fedfa[participation=0.75,held_out=1]  leave_one_out.json {sha256(path)}"
            yield f"fedfa check theory --seed 0,3  stdout {theory_hash()}"


def check(golden: str) -> int:
    """Compare the default set with a GOLDEN file; returns the exit code."""
    with open(golden) as f:
        want = f.read().splitlines()
    here = fingerprint()
    if not want or want[0] != here:
        print(f"{golden}: fingerprint differs, nothing compared\n"
              f"  file: {want[0] if want else '(empty)'}\n  here: {here}")
        return 2
    want = want[1:]
    got = list(hash_lines([]))
    differ = [(w, g) for w, g in zip(want, got) if w != g]
    for w, g in differ:
        print(f"- {w}\n+ {g}")
    for w in want[len(got):]:
        print(f"- {w}")
    for g in got[len(want):]:
        print(f"+ {g}")
    bad = len(differ) + abs(len(want) - len(got))
    if bad:
        print(f"{golden}: {bad} lines differ ({len(want)} expected, {len(got)} run)")
        return 1
    print(f"{golden}: all {len(got)} lines match")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("configs", nargs="*")
    ap.add_argument("--check", metavar="GOLDEN",
                    help="compare the default set with this file")
    args = ap.parse_args()
    pin_malloc_thresholds()
    if args.check:
        if args.configs:
            ap.error("--check compares the default set; give no configs")
        return check(args.check)
    print(fingerprint(), flush=True)
    for line in hash_lines(args.configs):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
