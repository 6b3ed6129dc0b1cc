#!/usr/bin/env python3
"""fedfa benchmark: whole experiments in a closed loop, one at a time.

    python3 perfbench/run.py --workload fedfa_default --seed 1 --seconds 20 --trace 0

Each invocation runs one workload in its own process: an untimed warm-up
run, then timed runs of the same config until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced runs, adds op microbenchmarks, prints the per-layer
metrics and writes the spans to ``.perfbench/spans-<workload>.tsv``. Every
run's outputs are checked (``checks.py``) and must be byte-identical to the
first run of the same config seed. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 1 when any run
failed. NOTES.md says why each workload exists.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    # One BLAS thread, fixed before numpy loads. The simulator's matrices are
    # too small for a second thread to shorten a run, and an idle OpenBLAS
    # thread spins on the other core, which couples the timings to whatever
    # else shares the machine.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

if not (ROOT / "src" / "fedfa" / "__init__.py").is_file():
    sys.exit(f"perfbench: no fedfa sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import micro  # noqa: E402
from checks import check_run, digest, wire_bytes_per_round  # noqa: E402
from fedfa.config import ExperimentConfig  # noqa: E402
from fedfa.experiment import run_experiment  # noqa: E402
from spans import CLOCK, Tracer, phases, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
# Runs cycle through this many config seeds, all derived from --seed, so one
# invocation's figures are not those of a single draw of data and gate
# firings; 4 seeds x 30 rounds leave 12 round times beyond p90.
CONFIG_SEEDS = 4
MIN_TIMED_RUNS = CONFIG_SEEDS  # at least one run of each config seed
MIN_TRACED_PAIRS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_s.p50", "s"),
    ("round_s.p90", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_samples_per_s", "samples/s"),
    ("wire_bytes_per_round", "bytes"),
    ("peak_rss_mb", "MiB"),
]

# Traced in every traced run, besides experiment.train_fn,
# experiment.evaluate, federation.run_round and augment.augment, which
# carry counters and are installed separately.
TRACED = [
    "experiment.build_dataset",
    "layers.ConvNet.forward", "layers.conv2d", "layers.maxpool2x2",
    "layers.linear", "layers.softmax_cross_entropy", "layers.init_params",
    "tensor.Tensor.backward",
    "augment.variant_variances", "augment.modulate",
    "stats.channel_stats", "stats.batch_variances", "stats.momentum_update",
    "optim.Sgd.step",
    "federation.select_clients", "federation.aggregate",
    "federation.recompute_coeffs",
    "checkpoint.encode", "checkpoint.save",
    "rng.stream",
]
PHASE_ROOTS = {"experiment.train_fn": "train", "experiment.evaluate": "eval"}
# layer ops reported per phase, by the phase of their enclosing span
SPLIT = {"layers.ConvNet.forward", "layers.conv2d", "layers.maxpool2x2",
         "layers.linear", "layers.softmax_cross_entropy"}
SPAN_METRICS = [
    "experiment.train_fn", "experiment.evaluate", "experiment.build_dataset",
    "layers.ConvNet.forward.train", "layers.ConvNet.forward.eval",
    "layers.conv2d.train", "layers.conv2d.eval",
    "layers.maxpool2x2.train", "layers.maxpool2x2.eval",
    "layers.linear.train", "layers.linear.eval",
    "layers.softmax_cross_entropy.train", "layers.init_params",
    "tensor.Tensor.backward",
    "augment.augment", "augment.variant_variances", "augment.modulate",
    "stats.channel_stats", "stats.batch_variances", "stats.momentum_update",
    "optim.Sgd.step",
    "federation.run_round", "federation.select_clients",
    "federation.aggregate", "federation.recompute_coeffs",
    "checkpoint.encode", "checkpoint.save",
    "rng.stream",
]
PER_LAYER = (
    [m for s in SPAN_METRICS for m in ((f"{s}.calls", "count"), (f"{s}.self_s", "s"))]
    + [("trace.overhead_frac", "ratio")]
    + micro.metric_names()
    + [("augment.fire_ratio", "ratio"),
       ("federation.informative_upload_frac", "ratio"),
       ("federation.dropped_clients", "count")]
)


@dataclass
class Run:
    seed: int  # config seed
    run_s: float
    setup_s: float
    rounds: list[float]
    train_samples_per_s: float
    eval_samples_per_s: float
    wire_bytes_per_round: float
    spans: list
    counters: Counter


def _durations(spans, name: str) -> float:
    return sum(end - start for n, start, end, _ in spans if n == name)


def _rounds(spans) -> list[float]:
    """Round time: from entering run_round to the end of the last evaluate
    call before the next round starts."""
    rounds, start, end = [], None, None
    for name, s, e, _ in spans:
        if name == "federation.run_round":
            if start is not None:
                rounds.append(end - start)
            start, end = s, e
        elif name == "experiment.evaluate" and start is not None:
            end = e
    if start is not None:
        rounds.append(end - start)
    return rounds


class Bench:
    """Runs one config repeatedly and keeps what each passing run measured."""

    def __init__(self, cfgs: list[ExperimentConfig], run_root: Path):
        self.cfgs = cfgs
        self.run_root = run_root
        self.reference: dict[int, tuple[str, str]] = {}  # config seed -> digests
        self.attempted = 0
        self.failed = 0

    def run(self, index: int, traced: bool) -> Run | None:
        """Run cfgs[index % len(cfgs)]; None when it raised or failed a check."""
        cfg = self.cfgs[index % len(self.cfgs)]
        self.attempted += 1
        counters: Counter = Counter()
        # A fresh directory per run: rewriting an existing file makes ext4
        # flush it to disk on close, tens of ms per file that a new
        # experiment's run directory never pays.
        run_root = self.run_root / str(self.attempted)
        try:
            with Tracer() as tracer:
                self._install(tracer, counters, cfg.local_epochs, traced)
                t0 = CLOCK()
                run_dir = run_experiment(cfg, run_root=str(run_root))
                t1 = CLOCK()
            records, failures = check_run(run_dir, cfg)
            outputs = digest(run_dir)
        except Exception:  # a run that raises is a failed run; keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        finally:
            shutil.rmtree(run_root, ignore_errors=True)
            # Free this run's autodiff reference cycles now, outside the
            # timed region, so every run starts from the same heap and peak
            # RSS does not depend on how many runs fit in --seconds.
            gc.collect()
        if self.reference.setdefault(cfg.seed, outputs) != outputs:
            failures.append(f"{'traced' if traced else 'untraced'} run outputs "
                            f"differ from the first run of config seed {cfg.seed}")
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"perfbench: check failed: {msg}", file=sys.stderr)
            return None
        spans = [tuple(s) for s in tracer.spans]  # tuples of atoms: gc stops tracking them
        train_s = _durations(spans, "experiment.train_fn")
        eval_s = _durations(spans, "experiment.evaluate")
        first_eval = next(s for n, s, _, _ in spans if n == "experiment.evaluate")
        return Run(
            seed=cfg.seed,
            run_s=t1 - t0,
            setup_s=first_eval - t0,
            rounds=_rounds(spans),
            train_samples_per_s=counters["train_samples"] / train_s,
            eval_samples_per_s=counters["eval_samples"] / eval_s,
            wire_bytes_per_round=wire_bytes_per_round(records),
            spans=spans,
            counters=counters,
        )

    @staticmethod
    def _install(tracer: Tracer, counters: Counter, epochs: int, traced: bool) -> None:
        def on_train(args, kwargs, result):
            counters["train_samples"] += result.n_samples * epochs
            if traced:
                for st in result.momentum:
                    counters["uploaded_stats"] += 1
                    counters["informative_stats"] += bool(
                        np.any(st.mu_bar != 0.0) or np.any(st.sigma_bar != 1.0))

        def on_eval(args, kwargs, acc):
            counters["eval_samples"] += len(kwargs["x"] if "x" in kwargs else args[2])

        def on_round(args, kwargs, report):
            counters["dropped_clients"] += len(report.selected) - len(report.train_loss)

        def on_augment(args, kwargs, out):
            counters["hook_calls"] += 1
            counters["gate_opens"] += out[1] is not None

        def make_train_fn(make):
            @functools.wraps(make)
            def traced_make(*args, **kwargs):
                return tracer.wrap("experiment.train_fn", make(*args, **kwargs), on_train)
            return traced_make

        tracer.replace("experiment.make_train_fn", make_train_fn)
        tracer.span("experiment.evaluate", on_eval)
        tracer.span("federation.run_round", on_round if traced else None)
        if traced:
            tracer.span("augment.augment", on_augment)
            for target in TRACED:
                tracer.span(target)


def layer_profile(spans) -> tuple[Counter, Counter]:
    """Calls and self seconds per span metric name for one traced run."""
    calls, self_s = Counter(), Counter()
    for (name, *_), own, phase in zip(spans, self_times(spans),
                                      phases(spans, PHASE_ROOTS)):
        key = f"{name}.{phase}" if name in SPLIT and phase else name
        calls[key] += 1
        self_s[key] += own
    return calls, self_s


def round_times(runs: list[Run]) -> list[float]:
    """One time per (config seed, round index): the median over the repeats
    of that round. A round's own cost (its gate firings, a gc pass) stays in
    the tail; a burst of host interference during one repeat does not."""
    cells = defaultdict(list)
    for run in runs:
        for i, t in enumerate(run.rounds):
            cells[run.seed, i].append(t)
    return [statistics.median(ts) for ts in cells.values()]


def end_to_end(runs: list[Run]) -> dict[str, float]:
    rounds = round_times(runs)
    return {
        "setup_s": statistics.median(r.setup_s for r in runs),
        "run_s": statistics.median(r.run_s for r in runs),
        "round_s.p50": statistics.median(rounds),
        "round_s.p90": statistics.quantiles(rounds, n=10)[8],
        "train_samples_per_s": statistics.median(r.train_samples_per_s for r in runs),
        "eval_samples_per_s": statistics.median(r.eval_samples_per_s for r in runs),
        "wire_bytes_per_round": statistics.median(r.wire_bytes_per_round for r in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: list[Run], untraced: list[Run], ops: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    profiles = [layer_profile(r.spans) for r in traced]
    for s in SPAN_METRICS:
        out[f"{s}.calls"] = statistics.mean(calls[s] for calls, _ in profiles)
        out[f"{s}.self_s"] = statistics.median(own[s] for _, own in profiles)
    out["trace.overhead_frac"] = (statistics.median(r.run_s for r in traced)
                                  / statistics.median(r.run_s for r in untraced) - 1.0)
    out.update(ops)
    c = sum((r.counters for r in traced), Counter())
    out["augment.fire_ratio"] = c["gate_opens"] / c["hook_calls"] if c["hook_calls"] else 0.0
    out["federation.informative_upload_frac"] = (
        c["informative_stats"] / c["uploaded_stats"] if c["uploaded_stats"] else 0.0)
    out["federation.dropped_clients"] = c["dropped_clients"] / len(traced)
    return out


def write_spans(path: Path, runs: list[Run]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("run\tname\tphase\tstart\tend\tparent\n")
        for i, run in enumerate(runs):
            for (name, start, end, parent), phase in zip(run.spans,
                                                         phases(run.spans, PHASE_ROOTS)):
                f.write(f"{i}\t{name}\t{phase or ''}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _blas() -> tuple[str, int | str]:
    """BLAS vendor as numpy was built, and OpenBLAS's live thread count."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info['name']} {info.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return vendor, getter()
    return vendor, os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    vendor, threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "malloc": f"mmap_threshold={MMAP_THRESHOLD} trim_threshold={TRIM_THRESHOLD}",
        "git_commit": _git_commit(),
    }


def bench(cfgs: list[ExperimentConfig], seed: int, seconds: float, trace: bool,
          out_dir: Path) -> int:
    """Measure the configs in turn; print the metrics, the environment and
    the result line. Returns the exit code."""
    b = Bench(cfgs, out_dir / f"runs-{os.getpid()}")
    untraced: list[Run] = []
    traced: list[Run] = []
    try:
        b.run(0, traced=False)  # warm-up
        ops = micro.run(seed) if trace else {}
        deadline = time.monotonic() + seconds
        loops = 0
        while loops < (MIN_TRACED_PAIRS if trace else MIN_TIMED_RUNS) \
                or time.monotonic() < deadline:
            untraced.append(b.run(loops, traced=False))
            if trace:  # traced right after untraced of the same config seed
                traced.append(b.run(loops, traced=True))
            loops += 1
    finally:
        shutil.rmtree(b.run_root, ignore_errors=True)
    untraced = [r for r in untraced if r is not None]
    traced = [r for r in traced if r is not None]

    metrics, units = {}, dict(PER_LAYER if trace else END_TO_END)
    if trace and traced and untraced:
        metrics = per_layer(traced, untraced, ops)
        write_spans(out_dir / f"spans-{cfgs[0].run_name}.tsv", traced)
    elif not trace and untraced:
        metrics = end_to_end(untraced)
    rounds = sum(len(r.rounds) for r in untraced)
    print(f"# runs: {len(untraced)} untraced ({rounds} rounds), "
          f"{len(traced)} traced; attempted {b.attempted}, failed {b.failed}")
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.6g} {units[name]}")
    print(f"{'failed_frac':<44} {b.failed / b.attempted:>14.6g} ratio")
    print("# env " + json.dumps(environment(), sort_keys=True))
    correct = b.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


MMAP_THRESHOLD = 32 << 20  # glibc's largest
TRIM_THRESHOLD = 1 << 30


def fix_allocator() -> None:
    """Fix glibc's malloc thresholds for the whole process.

    By default glibc moves its mmap threshold as chunks are freed. Which
    state it settles in differs from process to process: in some, every
    batch-512 evaluation maps fresh temporaries and the run takes ~900k
    page faults; in others none. On a 2-vCPU VM, eval_heavy's evaluation
    throughput then flipped between ~57k and ~90k samples/s from one
    invocation to the next. Fixed thresholds keep the temporaries in the heap and the heap
    from shrinking, so every invocation is in the second state.
    """
    libc = ctypes.CDLL(None)
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    if not (libc.mallopt(m_mmap_threshold, MMAP_THRESHOLD)
            and libc.mallopt(m_trim_threshold, TRIM_THRESHOLD)):
        raise RuntimeError("mallopt refused the allocator thresholds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    fix_allocator()
    workload = WORKLOADS[args.workload]
    cfgs = [workload.for_seed(args.seed * CONFIG_SEEDS + j, run_name=args.workload)
            for j in range(CONFIG_SEEDS)]
    return bench(cfgs, args.seed, args.seconds, bool(args.trace), OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
