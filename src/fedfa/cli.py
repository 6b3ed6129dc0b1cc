"""Command line front end.

Subcommands: run, sweep, compare, check, report, commcost. The run root
comes from --run-root, falling back to $FEDFA_RUN_ROOT, then ./runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from multiprocessing import get_context

import numpy as np

from .allocator import pin_malloc_thresholds
from .config import ALGORITHMS, ExperimentConfig
from .experiment import leave_one_out, resolve_run_root, run_experiment
from .federation import aggregate, comm_cost
from .rng import stream
from . import checkpoint


def _last_record(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        return json.loads(f.readlines()[-1])


class BadConfig(Exception):
    """A config file that cannot be read, parsed or validated; ``main``
    prints it as ``<path>: <reason>`` and exits 2."""


def _read_config(path) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_json(path)
    except OSError as e:
        raise BadConfig(f"{path}: {e.strerror}") from None
    except ValueError as e:
        raise BadConfig(f"{path}: {e}") from None


def _cmd_run(args) -> int:
    cfg = _read_config(args.config)
    run_dir = run_experiment(cfg, run_root=args.run_root)
    last = _last_record(run_dir)
    print(f"{run_dir}: round {last['round']} "
          f"mean_test_acc {last['mean_test_acc']:.4f}")
    return 0


def _call(thunk):
    return thunk()


def _run_all(thunks, workers=None) -> list:
    """The thunks' results in order, from this process for one worker, else
    from a process pool (default: a worker per thunk, at most cpu count)."""
    workers = workers or min(len(thunks), os.cpu_count() or 1)
    if workers == 1:
        return [t() for t in thunks]
    # spawn, not fork: fork copies a process whose BLAS threads may hold locks
    with ProcessPoolExecutor(workers, mp_context=get_context("spawn"),
                             initializer=pin_malloc_thresholds) as pool:
        return list(pool.map(_call, thunks))


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(args.config_glob))
    if not paths:
        print(f"no configs match {args.config_glob!r}", file=sys.stderr)
        return 1
    cfgs = [_read_config(p) for p in paths]
    first = {}
    for path, cfg in zip(paths, cfgs):
        other = first.setdefault(cfg.name, path)
        if other != path:
            print(f"{other} and {path} would both write "
                  f"{os.path.join(resolve_run_root(args.run_root), cfg.name)}",
                  file=sys.stderr)
            return 1
    run_dirs = _run_all([partial(run_experiment, c, run_root=args.run_root)
                        for c in cfgs], args.workers)
    for path, run_dir in zip(paths, run_dirs):
        print(f"{path} -> {run_dir}")
    return 0


GATE_SEEDS = 5  # tests/test_acceptance.py: criteria 7 and 8 run seeds 0-4
HELD_OUT = 3  # criterion 8's held-out client
_HELD_OUT_CLIENTS = (f"compare holds out client {HELD_OUT}, so it needs at "
                     f"least {HELD_OUT + 1} clients, got {{}}")
PAIRS = {  # name: (accuracy table, minuend, subtrahend)
    "fedfa - fedavg": ("final_acc", "fedfa", "fedavg"),
    "fedfa - fedfa-c": ("final_acc", "fedfa", "fedfa-c"),
    "fedfa - fedfa-r": ("final_acc", "fedfa", "fedfa-r"),
    "held-out fedfa - fedavg": ("held_out_acc", "fedfa", "fedavg"),
}


def paired_summary(diffs) -> dict:
    """Per-seed differences (seed order), their mean, its percentile-
    bootstrap 95 % CI from 10 000 resamples, and the win counts
    (difference >= 0, as the gate counts) over seeds 0-4 and all seeds."""
    d = np.asarray(diffs, dtype=np.float64)
    idx = stream(0, "bootstrap").integers(0, d.size, (10_000, d.size))
    lo, hi = np.percentile(d[idx].mean(axis=1), [2.5, 97.5])
    return {"differences": d.tolist(), "mean": float(d.mean()),
            "ci95": [float(lo), float(hi)],
            "wins_seeds_0_4": int((d[:GATE_SEEDS] >= 0).sum()),
            "wins": int((d >= 0).sum())}


def compare(base: ExperimentConfig, seeds: int, workers=None,
            run_root=None) -> dict:
    """Run every algorithm on seeds 0..seeds-1 into the run root, and
    fedavg and fedfa once more without client HELD_OUT; write the
    accuracies and the PAIRS summaries to <run root>/compare.json."""
    if seeds < 2:
        raise ValueError(f"compare needs at least 2 seeds, got {seeds}")
    if base.clients <= HELD_OUT:
        raise ValueError(_HELD_OUT_CLIENTS.format(base.clients))
    root = resolve_run_root(run_root)
    cfg = {(a, s): dataclasses.replace(base, algorithm=a, seed=s, run_name=None)
           for a in ALGORITHMS for s in range(seeds)}
    held = ("fedavg", "fedfa")
    out = iter(_run_all(
        [partial(run_experiment, c, run_root=root) for c in cfg.values()]
        + [partial(leave_one_out, cfg[a, s], HELD_OUT)
           for a in held for s in range(seeds)], workers))
    acc = {"final_acc": {a: [_last_record(next(out))["mean_test_acc"]
                             for _ in range(seeds)] for a in ALGORITHMS},
           "held_out_acc": {a: [next(out)["held_out_acc"]
                                for _ in range(seeds)] for a in held}}
    result = {**acc, "rounds": base.rounds, "held_out_client": HELD_OUT,
              "seeds": seeds, "paired": {
                  name: paired_summary(np.subtract(acc[t][a], acc[t][b]))
                  for name, (t, a, b) in PAIRS.items()}}
    with open(os.path.join(root, "compare.json"), "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    return result


def _cmd_compare(args) -> int:
    base = _read_config(args.config) if args.config else ExperimentConfig()
    if base.clients <= HELD_OUT:  # before any run, as a bad config
        reason = _HELD_OUT_CLIENTS.format(base.clients)
        raise BadConfig(f"{args.config}: {reason}")
    result = compare(base, args.seeds, args.workers, args.run_root)
    n = result["seeds"]
    for name, s in result["paired"].items():
        print(f"{name:23s}  mean {s['mean']:+.4f}  95% CI "
              f"[{s['ci95'][0]:+.4f}, {s['ci95'][1]:+.4f}]  wins "
              f"{s['wins_seeds_0_4']}/{min(n, GATE_SEEDS)} on seeds 0-4, "
              f"{s['wins']}/{n} on all")
    root = resolve_run_root(args.run_root)
    print(os.path.join(root, "compare.json"))
    return _print_report(root)


def _print_report(run_dir: str) -> int:
    from .report import emit_report

    try:
        csv_path, svg_path, warnings = emit_report(run_dir)
    except FileNotFoundError as e:
        print(e, file=sys.stderr)
        return 1
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(csv_path)
    print(svg_path)
    return 0


def _cmd_report(args) -> int:
    return _print_report(args.run_dir)


def _cmd_commcost(args) -> int:
    print(comm_cost(args.channels, args.bytes_per_value))
    return 0


def _check_theory(seed: int) -> int:
    from .theory import reference_check

    report = reference_check(seed=seed)
    for s, r in zip(report.scales, report.residuals):
        print(f"scale {s:10.3e}  residual {r:12.5e}")
    ok = report.passes()
    exponent = "n/a" if report.exponent is None else f"{report.exponent:.4f}"
    print(f"exponent {exponent} {'PASS' if ok else 'FAIL'} (want 1.8..2.2)")
    return 0 if ok else 1


def _check_invariants(seed: int) -> int:
    from .augment import FfaConfig, augment, modulate, noise_view

    failures = []
    total = 0

    def check(name, ok):
        nonlocal total
        total += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    rng = stream(seed, "noise", 0)
    worst = 0.0
    for _ in range(200):
        b, c, h, w = (int(rng.integers(1, 5)), int(rng.integers(1, 9)),
                      int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        x = rng.standard_normal((b, c, h, w)) * rng.uniform(0.5, 3)
        fused = rng.uniform(0, 2, (2, c))
        eps = rng.standard_normal((2, b, c))
        cfg = FfaConfig(p=1.0)
        x_hat, _ = augment(x, fused, cfg, rng, eps=eps)
        e = noise_view(x, fused, eps)
        worst = max(worst, float(np.max(np.abs(x_hat - (x + e)))))
    check(f"additive-noise identity (max dev {worst:.2e})", worst < 1e-9)

    worst = 0.0
    for _ in range(200):
        c = int(rng.integers(1, 513))
        gamma = modulate(rng.uniform(0, 5, c) * (rng.random(c) > 0.1))
        worst = max(worst, abs(float(gamma.sum()) - c))
    check(f"modulation normalization (max dev {worst:.2e})", worst < 1e-9)

    check("commcost [64,192,384,256,256] x4B == 18432",
          comm_cost([64, 192, 384, 256, 256], 4) == 18432)
    check("commcost [32,64,128,256,512] x4B == 15872",
          comm_cost([32, 64, 128, 256, 512], 4) == 15872)

    params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(4)}
    agg = aggregate([(params, 1.0), (params, 2.5), (params, 0.5)])
    check("aggregation idempotence (bitwise)",
          all(np.array_equal(agg[k], params[k]) for k in params))

    blob = checkpoint.encode(params)
    back = checkpoint.decode(blob)
    check("checkpoint round trip (bitwise)",
          all(np.array_equal(back[k], params[k]) for k in params))

    print(f"{total - len(failures)}/{total} invariant groups passed")
    return 0 if not failures else 1


def _cmd_check(args) -> int:
    if args.what == "theory":
        return _check_theory(args.seed)
    return _check_invariants(args.seed)


def _int_at_least(lo: int):
    """An argparse type: an int >= lo, else a usage error."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's name for an unparsable value
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fedfa",
        description="Federated learning simulator with feature-statistic "
                    "augmentation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a JSON config")
    p.add_argument("config")
    p.add_argument("--run-root", default=None,
                   help="output root (default: $FEDFA_RUN_ROOT or ./runs)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("sweep", help="run every config matching a glob")
    p.add_argument("config_glob")
    p.add_argument("--run-root", default=None)
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes (default: one per config, "
                        "capped at cpu count)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("compare",
                       help="every algorithm on N seeds, plus fedavg and "
                            "fedfa without client 3: paired differences "
                            "with bootstrap CIs in <run root>/compare.json")
    p.add_argument("config", nargs="?", default=None,
                   help="JSON config every run starts from, its algorithm, "
                        "seed and run name replaced (default: the "
                        "built-in defaults)")
    p.add_argument("--seeds", type=_int_at_least(2), default=20,
                   help="seeds 0..N-1, N >= 2 (default: 20)")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes (default: one per run, "
                        "capped at cpu count)")
    p.add_argument("--run-root", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("check", help="run the numerical verification suites")
    p.add_argument("what", choices=["theory", "invariants"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", help="summarize run directories")
    p.add_argument("run_dir")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("commcost",
                       help="statistic-exchange bytes per client per round")
    p.add_argument("channels", type=_int_at_least(1), nargs="+",
                   help="channel count of each augmentation site")
    p.add_argument("--bytes-per-value", type=int, default=4)
    p.set_defaults(fn=_cmd_commcost)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pin_malloc_thresholds()
    try:
        return args.fn(args)
    except BadConfig as e:
        print(e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
