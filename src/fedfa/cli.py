"""Command line front end.

Subcommands: run, sweep, check, report, commcost. The run-root directory
comes from --run-root, falling back to $FEDFA_RUN_ROOT, then ./runs.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .config import ExperimentConfig
from .experiment import resolve_run_root, run_experiment
from .federation import aggregate, comm_cost
from . import checkpoint


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    run_dir = run_experiment(cfg, run_root=args.run_root)
    with open(os.path.join(run_dir, "metrics.jsonl")) as f:
        last = json.loads(f.readlines()[-1])
    print(f"{run_dir}: round {last['round']} "
          f"mean_test_acc {last['mean_test_acc']:.4f}")
    return 0


def _run_one(item):
    path, run_root = item
    cfg = ExperimentConfig.from_json(path)
    return path, run_experiment(cfg, run_root=run_root)


def _cmd_sweep(args) -> int:
    paths = sorted(glob.glob(args.config_glob))
    if not paths:
        print(f"no configs match {args.config_glob!r}", file=sys.stderr)
        return 1
    workers = args.workers or min(len(paths), os.cpu_count() or 1)
    items = [(p, args.run_root) for p in paths]
    if workers == 1:
        results = [_run_one(i) for i in items]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, items))
    for path, run_dir in results:
        print(f"{path} -> {run_dir}")
    return 0


def _cmd_report(args) -> int:
    from .report import emit_report

    csv_path, svg_path, warnings = emit_report(args.run_dir)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(csv_path)
    print(svg_path)
    return 0


def _cmd_commcost(args) -> int:
    print(comm_cost(args.channels, args.bytes_per_value))
    return 0


def _check_theory(seed: int) -> int:
    from .theory import reference_check

    report = reference_check(seed=seed)
    for s, r in zip(report.scales, report.residuals):
        print(f"scale {s:10.3e}  residual {r:12.5e}")
    ok = report.passes()
    print(f"exponent {report.exponent:.4f} "
          f"{'PASS' if ok else 'FAIL'} (want 1.8..2.2)")
    return 0 if ok else 1


def _check_invariants(seed: int) -> int:
    from .augment import FfaConfig, augment, modulate, noise_view
    from .rng import stream
    from .tensor import Tensor

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
        x_hat, used = augment(Tensor(x), fused, cfg, rng, eps=eps)
        e = noise_view(x, fused, used)
        worst = max(worst, float(np.max(np.abs(x_hat.data - (x + e)))))
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

    p = sub.add_parser("check", help="run the numerical verification suites")
    p.add_argument("what", choices=["theory", "invariants"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("report", help="summarize run directories")
    p.add_argument("run_dir")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("commcost",
                       help="statistic-exchange bytes per client per round")
    p.add_argument("channels", type=int, nargs="+",
                   help="channel count of each augmentation site")
    p.add_argument("--bytes-per-value", type=int, default=4)
    p.set_defaults(fn=_cmd_commcost)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
