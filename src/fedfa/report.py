"""Turn run directories into a summary CSV and an accuracy-vs-round SVG."""

from __future__ import annotations

import csv
import json
import os
from collections import defaultdict

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#7f7f7f")


def _read_json(path, lines: bool = False):
    """config.json's object, or metrics.jsonl's objects, one per non-blank
    line; a ValueError names the file and what is wrong with it."""
    try:
        with open(path) as f:
            values = ([json.loads(t) for t in f if t.strip()] if lines
                      else [json.load(f)])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if not all(isinstance(v, dict) for v in values):
        raise ValueError(f"{path}: holds a JSON value that is not an object")
    return values if lines else values[0]


# what the CSV and the SVG read of each record: round an integer, the means
# a number or null (an absent mean reads as null)
_FIELDS = {"round": ((int,), "an integer"),
           "mean_test_acc": ((int, float, type(None)), "a number or null"),
           "mean_train_loss": ((int, float, type(None)), "a number or null")}


def _check_records(path, records) -> None:
    """A ValueError naming path, the record and the first field of it that
    the report cannot read (true is no number here)."""
    for i, rec in enumerate(records, start=1):
        for key, (types, name) in _FIELDS.items():
            value = rec.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                got = json.dumps(value) if key in rec else "no value"
                raise ValueError(f"{path}: record {i}: {key}: expected {name}, "
                                 f"got {got}")


def collect_runs(root):
    """Find run directories (root itself or its children) and load metrics.

    Returns (runs, warnings); each run is a dict with algorithm, seed and
    the parsed metric records. A run whose config.json or metrics.jsonl
    does not parse, or holds a record the report cannot read, is skipped
    with a warning naming the file.
    """
    if os.path.isfile(os.path.join(root, "metrics.jsonl")):
        candidates = [root]
    else:
        names = sorted(os.listdir(root)) if os.path.isdir(root) else []
        candidates = [sub for sub in (os.path.join(root, n) for n in names)
                      if os.path.isdir(sub)]
    runs, warnings = [], []
    for d in candidates:
        metrics = os.path.join(d, "metrics.jsonl")
        if not os.path.isfile(metrics):
            warnings.append(f"{d}: no metrics.jsonl, skipped")
            continue
        cfg_path = os.path.join(d, "config.json")
        has_cfg = os.path.isfile(cfg_path)
        try:
            cfg = _read_json(cfg_path) if has_cfg else {}
            records = _read_json(metrics, lines=True)
            _check_records(metrics, records)
        except ValueError as err:
            warnings.append(f"{err}, skipped")
            continue
        if not has_cfg:
            warnings.append(f"{d}: no config.json, using directory name")
        algorithm = cfg.get("algorithm", os.path.basename(d))
        seed = cfg.get("seed")
        if not records:
            warnings.append(f"{d}: metrics.jsonl is empty")
        runs.append({"dir": d, "algorithm": algorithm, "seed": seed,
                     "records": records})
    return runs, warnings


def write_summary_csv(runs, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["algorithm", "seed", "round",
                    "mean_test_acc", "mean_train_loss"])
        for run in runs:
            for rec in run["records"]:
                w.writerow([run["algorithm"], run["seed"], rec["round"],
                            rec.get("mean_test_acc"),
                            rec.get("mean_train_loss")])


def _mean_curves(runs):
    """Per algorithm: mean test accuracy across seeds at each round."""
    by_algo = defaultdict(lambda: defaultdict(list))
    for run in runs:
        for rec in run["records"]:
            acc = rec.get("mean_test_acc")
            if acc is not None:
                by_algo[run["algorithm"]][rec["round"]].append(acc)
    return {algo: sorted((r, sum(v) / len(v)) for r, v in rounds.items())
            for algo, rounds in by_algo.items()}


def write_accuracy_svg(runs, path) -> None:
    curves = _mean_curves(runs)
    width, height, pad = 640, 400, 48
    max_round = max((p[-1][0] for p in curves.values() if p), default=1) or 1
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-size="13">round</text>',
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height // 2})">mean test accuracy</text>',
    ]

    def sx(r):
        return pad + (width - 2 * pad) * r / max_round

    def sy(a):
        return height - pad - (height - 2 * pad) * a

    for i, (algo, pts) in enumerate(sorted(curves.items())):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(r):.1f},{sy(a):.1f}" for r, a in pts)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{coords}"/>')
        ty = pad + 16 * (i + 1)
        parts.append(f'<text x="{width - pad - 8}" y="{ty}" text-anchor="end" '
                     f'font-size="12" fill="{color}">{algo}</text>')
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts) + "\n")


def emit_report(root):
    """Write summary.csv and accuracy.svg under root; returns the paths
    and the warnings. Raises FileNotFoundError if root holds no run it can
    read; its message starts with the warnings, one line each."""
    runs, warnings = collect_runs(root)
    if not runs:
        raise FileNotFoundError("\n".join(
            [f"warning: {w}" for w in warnings]
            + [f"{root}: no run directory with a metrics.jsonl"]))
    csv_path = os.path.join(root, "summary.csv")
    svg_path = os.path.join(root, "accuracy.svg")
    write_summary_csv(runs, csv_path)
    write_accuracy_svg(runs, svg_path)
    return csv_path, svg_path, warnings
