"""Op microbenchmarks at the default net's shapes, through public calls.

Each op runs forward at B=32 (training), 128 and 512 (evaluation chunks)
and backward at B=32, timed as ``Tensor.backward`` from the op's output
with a fixed seed gradient. Values are medians in microseconds.
"""

from __future__ import annotations

import statistics

import numpy as np

from fedfa import checkpoint, federation, layers
from fedfa.tensor import Tensor
from spans import CLOCK

TRAIN_BATCH = 32
EVAL_BATCHES = (128, 512)
REPEATS = {32: 200, 128: 80, 512: 30}
CLASSES = 8
AGG_CLIENTS = 4

# op name -> input shape after the batch axis; hw8/hw4 name the spatial size
OPS = {
    "conv2d.hw8": (3, 8, 8),
    "conv2d.hw4": (8, 4, 4),
    "maxpool2x2.hw8": (8, 8, 8),
    "maxpool2x2.hw4": (16, 4, 4),
    "linear": (64,),
    "softmax_cross_entropy": (CLASSES,),
}


def metric_names() -> list[tuple[str, str]]:
    names = []
    for op in OPS:
        names.append((f"layers.{op}.fwd_us.b{TRAIN_BATCH}", "us"))
        names.append((f"layers.{op}.bwd_us.b{TRAIN_BATCH}", "us"))
        names += [(f"layers.{op}.fwd_us.b{b}", "us") for b in EVAL_BATCHES]
    return names + [("federation.aggregate.us", "us"), ("checkpoint.encode.us", "us")]


def _default_params(rng) -> dict[str, np.ndarray]:
    spec = layers.default_net_spec(channels=3, image_size=8, classes=CLASSES)
    return {k: t.data for k, t in layers.init_params(spec, rng).items()}


def _forward(op: str, params, x: np.ndarray, labels: np.ndarray):
    """Build fresh leaves and apply op; returns the output Tensor."""
    if op.startswith("conv2d"):
        i = 0 if op.endswith("hw8") else 1
        return layers.conv2d(Tensor(x), Tensor(params[f"conv{i}.weight"]),
                             Tensor(params[f"conv{i}.bias"]), padding=1)
    if op.startswith("maxpool2x2"):
        return layers.maxpool2x2(Tensor(x))
    if op == "linear":
        return layers.linear(Tensor(x), Tensor(params["head.weight"]),
                             Tensor(params["head.bias"]))
    return layers.softmax_cross_entropy(Tensor(x), labels)


def _median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def run(seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    params = _default_params(rng)
    clock = CLOCK
    out = {}
    for op, shape in OPS.items():
        for b in (TRAIN_BATCH,) + EVAL_BATCHES:
            x = rng.standard_normal((b,) + shape)
            labels = rng.integers(0, CLASSES, size=b)
            fwd = []
            for _ in range(REPEATS[b]):
                t0 = clock()
                _forward(op, params, x, labels)
                fwd.append(clock() - t0)
            out[f"layers.{op}.fwd_us.b{b}"] = _median_us(fwd)
            if b != TRAIN_BATCH:
                continue
            grad = rng.standard_normal(_forward(op, params, x, labels).shape)
            bwd = []
            for _ in range(REPEATS[b]):
                y = _forward(op, params, x, labels)
                t0 = clock()
                y.backward(grad)
                bwd.append(clock() - t0)
            out[f"layers.{op}.bwd_us.b{b}"] = _median_us(bwd)

    models = [({k: v + 1e-3 * rng.standard_normal(v.shape) for k, v in params.items()},
               48.0) for _ in range(AGG_CLIENTS)]
    agg, enc = [], []
    for _ in range(REPEATS[TRAIN_BATCH]):
        t0 = clock()
        federation.aggregate(models)
        agg.append(clock() - t0)
        t0 = clock()
        checkpoint.encode(params)
        enc.append(clock() - t0)
    out["federation.aggregate.us"] = _median_us(agg)
    out["checkpoint.encode.us"] = _median_us(enc)
    return out
