"""Numerical check of the first-order noise expansion.

With fixed noise e^z injected after each conv stage z and scaled by s,
the training loss should satisfy

    L(s) = L(0) + s * sum_z <dL/dX^z, e^z> + O(s^2),

where the gradients are those of the clean loss at the injection sites.
The residual against the linear prediction must therefore shrink roughly
quadratically in s, which is what theory_check measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import draw_eps, noise_view
from .data import TaskSpec, make_base_sampler
from .layers import ConvNet, default_net_spec, init_params, softmax_cross_entropy
from .rng import stream
from .stats import batch_variances, channel_stats
from .tensor import Tensor

RESIDUAL_FLOOR = 1e-13
EXPONENT_BAND = (1.8, 2.2)  # a fitted residual exponent passes inside it


@dataclass
class TheoryCheckReport:
    scales: list[float]
    residuals: list[float]
    exponent: float | None
    linear_coefficient: float
    usable_points: int

    def passes(self) -> bool:
        lo, hi = EXPONENT_BAND
        return self.exponent is not None and lo <= self.exponent <= hi


def site_gradients(net: ConvNet, x: np.ndarray, y: np.ndarray):
    """Clean loss and its gradients at every stage output."""
    logits, stage_outputs = net.forward(Tensor(x))
    loss = softmax_cross_entropy(logits, y)
    loss.backward()
    grads = [t.grad for t in stage_outputs]
    return float(loss.data), grads


def noised_loss(net: ConvNet, x: np.ndarray, y: np.ndarray,
                noises: list[np.ndarray], scale: float) -> float:
    hooks = [(lambda t, e=e: t + scale * e) if e is not None else None
             for e in noises]
    logits, _ = net.forward(Tensor(x), hooks=hooks)
    return float(softmax_cross_entropy(logits, y).data)


def ffa_noise_source(net: ConvNet, x: np.ndarray,
                     seed: int = 0) -> list[np.ndarray]:
    """Unit-scale augmentation noise for every stage, frozen as arrays.

    Uses the batch's own statistic variances as the budget, i.e. the
    client-only variant, evaluated at the clean activations.
    """
    _, stage_outputs = net.forward(Tensor(x))
    noises = []
    for k, t in enumerate(stage_outputs):
        act = t.data
        fused = batch_variances(channel_stats(act))
        eps = draw_eps(stream(seed, "noise", k), *act.shape[:2])
        noises.append(noise_view(act, fused, eps))
    return noises


def theory_check(net: ConvNet, batch, noises, scales) -> TheoryCheckReport:
    """Measure |L(s) - L(0) - s * linear| across noise scales.

    noises is a list of per-stage noise arrays (None allowed for a quiet
    stage).
    """
    x, y = batch
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")

    loss0, grads = site_gradients(net, x, y)
    lin = 0.0
    for g, e in zip(grads, noises):
        if e is not None:
            lin += float(np.sum(g * e))

    residuals = []
    for s in scales:
        ls = noised_loss(net, x, y, noises, s)
        if not np.isfinite(ls):
            raise FloatingPointError(f"loss not finite at noise scale {s}")
        residuals.append(abs(ls - loss0 - s * lin))

    usable = [(s, r) for s, r in zip(scales, residuals) if r > RESIDUAL_FLOOR]
    if len(usable) >= 2:
        xs = np.log([s for s, _ in usable])
        ys = np.log([r for _, r in usable])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = None
    return TheoryCheckReport(
        scales=scales, residuals=residuals, exponent=exponent,
        linear_coefficient=lin, usable_points=len(usable),
    )


def reference_check(seed: int = 0, scales=None) -> TheoryCheckReport:
    """The stock configuration: seeded 2-stage net, a synthetic batch of
    16."""
    if scales is None:
        scales = np.logspace(-1, -4, 7)
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(seed, "init")))
    sampler = make_base_sampler(TaskSpec(), seed)
    x, y = sampler(16, stream(seed, "data", 1))
    noises = ffa_noise_source(net, x, seed=seed)
    return theory_check(net, (x, y), noises, scales)

