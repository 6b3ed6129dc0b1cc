"""Numerical check of the first-order noise expansion.

With fixed noise e^z injected after each conv stage z and scaled by s,
the training loss should satisfy

    L(s) = L(0) + s * sum_z <dL/dX^z, e^z> + O(s^2),

where the gradients are those of the clean loss at the injection sites.
The residual against the linear prediction must therefore shrink roughly
quadratically in s, which is what theory_check measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import draw_eps, noise_view
from .data import TaskSpec, make_base_sampler
from .layers import (ConvNet, NetSpec, StageSpec, default_net_spec,
                     init_params, softmax_cross_entropy)
from .rng import stream
from .stats import batch_variances, channel_stats
from .tensor import Tensor

RESIDUAL_FLOOR = 1e-13


@dataclass
class TheoryCheckReport:
    scales: list[float]
    residuals: list[float]
    exponent: float | None
    loss_clean: float
    linear_coefficient: float
    details: dict = field(default_factory=dict)

    def passes(self, lo: float = 1.8, hi: float = 2.2) -> bool:
        return self.exponent is not None and lo <= self.exponent <= hi


def _loss(logits: Tensor, y: np.ndarray, kind: str) -> Tensor:
    if kind == "cross_entropy":
        return softmax_cross_entropy(logits, y)
    if kind == "linear":
        # linear functional of the logits; keeps the whole map affine in
        # the injected noise when the net has no relu/pool stages
        return logits.sum() * (1.0 / logits.shape[0])
    raise ValueError(f"unknown loss kind {kind!r}")


def site_gradients(net: ConvNet, x: np.ndarray, y: np.ndarray,
                   loss_kind: str = "cross_entropy"):
    """Clean loss and its gradients at every stage output."""
    logits, tape = net.forward(Tensor(x))
    loss = _loss(logits, y, loss_kind)
    loss.backward()
    grads = [t.grad for t in tape.stage_outputs]
    return float(loss.data), grads


def noised_loss(net: ConvNet, x: np.ndarray, y: np.ndarray,
                noises: list[np.ndarray], scale: float,
                loss_kind: str = "cross_entropy") -> float:
    hooks = [(lambda t, e=e: t + scale * e) if e is not None else None
             for e in noises]
    logits, _ = net.forward(Tensor(x), hooks=hooks)
    return float(_loss(logits, y, loss_kind).data)


def ffa_noise_source(net: ConvNet, x: np.ndarray, seed: int = 0,
                     eps_var: float = 1e-6) -> list[np.ndarray]:
    """Unit-scale augmentation noise for every stage, frozen as arrays.

    Uses the batch's own statistic variances as the budget, i.e. the
    client-only variant, evaluated at the clean activations.
    """
    _, tape = net.forward(Tensor(x))
    noises = []
    for k, t in enumerate(tape.stage_outputs):
        act = t.data
        fused = batch_variances(channel_stats(act, eps_var=eps_var))
        eps = draw_eps(stream(seed, "noise", k), *act.shape[:2])
        noises.append(noise_view(act, fused, eps, eps_var=eps_var))
    return noises


def theory_check(net: ConvNet, batch, noises, scales,
                 loss_kind: str = "cross_entropy") -> TheoryCheckReport:
    """Measure |L(s) - L(0) - s * linear| across noise scales.

    noises is a list of per-stage noise arrays (None allowed for a quiet
    stage).
    """
    x, y = batch
    scales = [float(s) for s in scales]
    if any(s <= 0 for s in scales):
        raise ValueError("scales must be positive")

    loss0, grads = site_gradients(net, x, y, loss_kind)
    lin = 0.0
    for g, e in zip(grads, noises):
        if e is not None:
            lin += float(np.sum(g * e))

    residuals = []
    for s in scales:
        ls = noised_loss(net, x, y, noises, s, loss_kind)
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
        loss_clean=loss0, linear_coefficient=lin,
        details={"usable_points": len(usable), "loss_kind": loss_kind},
    )


def reference_check(seed: int = 0, batch_size: int = 16,
                    scales=None) -> TheoryCheckReport:
    """The stock configuration: seeded 2-stage relu net, synthetic batch."""
    if scales is None:
        scales = np.logspace(-1, -4, 7)
    spec = default_net_spec()
    net = ConvNet(spec, init_params(spec, stream(seed, "init")))
    sampler = make_base_sampler(TaskSpec(), seed)
    x, y = sampler(batch_size, stream(seed, "data", 1))
    noises = ffa_noise_source(net, x, seed=seed)
    return theory_check(net, (x, y), noises, scales)


def linear_check(seed: int = 0, batch_size: int = 8) -> TheoryCheckReport:
    """Fully affine pipeline: the expansion is exact, residuals at float noise."""
    spec = NetSpec(
        stages=(StageSpec(3, 4, relu=False, pool=False),
                StageSpec(4, 4, relu=False, pool=False)),
        image_size=8, classes=5,
    )
    net = ConvNet(spec, init_params(spec, stream(seed, "init")))
    sampler = make_base_sampler(TaskSpec(classes=5), seed)
    x, y = sampler(batch_size, stream(seed, "data", 1))
    noises = ffa_noise_source(net, x, seed=seed)
    return theory_check(net, (x, y), noises, [1e-1, 1e-2, 1e-3],
                        loss_kind="linear")
