"""SGD with an optional proximal pull toward an anchor point."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


class Sgd:
    def __init__(self, params: dict[str, Tensor], lr: float,
                 prox_mu: float = 0.0,
                 anchor: dict[str, np.ndarray] | None = None):
        if prox_mu != 0.0 and anchor is None:
            raise ValueError("proximal term needs an anchor point")
        self.params = params
        self.lr = lr
        self.prox_mu = prox_mu
        self.anchor = anchor

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            # keep the zero-coefficient path bit-identical to plain SGD
            if self.prox_mu != 0.0:
                g = g + self.prox_mu * (p.data - self.anchor[name])
            p.data = p.data - self.lr * g

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()
