"""SGD with an optional proximal pull toward an anchor point."""

from __future__ import annotations

import numpy as np


class Sgd:
    """Plain SGD on a dict of arrays. ``step`` rebinds every entry to a new
    array, so the arrays the dict started with are never written."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 prox_mu: float = 0.0,
                 anchor: dict[str, np.ndarray] | None = None):
        if prox_mu != 0.0 and anchor is None:
            raise ValueError("proximal term needs an anchor point")
        self.params = params
        self.lr = lr
        self.prox_mu = prox_mu
        self.anchor = anchor

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from the gradients by name, one for every parameter."""
        for name, p in self.params.items():
            g = grads[name]
            # keep the zero-coefficient path bit-identical to plain SGD
            if self.prox_mu != 0.0:
                g = g + self.prox_mu * (p - self.anchor[name])
            self.params[name] = p - self.lr * g
