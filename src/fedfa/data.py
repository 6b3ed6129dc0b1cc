"""Synthetic federated image tasks with three heterogeneity axes.

The base task is a seeded blob-plus-grating classifier: each class owns a
smooth template (a Gaussian bump and a sinusoidal texture per channel) and
samples are noisy copies of it. Heterogeneity is then injected one axis at
a time: per-client channel affine shifts, Dirichlet label skew, or
geometric data-size skew.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import stream


@dataclass(frozen=True)
class TaskSpec:
    classes: int = 6
    image_size: int = 8
    channels: int = 3
    noise: float = 0.3


@dataclass(frozen=True)
class ClientData:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


@dataclass
class FederatedDataset:
    clients: list[ClientData]
    classes: int
    metadata: dict = field(default_factory=dict)


def class_templates(spec: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    """One [C,H,W] template per class: a bump plus an oriented grating."""
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    templates = np.zeros((spec.classes, spec.channels, size, size))
    for k in range(spec.classes):
        for c in range(spec.channels):
            cy, cx = rng.uniform(0.15, 0.85, size=2)
            width = rng.uniform(0.12, 0.3)
            amp = rng.uniform(0.8, 1.6)
            bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
            fy, fx = rng.uniform(0.5, 2.5, size=2)
            phase = rng.uniform(0, 2 * np.pi)
            grating = 0.6 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
            templates[k, c] = bump + grating
    return templates


def make_base_sampler(spec: TaskSpec, seed: int):
    """Returns sample(n, rng) -> (x [n,C,H,W], y [n]) for the seeded task."""
    templates = class_templates(spec, stream(seed, "data", 0))

    def sample(n: int, rng: np.random.Generator):
        y = rng.integers(0, spec.classes, size=n)
        x = templates[y] + spec.noise * rng.standard_normal(
            (n, spec.channels, spec.image_size, spec.image_size)
        )
        return x, y

    return sample


def _split(x: np.ndarray, y: np.ndarray, n_train: int) -> ClientData:
    return ClientData(
        x_train=x[:n_train], y_train=y[:n_train],
        x_test=x[n_train:], y_test=y[n_train:],
    )


def make_feature_shift(base, m: int, shift_strength: float, seed: int,
                       train_per_client: int = 128,
                       test_per_client: int = 64,
                       classes: int | None = None) -> FederatedDataset:
    """Clients draw i.i.d. from base, then apply a per-client channel affine.

    Channel c of client m becomes a[c]*x + b[c] with a in [1-s, 1+s] and
    b in [-s, s]. Labels are untouched.
    """
    if m < 2:
        raise ValueError("need at least 2 clients")
    if shift_strength < 0:
        raise ValueError("shift_strength must be nonnegative")
    n = train_per_client + test_per_client
    clients = []
    shifts = []
    for i in range(m):
        x, y = base(n, stream(seed, "data", i + 1))
        rs = stream(seed, "data", i + 1, 1)
        a = rs.uniform(1.0 - shift_strength, 1.0 + shift_strength, size=x.shape[1])
        b = rs.uniform(-shift_strength, shift_strength, size=x.shape[1])
        x = a[None, :, None, None] * x + b[None, :, None, None]
        shifts.append({"scale": a.tolist(), "offset": b.tolist()})
        clients.append(_split(x, y, train_per_client))
    k = _class_count(classes, np.concatenate([c.y_train for c in clients]))
    return FederatedDataset(
        clients=clients, classes=k,
        metadata={"kind": "feature_shift", "seed": seed,
                  "shift_strength": shift_strength, "shifts": shifts},
    )


def _partition_to_dataset(x, y, assignment: list[np.ndarray], classes: int,
                          test_fraction: float, seed: int, meta: dict) -> FederatedDataset:
    clients = []
    for i, idx in enumerate(assignment):
        rng = stream(seed, "shuffle", 10_000 + i)
        idx = idx[rng.permutation(idx.size)]
        n_test = max(1, int(round(test_fraction * idx.size)))
        n_train = idx.size - n_test
        if n_train < 1:
            raise ValueError(f"client {i} would have no training data")
        clients.append(_split(x[idx], y[idx], n_train))
    meta = dict(meta)
    meta["sizes"] = [int(a.size) for a in assignment]
    return FederatedDataset(clients=clients, classes=classes, metadata=meta)


def dirichlet_partition(x: np.ndarray, y: np.ndarray, m: int,
                        concentration: float, seed: int,
                        test_fraction: float = 0.25,
                        classes: int | None = None) -> FederatedDataset:
    """Label-skewed split: per-class client proportions drawn from a
    symmetric Dirichlet. Degenerate draws (an empty client) are resampled.
    classes defaults to the largest label drawn plus one."""
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    n = y.shape[0]
    if n < m:
        raise ValueError(f"{n} samples cannot cover {m} clients")
    classes = _class_count(classes, y)
    rng = stream(seed, "data", 7)
    for _attempt in range(100):
        buckets: list[list[np.ndarray]] = [[] for _ in range(m)]
        for k in range(classes):
            idx = np.flatnonzero(y == k)
            idx = idx[rng.permutation(idx.size)]
            props = rng.dirichlet(np.full(m, concentration))
            counts = _largest_remainder(props * idx.size)
            start = 0
            for i, cnt in enumerate(counts):
                buckets[i].append(idx[start:start + cnt])
                start += cnt
        assignment = [np.concatenate(b) if b else np.empty(0, dtype=int) for b in buckets]
        if all(a.size >= 2 for a in assignment):
            return _partition_to_dataset(
                x, y, assignment, classes, test_fraction, seed,
                {"kind": "dirichlet", "seed": seed, "concentration": concentration},
            )
    raise RuntimeError("could not draw a partition with all clients nonempty")


def size_skew(x: np.ndarray, y: np.ndarray, m: int, ratio: float, seed: int,
              test_fraction: float = 0.25,
              classes: int | None = None) -> FederatedDataset:
    """Geometric size progression across clients with max/min == ratio.
    classes defaults to the largest label drawn plus one."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    n = y.shape[0]
    q = ratio ** (1.0 / (m - 1)) if m > 1 else 1.0
    weights = np.array([q ** i for i in range(m)])
    counts = _largest_remainder(n * weights / weights.sum())
    if min(counts) < 2:
        raise ValueError("smallest client would be empty; lower ratio or add data")
    classes = _class_count(classes, y)
    rng = stream(seed, "data", 8)
    order = rng.permutation(n)
    assignment = []
    start = 0
    for cnt in counts:
        assignment.append(order[start:start + cnt])
        start += cnt
    return _partition_to_dataset(
        x, y, assignment, classes, test_fraction, seed,
        {"kind": "size_skew", "seed": seed, "ratio": ratio},
    )


def _class_count(classes: int | None, y: np.ndarray) -> int:
    """classes, or without it the largest label in y plus one, which
    undercounts when a small draw misses the top classes."""
    return int(classes) if classes is not None else int(y.max()) + 1


def _largest_remainder(quotas: np.ndarray) -> list[int]:
    """Round nonnegative quotas to integers preserving the total."""
    floors = np.floor(quotas).astype(int)
    short = int(round(quotas.sum())) - floors.sum()
    if short > 0:
        remainders = quotas - floors
        # stable sort: ties go to the lower index
        for i in np.argsort(-remainders, kind="stable")[:short]:
            floors[i] += 1
    return floors.tolist()
