"""Synthetic federated image tasks with three heterogeneity axes.

The base task is a seeded blob-plus-grating classifier: each class owns a
smooth template (a Gaussian bump and a sinusoidal texture per channel) and
samples are noisy copies of it. Heterogeneity is then injected one axis at
a time: per-client channel affine shifts, Dirichlet label skew, or
geometric data-size skew.

Datasets are built label-first, in place. The sampler draws a block's
labels, then fills its features straight into the rows that hold them.
Feature shift fills and shifts each client's rows of one client-major
array. The two partitions decide every client's rows, shuffle included,
from the pool's labels alone; the pool's features are then drawn in
chunks of ``FILL_CHUNK_BYTES`` and scattered into one client-major array.
Every ``ClientData`` is a view of that array, so a dataset costs its own
bytes plus one chunk, and the draws, hence every feature, are those of
sampling the whole pool at once and copying each client out of it.
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


# per (class, channel), in draw order: the bump's centre (cy, cx), width
# and amplitude, the grating's frequencies (fy, fx) and phase
_TEMPLATE_LOW = np.array([0.15, 0.15, 0.12, 0.8, 0.5, 0.5, 0.0])
_TEMPLATE_HIGH = np.array([0.85, 0.85, 0.3, 1.6, 2.5, 2.5, 2 * np.pi])


def class_templates(spec: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    """One [C,H,W] template per class: a bump plus an oriented grating.

    One draw of seven uniforms per (class, channel), scaled as numpy's
    ``uniform`` scales them (low + (high - low) * u), so the values are
    those of drawing each parameter with ``rng.uniform`` class by class,
    channel by channel."""
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    u = rng.random((spec.classes, spec.channels, len(_TEMPLATE_LOW)))
    draws = _TEMPLATE_LOW + (_TEMPLATE_HIGH - _TEMPLATE_LOW) * u
    cy, cx, width, amp, fy, fx, phase = np.moveaxis(draws, -1, 0)[..., None, None]
    bump = amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
    grating = 0.6 * np.sin(2 * np.pi * (fy * yy + fx * xx) + phase)
    return bump + grating


# Rows per step of the feature fill are sized by this many bytes of
# features: the template gather of add_templates and the pool chunk of
# partition_dataset are each at most one such chunk, so building a dataset
# needs its own bytes plus one chunk (and index arrays).
FILL_CHUNK_BYTES = 64 * 1024


@dataclass(frozen=True, eq=False)
class BaseSampler:
    """The seeded task: labels uniform over the classes, features
    ``template[y] + noise * standard_normal``.

    Sampling is two steps, so callers can decide where each row goes
    before any feature exists: ``labels`` draws the labels, then ``fill``
    draws the noise straight into the caller's rows, scales it in place and
    adds each row's template. IEEE + and * commute, so the result is bit
    for bit ``templates[y] + noise * standard_normal(shape)``.
    """

    spec: TaskSpec
    templates: np.ndarray

    def labels(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.spec.classes, size=n)

    def empty(self, n: int) -> np.ndarray:
        s = self.spec
        return np.empty((n, s.channels, s.image_size, s.image_size))

    def chunk_rows(self) -> int:
        return max(1, FILL_CHUNK_BYTES // self.templates[0].nbytes)

    def noise(self, out: np.ndarray, rng: np.random.Generator) -> None:
        """Scaled standard normals into the C-contiguous rows of out."""
        rng.standard_normal(out=out)
        out *= self.spec.noise

    def add_templates(self, out: np.ndarray, y: np.ndarray) -> None:
        """out[i] += templates[y[i]], one chunk of rows at a time."""
        step = self.chunk_rows()
        for start in range(0, y.size, step):
            rows = out[start:start + step]
            np.add(rows, self.templates[y[start:start + step]], out=rows)

    def fill(self, out: np.ndarray, y: np.ndarray, rng: np.random.Generator) -> None:
        """The features of labels y, written into out [len(y),C,H,W]."""
        self.noise(out, rng)
        self.add_templates(out, y)

    def __call__(self, n: int, rng: np.random.Generator):
        """(x [n,C,H,W], y [n]): labels, then features, from one stream."""
        y = self.labels(n, rng)
        x = self.empty(n)
        self.fill(x, y, rng)
        return x, y


def make_base_sampler(spec: TaskSpec, seed: int) -> BaseSampler:
    return BaseSampler(spec, class_templates(spec, stream(seed, "data", 0)))


def _split(x: np.ndarray, y: np.ndarray, n_train: int) -> ClientData:
    return ClientData(
        x_train=x[:n_train], y_train=y[:n_train],
        x_test=x[n_train:], y_test=y[n_train:],
    )


def make_feature_shift(base: BaseSampler, m: int, shift_strength: float, seed: int,
                       train_per_client: int = 128,
                       test_per_client: int = 64) -> FederatedDataset:
    """Clients draw i.i.d. from base, then apply a per-client channel affine.

    Channel c of client m becomes a[c]*x + b[c] with a in [1-s, 1+s] and
    b in [-s, s]. Labels are untouched. Every client's rows are filled and
    shifted in place in one client-major array.
    """
    if m < 2:
        raise ValueError("need at least 2 clients")
    if shift_strength < 0:
        raise ValueError("shift_strength must be nonnegative")
    n = train_per_client + test_per_client
    x = base.empty(m * n)
    clients = []
    shifts = []
    for i in range(m):
        rows = x[i * n:(i + 1) * n]
        rng = stream(seed, "data", i + 1)
        y = base.labels(n, rng)
        base.fill(rows, y, rng)
        rs = stream(seed, "data", i + 1, 1)
        a = rs.uniform(1.0 - shift_strength, 1.0 + shift_strength, size=rows.shape[1])
        b = rs.uniform(-shift_strength, shift_strength, size=rows.shape[1])
        rows *= a[None, :, None, None]
        rows += b[None, :, None, None]
        shifts.append({"scale": a.tolist(), "offset": b.tolist()})
        clients.append(_split(rows, y, train_per_client))
    return FederatedDataset(
        clients=clients, classes=base.spec.classes,
        metadata={"kind": "feature_shift", "seed": seed,
                  "shift_strength": shift_strength, "shifts": shifts},
    )


@dataclass(frozen=True)
class Partition:
    """Which pool rows each client holds, decided from the labels alone.

    rows[i] lists client i's pool rows in its shuffled order, its n_train[i]
    training rows first; together the rows cover the pool once.
    """

    rows: list[np.ndarray]
    n_train: list[int]
    classes: int
    metadata: dict


def _partition(assignment: list[np.ndarray], classes: int, test_fraction: float,
               seed: int, meta: dict) -> Partition:
    rows, n_train = [], []
    for i, idx in enumerate(assignment):
        rng = stream(seed, "shuffle", 10_000 + i)
        rows.append(idx[rng.permutation(idx.size)])
        n_test = max(1, int(round(test_fraction * idx.size)))
        n_train.append(idx.size - n_test)
        if n_train[-1] < 1:
            raise ValueError(f"client {i} would have no training data")
    meta = dict(meta)
    meta["sizes"] = [int(a.size) for a in assignment]
    return Partition(rows=rows, n_train=n_train, classes=classes, metadata=meta)


def partition_dataset(base: BaseSampler, y: np.ndarray, part: Partition,
                      rng: np.random.Generator) -> FederatedDataset:
    """The clients of part, features drawn after the labels y from rng.

    The pool's noise is drawn in pool order, one chunk of rows at a time,
    and scattered straight into one client-major array; the templates are
    added there. rng's draws, and so every feature, are those of
    ``base(len(y), rng)`` after its labels, indexed by part.rows.
    """
    order = np.concatenate(part.rows)
    if order.size != y.size:
        raise ValueError(f"partition holds {order.size} rows of a {y.size}-row pool")
    dest = np.empty_like(order)
    dest[order] = np.arange(order.size)
    x = base.empty(order.size)
    step = base.chunk_rows()
    buf = base.empty(min(step, order.size))
    for start in range(0, order.size, step):
        chunk = buf[:min(step, order.size - start)]
        base.noise(chunk, rng)
        x[dest[start:start + chunk.shape[0]]] = chunk
    del buf
    labels = y[order]
    base.add_templates(x, labels)
    clients = []
    start = 0
    for idx, n_train in zip(part.rows, part.n_train):
        stop = start + idx.size
        clients.append(_split(x[start:stop], labels[start:stop], n_train))
        start = stop
    return FederatedDataset(clients=clients, classes=part.classes,
                            metadata=part.metadata)


def dirichlet_partition(y: np.ndarray, m: int, concentration: float, seed: int,
                        test_fraction: float = 0.25, *,
                        classes: int) -> Partition:
    """Label-skewed split of labels y in [0, classes): per-class client
    proportions drawn from a symmetric Dirichlet. Degenerate draws (an
    empty client) are resampled."""
    if concentration <= 0:
        raise ValueError("concentration must be positive")
    n = y.shape[0]
    if n < m:
        raise ValueError(f"{n} samples cannot cover {m} clients")
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
            return _partition(
                assignment, classes, test_fraction, seed,
                {"kind": "dirichlet", "seed": seed, "concentration": concentration},
            )
    raise RuntimeError("could not draw a partition with all clients nonempty")


def size_skew(y: np.ndarray, m: int, ratio: float, seed: int,
              test_fraction: float = 0.25, *, classes: int) -> Partition:
    """Geometric size progression across clients with max/min == ratio;
    labels y lie in [0, classes)."""
    if ratio < 1:
        raise ValueError("ratio must be >= 1")
    n = y.shape[0]
    q = ratio ** (1.0 / (m - 1)) if m > 1 else 1.0
    weights = np.array([q ** i for i in range(m)])
    counts = _largest_remainder(n * weights / weights.sum())
    if min(counts) < 2:
        raise ValueError("smallest client would be empty; lower ratio or add data")
    rng = stream(seed, "data", 8)
    order = rng.permutation(n)
    assignment = []
    start = 0
    for cnt in counts:
        assignment.append(order[start:start + cnt])
        start += cnt
    return _partition(
        assignment, classes, test_fraction, seed,
        {"kind": "size_skew", "seed": seed, "ratio": ratio},
    )


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
