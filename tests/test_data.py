import numpy as np
import pytest

from fedfa.config import DatasetConfig
import tracemalloc

from fedfa import data
from fedfa.data import (TaskSpec, dirichlet_partition, make_base_sampler,
                        make_feature_shift, partition_dataset, size_skew,
                        _largest_remainder)
from fedfa.experiment import build_dataset
from fedfa.rng import stream

import reference_kernels

SPEC = TaskSpec(classes=4, image_size=6, channels=2, noise=0.2)


def _pool(n=400, seed=0):
    base = make_base_sampler(SPEC, seed)
    return base(n, stream(seed, "data", 99))


def _labels(n=400, seed=0):
    return make_base_sampler(SPEC, seed).labels(n, stream(seed, "data", 99))


def _client_labels(part, y):
    return [y[rows] for rows in part.rows]


# --------------------------------------------------------------- base task

def test_base_sampler_shapes_and_labels():
    x, y = _pool(50)
    assert x.shape == (50, 2, 6, 6)
    assert y.shape == (50,)
    assert y.min() >= 0 and y.max() < SPEC.classes


def test_base_sampler_deterministic():
    x1, y1 = _pool(20, seed=5)
    x2, y2 = _pool(20, seed=5)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


@pytest.mark.parametrize("spec", [
    TaskSpec(), SPEC, TaskSpec(classes=2, image_size=1, channels=1),
    TaskSpec(classes=10, image_size=16, channels=4),
    TaskSpec(classes=8, image_size=5, channels=3),
], ids=["default", "small", "1x1", "16x16", "5x5"])
def test_class_templates_equal_the_per_channel_draws(spec):
    for seed in range(6):
        got = data.class_templates(spec, stream(seed, "data", 0))
        want = reference_kernels.class_templates(spec, stream(seed, "data", 0))
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_base_sampler_class_separation():
    # same class twice is closer than two different classes, on average
    base = make_base_sampler(TaskSpec(noise=0.05), 0)
    x, y = base(300, stream(0, "data", 99))
    within, across = [], []
    for k in range(6):
        xk = x[y == k]
        if xk.shape[0] >= 2:
            within.append(np.linalg.norm(xk[0] - xk[1]))
    for k in range(5):
        a, b = x[y == k], x[y == k + 1]
        if a.shape[0] and b.shape[0]:
            across.append(np.linalg.norm(a[0] - b[0]))
    assert np.mean(within) < np.mean(across)


# ----------------------------------------------------------- feature shift

def test_feature_shift_zero_strength_identity():
    base = make_base_sampler(SPEC, 0)
    ds = make_feature_shift(base, m=3, shift_strength=0.0, seed=0,
                            train_per_client=10, test_per_client=4)
    for i, c in enumerate(ds.clients):
        # the unshifted fill from the client's streams
        x, y = base(14, stream(0, "data", i + 1))
        assert np.array_equal(np.concatenate((c.x_train, c.x_test)), x)
        assert np.array_equal(np.concatenate((c.y_train, c.y_test)), y)


def test_feature_shift_deterministic():
    base = make_base_sampler(SPEC, 3)
    a = make_feature_shift(base, 3, 0.5, seed=9, train_per_client=8, test_per_client=4)
    b = make_feature_shift(base, 3, 0.5, seed=9, train_per_client=8, test_per_client=4)
    for ca, cb in zip(a.clients, b.clients):
        assert np.array_equal(ca.x_train, cb.x_train)
        assert np.array_equal(ca.y_test, cb.y_test)


def test_feature_shift_clients_differ():
    base = make_base_sampler(TaskSpec(), 0)
    ds = make_feature_shift(base, m=4, shift_strength=1.0, seed=0,
                            train_per_client=64, test_per_client=16)
    means = np.array([c.x_train.mean(axis=(0, 2, 3)) for c in ds.clients])
    gaps = [np.abs(means[i] - means[j]).max()
            for i in range(4) for j in range(i + 1, 4)]
    assert min(gaps) > 0.1


def test_feature_shift_sizes_and_classes():
    base = make_base_sampler(SPEC, 1)
    ds = make_feature_shift(base, m=2, shift_strength=0.3, seed=1,
                            train_per_client=12, test_per_client=5)
    assert ds.classes == 4
    for c in ds.clients:
        assert c.x_train.shape[0] == 12
        assert c.x_test.shape[0] == 5


def test_feature_shift_validation():
    base = make_base_sampler(SPEC, 0)
    with pytest.raises(ValueError, match="2 clients"):
        make_feature_shift(base, 1, 0.5, seed=0)
    with pytest.raises(ValueError, match="nonnegative"):
        make_feature_shift(base, 2, -0.5, seed=0)


# --------------------------------------------------------------- dirichlet

def test_dirichlet_partition_covers_pool():
    y = _labels(400)
    part = dirichlet_partition(y, m=5, concentration=0.5, seed=0,
                               classes=SPEC.classes)
    total = sum(rows.size for rows in part.rows)
    assert total == 400
    for rows, n_train in zip(part.rows, part.n_train):
        assert n_train >= 1 and rows.size - n_train >= 1


def test_dirichlet_skew_grows_as_concentration_shrinks():
    y = _labels(2000)
    uniform = np.full(SPEC.classes, 1.0 / SPEC.classes)

    def mean_tv(part):
        tv = []
        for labels in _client_labels(part, y):
            hist = np.bincount(labels, minlength=SPEC.classes) / labels.size
            tv.append(0.5 * np.abs(hist - uniform).sum())
        return np.mean(tv)

    sharp = mean_tv(dirichlet_partition(y, 10, concentration=0.3, seed=0,
                                        classes=SPEC.classes))
    flat = mean_tv(dirichlet_partition(y, 10, concentration=100.0, seed=0,
                                       classes=SPEC.classes))
    assert sharp > flat + 0.1


def test_dirichlet_partition_is_a_partition():
    y = _labels(300)
    part = dirichlet_partition(y, m=4, concentration=1.0, seed=2,
                               classes=SPEC.classes)
    rows = np.concatenate(part.rows)
    assert rows.shape[0] == 300
    assert np.array_equal(np.sort(rows), np.arange(300))


def test_dirichlet_validation():
    y = _labels(10)
    with pytest.raises(ValueError, match="positive"):
        dirichlet_partition(y, 2, concentration=0.0, seed=0, classes=SPEC.classes)
    with pytest.raises(ValueError, match="cannot cover"):
        dirichlet_partition(y[:3], 5, concentration=1.0, seed=0, classes=SPEC.classes)


# --------------------------------------------------------------- size skew

def test_size_skew_unit_ratio_balanced():
    part = size_skew(_labels(400), m=4, ratio=1.0, seed=0, classes=SPEC.classes)
    sizes = [rows.size for rows in part.rows]
    assert sum(sizes) == 400
    assert max(sizes) - min(sizes) <= 1


def test_size_skew_reference_sizes():
    part = size_skew(_labels(1000), m=4, ratio=8.0, seed=0, classes=SPEC.classes)
    assert [rows.size for rows in part.rows] == [67, 133, 267, 533]


def test_size_skew_ratio_respected():
    part = size_skew(_labels(600), m=3, ratio=4.0, seed=1, classes=SPEC.classes)
    sizes = [rows.size for rows in part.rows]
    assert max(sizes) / min(sizes) == pytest.approx(4.0, rel=0.1)


def test_size_skew_validation():
    y = _labels(40)
    with pytest.raises(ValueError, match=">= 1"):
        size_skew(y, 2, ratio=0.5, seed=0, classes=SPEC.classes)
    with pytest.raises(ValueError, match="smallest client"):
        size_skew(y, 4, ratio=1000.0, seed=0, classes=SPEC.classes)


# ------------------------------------------------------ in-place building

@pytest.mark.parametrize("total", [1, 7, 64, 1000])
def test_standard_normal_in_chunks_equals_one_draw(total):
    # the fill draws a pool's noise chunk by chunk into its rows
    want = np.random.default_rng(3).standard_normal(total)
    for step in (1, 5, 64, 333):
        rng = np.random.default_rng(3)
        got = np.empty(total)
        for start in range(0, total, step):
            rng.standard_normal(out=got[start:start + step])
        assert np.array_equal(got, want)


def test_sampler_is_template_plus_scaled_noise():
    base = make_base_sampler(SPEC, 4)
    x, y = base(50, stream(4, "data", 99))
    rng = stream(4, "data", 99)
    labels = rng.integers(0, SPEC.classes, size=50)
    want = base.templates[labels] + SPEC.noise * rng.standard_normal(x.shape)
    assert np.array_equal(y, labels)
    assert np.array_equal(x, want)


@pytest.mark.parametrize("kind", ["dirichlet", "size_skew"])
@pytest.mark.parametrize("chunk_bytes", [1, 3 * 2 * 6 * 6 * 8, data.FILL_CHUNK_BYTES])
def test_partition_dataset_equals_pool_then_copy(kind, chunk_bytes, monkeypatch):
    # chunks of one row, of three rows (a short last chunk) and the default
    monkeypatch.setattr(data, "FILL_CHUNK_BYTES", chunk_bytes)
    base = make_base_sampler(SPEC, 6)
    x, y = base(301, stream(6, "data", 99))
    if kind == "dirichlet":
        part = dirichlet_partition(y, 4, concentration=0.5, seed=6,
                                   classes=SPEC.classes)
    else:
        part = size_skew(y, 4, ratio=3.0, seed=6, classes=SPEC.classes)
    rng = stream(6, "data", 99)
    assert np.array_equal(base.labels(301, rng), y)
    ds = partition_dataset(base, y, part, rng)
    assert ds.classes == part.classes
    for c, rows, n_train in zip(ds.clients, part.rows, part.n_train):
        assert np.array_equal(c.x_train, x[rows[:n_train]])
        assert np.array_equal(c.x_test, x[rows[n_train:]])
        assert np.array_equal(c.y_train, y[rows[:n_train]])
        assert np.array_equal(c.y_test, y[rows[n_train:]])


def test_partition_dataset_rejects_another_pool():
    y = _labels(40)
    part = size_skew(y[:30], 2, ratio=1.0, seed=0, classes=SPEC.classes)
    with pytest.raises(ValueError, match="30 rows of a 40-row pool"):
        partition_dataset(make_base_sampler(SPEC, 0), y, part, stream(0, "data", 99))


@pytest.mark.parametrize("kind", ["feature_shift", "dirichlet", "size_skew"])
def test_build_dataset_peak_memory_is_its_data_plus_one_chunk(kind):
    cfg = DatasetConfig(kind=kind, train_per_client=384, test_per_client=128)
    tracemalloc.start()
    try:
        ds = build_dataset(cfg, 8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data_bytes = sum(c.x_train.nbytes + c.x_test.nbytes for c in ds.clients)
    # labels, row orders and templates: a few n-long integer arrays
    slack = 512 * 1024
    assert peak <= data_bytes + data.FILL_CHUNK_BYTES + slack


@pytest.mark.parametrize("kind", ["dirichlet", "size_skew"])
def test_partitions_keep_the_configured_class_count(kind):
    # at seed 1 the 8 samples of 2 clients hold no label 6 or 7: counted
    # from the labels, the task (and so the head) would have 6 classes
    cfg = DatasetConfig(kind=kind, classes=8, train_per_client=3,
                        test_per_client=1, size_ratio=1.0)
    ds = build_dataset(cfg, 2, seed=1)
    labels = np.concatenate([np.concatenate((c.y_train, c.y_test))
                             for c in ds.clients])
    assert labels.max() == 5
    assert ds.classes == 8


def test_largest_remainder_hand_cases():
    assert _largest_remainder(np.array([1.5, 1.5])) == [2, 1]
    assert _largest_remainder(np.array([0.4, 0.4, 0.2])) == [1, 0, 0]
    assert _largest_remainder(np.array([2.0, 3.0])) == [2, 3]
