import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfa.layers import EPS_VAR
from fedfa.stats import (MomentumStats, batch_variances, channel_stats,
                         momentum_update)


def _pair(mu, sigma):
    """A stacked (mean, std) array from its two halves."""
    return np.stack((np.asarray(mu, dtype=np.float64),
                     np.asarray(sigma, dtype=np.float64)))


def test_hand_case_1357():
    x = np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 2, 2)
    mu, sigma = channel_stats(x)
    assert mu.item() == 4.0
    assert sigma.item() == pytest.approx(np.sqrt(5.0 + EPS_VAR), abs=1e-12)


def test_constant_channel():
    x = np.full((2, 3, 4, 4), 3.0)
    mu, sigma = channel_stats(x)
    assert np.allclose(mu, 3.0)
    assert np.allclose(sigma, np.sqrt(1e-6))


def test_single_pixel():
    x = np.arange(6.0).reshape(2, 3, 1, 1)
    st_ = channel_stats(x)
    assert st_.shape == (2, 2, 3)
    assert np.array_equal(st_[0], x[:, :, 0, 0])
    assert np.array_equal(st_[1], np.full((2, 3), np.sqrt(EPS_VAR)))


def test_rank_check():
    with pytest.raises(ValueError, match="B,C,H,W"):
        channel_stats(np.zeros((3, 4, 4)))


def test_batch_variance_single_sample_is_zero():
    x = np.random.default_rng(0).standard_normal((1, 3, 4, 4))
    bv = batch_variances(channel_stats(x))
    assert np.array_equal(bv, np.zeros((2, 3)))


def test_batch_variance_identical_samples_zero():
    one = np.random.default_rng(1).standard_normal((1, 2, 3, 3))
    x = np.repeat(one, 4, axis=0)
    bv = batch_variances(channel_stats(x))
    assert bv.shape == (2, 2)
    assert np.allclose(bv, 0.0)


def test_batch_variance_hand_case():
    # two samples whose channel means are 1 and 3: biased variance 1.0
    x = np.stack([np.full((1, 2, 2), 1.0), np.full((1, 2, 2), 3.0)])
    bv = batch_variances(channel_stats(x))
    assert np.allclose(bv, [[1.0], [0.0]])


def test_momentum_fresh_init():
    ms = MomentumStats.fresh(5)
    assert np.array_equal(ms.mu_bar, np.zeros(5))
    assert np.array_equal(ms.sigma_bar, np.ones(5))
    assert ms.pair.shape == (2, 5)


def test_momentum_alpha_one_keeps_state():
    ms = MomentumStats(_pair([2.0], [3.0]))
    stats = _pair([[10.0]], [[10.0]])
    out = momentum_update(ms, stats, 1.0)
    assert np.array_equal(out.mu_bar, [2.0])
    assert np.array_equal(out.sigma_bar, [3.0])


def test_momentum_alpha_zero_takes_batch_mean():
    ms = MomentumStats.fresh(1)
    stats = _pair([[1.0], [3.0]], [[2.0], [4.0]])
    out = momentum_update(ms, stats, 0.0)
    assert np.array_equal(out.mu_bar, [2.0])
    assert np.array_equal(out.sigma_bar, [3.0])


def test_momentum_default_step_hand_case():
    ms = MomentumStats.fresh(1)
    stats = _pair([[1.0]], [[1.0]])
    out = momentum_update(ms, stats, 0.99)
    assert out.mu_bar.item() == pytest.approx(0.01, abs=1e-15)
    # sigma_bar starts at 1 and the batch mean is 1: stays put
    assert out.sigma_bar.item() == pytest.approx(1.0, abs=1e-15)


def test_momentum_is_pure():
    ms = MomentumStats.fresh(1)
    stats = _pair([[5.0]], [[5.0]])
    momentum_update(ms, stats, 0.99)
    assert np.array_equal(ms.mu_bar, [0.0])


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3).filter(lambda a: abs(a) > 1e-3), st.floats(-5, 5),
       st.integers(0, 2 ** 31 - 1))
def test_scale_equivariance(a, b, seed):
    x = np.random.default_rng(seed).standard_normal((2, 3, 4, 4))
    base_mu, base_sigma = channel_stats(x)
    mu, sigma = channel_stats(a * x + b)
    assert np.allclose(mu, a * base_mu + b, atol=1e-9)
    # the spatial variances, sigma**2 less EPS_VAR, scale by a**2
    assert np.allclose(sigma ** 2 - EPS_VAR, a ** 2 * (base_sigma ** 2 - EPS_VAR),
                       atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_batch_variance_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((5, 2, 3, 3))
    bv = batch_variances(channel_stats(x))
    shuffled = batch_variances(channel_stats(x[rng.permutation(5)]))
    assert np.allclose(bv, shuffled, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(0, 1), st.integers(0, 2 ** 31 - 1))
def test_momentum_contraction(alpha, seed):
    rng = np.random.default_rng(seed)
    ms = MomentumStats(rng.standard_normal((2, 3)))
    stats = rng.standard_normal((2, 4, 3))
    out = momentum_update(ms, stats, alpha)
    batch = stats.mean(axis=1)
    assert np.allclose(np.abs(out.pair - batch),
                       alpha * np.abs(ms.pair - batch), atol=1e-9)


@pytest.mark.parametrize("batch", [1, 2, 7, 32, 33, 128])
@pytest.mark.parametrize("channels", [1, 3, 16])
def test_batch_moments_bit_identical_to_numpy(batch, channels):
    rng = np.random.default_rng(batch * 100 + channels)
    stats = rng.standard_normal((2, batch, channels)) * rng.uniform(0.1, 100.0)
    assert np.array_equal(batch_variances(stats), stats.var(axis=1))
    ms = MomentumStats(rng.standard_normal((2, channels)))
    want = 0.9 * ms.pair + (1.0 - 0.9) * stats.mean(axis=1)
    assert np.array_equal(momentum_update(ms, stats, 0.9).pair, want)
