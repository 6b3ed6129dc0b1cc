import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedfa.augment import (FfaConfig, augment, draw_eps, ffa_transform, fuse,
                           modulate, noise_view, variant_variances)
from fedfa.stats import channel_stats
from fedfa.tensor import Tensor
from gradcheck import check_grads

SQRT5 = np.sqrt(5.0)


# ---------------------------------------------------------------- modulate

def test_modulate_two_channel_hand_case():
    # weights 1/2 and 3/4 renormalized to sum to 2
    assert np.allclose(modulate(np.array([1.0, 3.0])), [0.8, 1.2], atol=1e-12)


def test_modulate_zero_variance_channel_gets_zero():
    out = modulate(np.array([0.0, 3.0]))
    assert out[0] == 0.0
    assert out[1] == pytest.approx(2.0, abs=1e-12)


def test_modulate_equal_variances_uniform():
    for v in (0.3, 1.0, 42.0):
        assert np.allclose(modulate(np.full(7, v)), np.ones(7), atol=1e-12)


def test_modulate_all_zero_degenerates_to_uniform():
    assert np.array_equal(modulate(np.zeros(5)), np.ones(5))


def test_modulate_rejects_negative():
    with pytest.raises(ValueError, match="nonnegative"):
        modulate(np.array([0.5, -0.1]))


def test_modulate_order_preserving():
    v = np.array([0.1, 0.5, 2.0, 9.0])
    g = modulate(v)
    assert np.all(np.diff(g) > 0)


@settings(max_examples=80, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 512),
                  elements=st.floats(0, 1e6, allow_nan=False)))
def test_modulate_sums_to_channel_count(v):
    g = modulate(v)
    assert abs(g.sum() - v.size) < 1e-9
    assert np.all(g >= 0)


@pytest.mark.parametrize("c", [1, 2, 7, 8, 9, 64, 513])
def test_modulate_pair_is_each_row_bit_for_bit(c):
    # the [2,C] pair modulates along its last axis; a zero row stays uniform
    v = np.random.default_rng(c).uniform(0, 5, (2, c))
    for pair in (v, np.stack((v[0], np.zeros(c)))):
        got = modulate(pair)
        assert got.shape == (2, c)
        for row, want in zip(got, pair):
            assert np.array_equal(row, modulate(want))


# -------------------------------------------------------------------- fuse

def test_fuse_zero_gamma_is_identity():
    v = np.array([0.3, 0.7])
    assert np.array_equal(fuse(np.zeros(2), v), v)


def test_fuse_unit_gamma_doubles():
    v = np.array([0.3, 0.7])
    assert np.allclose(fuse(np.ones(2), v), 2 * v, atol=1e-15)


def test_fuse_hand_case():
    out = fuse(np.array([0.8, 1.2]), np.array([0.1, 0.2]))
    assert np.allclose(out, [0.18, 0.44], atol=1e-12)


def test_fuse_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        fuse(np.zeros(3), np.zeros(2))


# -------------------------------------------------------- variant budgets

FULL = FfaConfig(variant="full")
CLIENT = FfaConfig(variant="client")


def test_random_variant_constant_budget():
    fused = variant_variances(FfaConfig(variant="random", random_std=0.5),
                              np.array([[3.0, 9.0], [1.0, 1.0]]), None)
    assert np.array_equal(fused, np.full((2, 2), 0.25))


def test_client_variant_passthrough():
    bv = np.array([[0.1, 0.2], [0.3, 0.4]])
    fused = variant_variances(CLIENT, bv, None)
    assert np.array_equal(fused, bv)


def test_full_variant_zero_gamma_matches_client():
    bv = np.array([[0.1, 0.2], [0.3, 0.4]])
    zero = variant_variances(FULL, bv, np.zeros((2, 2)))
    client = variant_variances(CLIENT, bv, None)
    assert np.array_equal(zero, client)


def test_full_variant_missing_gamma_matches_client():
    bv = np.array([[0.5, 0.6], [0.7, 0.8]])
    fused = variant_variances(FULL, bv, None)
    assert np.array_equal(fused, bv)


def test_full_variant_rescales():
    bv = np.array([[0.1, 0.2], [0.1, 0.2]])
    gamma = np.array([[0.8, 1.2], [1.0, 1.0]])
    fused = variant_variances(FULL, bv, gamma)
    assert np.allclose(fused, [[0.18, 0.44], [0.2, 0.4]], atol=1e-12)


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        FfaConfig(variant="server")


def test_config_validation():
    with pytest.raises(ValueError, match="p must"):
        FfaConfig(p=1.5)
    with pytest.raises(ValueError, match="random_std"):
        FfaConfig(random_std=-0.1)


# --------------------------------------------------------------- transform

def test_transform_hand_case():
    # map with mu=4 sigma=sqrt(5); unit budgets and eps=1 shift both stats by 1
    x = Tensor(np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 2, 2))
    fused = np.ones((2, 1))
    one = np.ones((1, 1))
    out = ffa_transform(x, fused, one, one, eps_var=0.0)
    want = np.array([2 - 3 / SQRT5, 4 - 1 / SQRT5, 6 + 1 / SQRT5, 8 + 3 / SQRT5])
    assert np.allclose(out.data.reshape(-1), want, atol=1e-12)


def test_transform_zero_eps_is_identity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 3, 4, 4)))
    fused = rng.uniform(0, 2, (2, 3))
    zero = np.zeros((2, 3))
    out = ffa_transform(x, fused, zero, zero)
    assert np.allclose(out.data, x.data, atol=1e-12)


def test_transform_noise_view_hand_case():
    x = np.array([1.0, 3.0, 5.0, 7.0]).reshape(1, 1, 2, 2)
    fused = np.ones((2, 1))
    one = np.ones((1, 1))
    e = noise_view(x, fused, np.ones((2, 1, 1)), eps_var=0.0)
    want = np.array([1 - 3 / SQRT5, 1 - 1 / SQRT5, 1 + 1 / SQRT5, 1 + 3 / SQRT5])
    assert np.allclose(e.reshape(-1), want, atol=1e-12)
    out = ffa_transform(Tensor(x), fused, one, one, eps_var=0.0)
    assert np.allclose(x + e, out.data, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 4),
       st.booleans())
def test_additive_noise_identity(seed, b, c, per_sample):
    """The perturbation equals adding its noise view, elementwise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c, 3, 3)) * rng.uniform(0.5, 3)
    fused = rng.uniform(0, 4, (2, c))
    rows = b if per_sample else 1
    eps = rng.standard_normal((2, rows, c))
    x_hat, used = augment(Tensor(x), fused, FfaConfig(), rng, eps=eps)
    assert used is eps
    e = noise_view(x, fused, used)
    assert np.abs(x + e - x_hat.data).max() < 1e-9


def test_augment_gate_closed_paths():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((2, 2, 2, 2)))
    fused = np.ones((2, 2))
    out, used = augment(x, fused, FfaConfig(p=0.0), rng)
    assert out is x and used is None


def test_augment_p_one_always_fires():
    rng = np.random.default_rng(0)
    x = Tensor(np.random.default_rng(1).standard_normal((3, 2, 2, 2)))
    fused = np.ones((2, 2))
    for _ in range(20):
        out, used = augment(x, fused, FfaConfig(p=1.0), rng)
        assert used is not None
        assert used.shape == (2, 3, 2)


def test_augment_forced_eps_leaves_rng_alone():
    x = Tensor(np.random.default_rng(1).standard_normal((2, 2, 2, 2)))
    fused = np.ones((2, 2))
    eps = np.zeros((2, 2, 2))
    rng = np.random.default_rng(7)
    augment(x, fused, FfaConfig(), rng, eps=eps)
    assert rng.random() == np.random.default_rng(7).random()


def test_augment_gate_frequency():
    # deterministic seed, so this is a frozen regression value inside the
    # 3.5-sigma band for n=30000 Bernoulli(1/2) trials
    rng = np.random.default_rng(123)
    x = Tensor(np.ones((1, 1, 1, 1)))
    fused = np.ones((2, 1))
    cfg = FfaConfig(p=0.5)
    n = 30000
    fired = sum(
        augment(x, fused, cfg, rng)[1] is not None for _ in range(n))
    assert 0.4899 < fired / n < 0.5101


def test_eps_mean_is_centered():
    rng = np.random.default_rng(11)
    draws = np.array([draw_eps(rng, 4, 3)[0].mean() for _ in range(10000)])
    # each entry averages 12 unit normals; 4 SE band for the grand mean
    assert abs(draws.mean()) < 4 / np.sqrt(12 * 10000)


def test_eps_pair_is_two_consecutive_draws():
    eps = draw_eps(np.random.default_rng(4), 5, 3)
    rng = np.random.default_rng(4)
    assert eps.shape == (2, 5, 3)
    assert np.array_equal(eps[0], rng.standard_normal((5, 3)))
    assert np.array_equal(eps[1], rng.standard_normal((5, 3)))


def test_transform_gradients():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2, 3, 3, 3))
    r = rng.standard_normal((2, 3, 3, 3))
    fused = rng.uniform(0.1, 2, (2, 3))
    eps = rng.standard_normal((2, 2, 3))

    def build(xt):
        return (ffa_transform(xt, fused, *eps) * Tensor(r)).sum()

    worst = check_grads(build, [x], rel_tol=1e-4)
    assert worst < 1e-4


def test_batch_statistics_shift_as_requested():
    # after the transform the per-sample stats should equal mu + eps*S
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2, 5, 5))
    fused = np.array([[0.5, 2.0], [0.1, 0.3]])
    eps = rng.standard_normal((2, 4, 2))
    out, _ = augment(Tensor(x), fused, FfaConfig(eps_var=0.0), rng, eps=eps)
    want_mu, want_sigma = (channel_stats(x, eps_var=0.0)
                           + eps * np.sqrt(fused)[:, None, :])
    after_mu, after_sigma = channel_stats(out.data, eps_var=0.0)
    assert np.allclose(after_mu, want_mu, atol=1e-9)
    # new scale only matches when it stayed positive
    ok = want_sigma > 1e-6
    assert np.allclose(after_sigma[ok], want_sigma[ok], atol=1e-9)
