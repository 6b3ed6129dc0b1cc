import numpy as np
import pytest

from fedfa.optim import Sgd


def test_plain_step():
    params = {"w": np.array([1.0, 2.0])}
    Sgd(params, lr=0.1).step({"w": np.array([0.5, -1.0])})
    assert np.allclose(params["w"], [0.95, 2.1])


def test_step_rebinds_instead_of_writing():
    # the dict may start with the broadcast model's arrays: they stay as sent
    w = np.array([1.0, 2.0])
    params = {"w": w}
    Sgd(params, lr=0.1).step({"w": np.array([1.0, 1.0])})
    assert np.array_equal(w, [1.0, 2.0])
    assert params["w"] is not w


def test_proximal_pull_toward_anchor():
    anchor = {"w": np.array([0.0])}
    params = {"w": np.array([2.0])}
    Sgd(params, lr=0.5, prox_mu=1.0, anchor=anchor).step({"w": np.array([0.0])})
    # gradient is mu * (w - anchor) = 2, step 0.5 * 2 = 1
    assert np.allclose(params["w"], [1.0])


def test_zero_prox_is_bit_identical_to_plain():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(5)
    g = {"w": rng.standard_normal(5)}
    a, b = {"w": w0}, {"w": w0}
    Sgd(a, lr=0.37).step(g)
    Sgd(b, lr=0.37, prox_mu=0.0, anchor={"w": np.zeros(5)}).step(g)
    assert np.array_equal(a["w"], b["w"])


def test_prox_requires_anchor():
    with pytest.raises(ValueError, match="anchor"):
        Sgd({"w": np.array([1.0])}, lr=0.1, prox_mu=0.5)
