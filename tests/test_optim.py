import numpy as np
import pytest

from fedfa.optim import Sgd
from fedfa.tensor import Tensor


def make_param(value, grad):
    t = Tensor(np.array(value, dtype=float))
    t.grad = np.array(grad, dtype=float)
    return t


def test_plain_step():
    p = make_param([1.0, 2.0], [0.5, -1.0])
    Sgd({"w": p}, lr=0.1).step()
    assert np.allclose(p.data, [0.95, 2.1])


def test_skips_params_without_grad():
    p = Tensor(np.array([1.0]))
    Sgd({"w": p}, lr=0.1).step()
    assert np.array_equal(p.data, [1.0])


def test_proximal_pull_toward_anchor():
    anchor = {"w": np.array([0.0])}
    p = make_param([2.0], [0.0])
    Sgd({"w": p}, lr=0.5, prox_mu=1.0, anchor=anchor).step()
    # gradient is mu * (w - anchor) = 2, step 0.5 * 2 = 1
    assert np.allclose(p.data, [1.0])


def test_zero_prox_is_bit_identical_to_plain():
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(5)
    g = rng.standard_normal(5)
    a = make_param(w0, g)
    b = make_param(w0, g)
    Sgd({"w": a}, lr=0.37).step()
    Sgd({"w": b}, lr=0.37, prox_mu=0.0, anchor={"w": np.zeros(5)}).step()
    assert np.array_equal(a.data, b.data)


def test_prox_requires_anchor():
    p = make_param([1.0], [1.0])
    with pytest.raises(ValueError, match="anchor"):
        Sgd({"w": p}, lr=0.1, prox_mu=0.5)


def test_zero_grad_clears_all():
    p = make_param([1.0], [1.0])
    opt = Sgd({"w": p}, lr=0.1)
    opt.zero_grad()
    assert p.grad is None
