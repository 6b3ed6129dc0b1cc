import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedfa.tensor import Tensor

from gradcheck import check_grads


def test_add_mul_chain_values():
    a = Tensor([1.0, 2.0, 3.0])
    b = Tensor([4.0, 5.0, 6.0])
    out = (a + b) * a
    assert np.allclose(out.data, [5.0, 14.0, 27.0])


def test_scalar_coercion_on_the_right():
    a = Tensor([2.0, 4.0])
    assert np.allclose((a + 1).data, [3.0, 5.0])
    assert np.allclose((a * 2).data, [4.0, 8.0])
    assert np.allclose((a - 1).data, [1.0, 3.0])
    assert np.allclose((a / 2).data, [1.0, 2.0])


def test_backward_simple_product():
    a = Tensor(3.0)
    b = Tensor(4.0)
    out = a * b
    out.backward()
    assert a.grad == pytest.approx(4.0)
    assert b.grad == pytest.approx(3.0)


def test_backward_diamond_reuse():
    # x feeds two paths; grads must accumulate, not overwrite
    x = Tensor(2.0)
    out = x * x + x
    out.backward()
    assert x.grad == pytest.approx(2 * 2.0 + 1.0)


def test_backward_nonscalar_needs_seed():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        (x * 2).backward()
    y = x * 2
    y.backward(np.array([1.0, 1.0]))
    assert np.allclose(x.grad, [2.0, 2.0])


def test_broadcast_backward_shapes():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal(4)

    def loss(ta, tb):
        return (ta * tb).sum()

    check_grads(loss, [a, b])


def test_broadcast_keepdims_column():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((3, 1))
    check_grads(lambda ta, tb: ((ta + tb) * (ta - tb)).sum(), [a, b])


@pytest.mark.parametrize("op", ["add", "mul", "sub", "div"])
def test_binary_op_grads(op):
    rng = np.random.default_rng(hash(op) % 2 ** 31)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3)) + 3.0  # keep divisors away from 0
    fns = {
        "add": lambda x, y: (x + y).sum(),
        "mul": lambda x, y: (x * y).sum(),
        "sub": lambda x, y: (x - y).sum(),
        "div": lambda x, y: (x / y).sum(),
    }
    check_grads(fns[op], [a, b])


@pytest.mark.parametrize("op", ["sqrt", "relu", "pow"])
def test_unary_op_grads(op):
    rng = np.random.default_rng(hash(op) % 2 ** 31)
    a = rng.uniform(0.5, 2.0, size=(2, 3))
    fns = {
        "sqrt": lambda x: x.sqrt().sum(),
        "relu": lambda x: x.relu().sum(),
        "pow": lambda x: (x ** 3).sum(),
    }
    check_grads(fns[op], [a])


def test_relu_zero_region():
    x = Tensor([-2.0, -0.5, 0.5, 2.0])
    out = x.relu()
    out.sum().backward()
    assert np.allclose(out.data, [0.0, 0.0, 0.5, 2.0])
    assert np.allclose(x.grad, [0.0, 0.0, 1.0, 1.0])


def test_sum_axis_keepdims():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 4))
    check_grads(lambda x: (x.sum(axis=(1, 2), keepdims=True) ** 2).sum(), [a])
    check_grads(lambda x: (x.sum(axis=0) ** 2).sum(), [a])


def test_mean_matches_manual():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 5))
    t = Tensor(a.copy())
    m = t.mean(axis=1, keepdims=True)
    assert np.allclose(m.data, a.mean(axis=1, keepdims=True))
    check_grads(lambda x: (x.mean(axis=(0, 1)) ** 2).sum(), [a])


def test_matmul_grads():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    check_grads(lambda x, y: (x @ y).sum(), [a, b])


def test_reshape_grads():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 6))
    check_grads(lambda x: (x.reshape(3, 4) ** 2).sum(), [a])


@pytest.mark.parametrize("data_nhwc", [True, False])
def test_first_gradient_takes_the_layout_of_data(data_nhwc):
    # later reductions over a gradient sum in its memory order, so the
    # buffer must follow data (conv outputs are NHWC in memory), not g
    rng = np.random.default_rng(40)
    nhwc = rng.standard_normal((2, 4, 4, 3)).transpose(0, 3, 1, 2)
    nchw = rng.standard_normal((2, 3, 4, 4))
    data, g = (nhwc, nchw) if data_nhwc else (nchw, nhwc)
    t = Tensor(data)
    t._accumulate(g)
    assert t.grad.strides == t.data.strides
    assert np.array_equal(t.grad, g)
    assert not np.shares_memory(t.grad, g)
    t._accumulate(g)
    assert np.array_equal(t.grad, 2 * g)


def test_first_gradient_turns_negative_zero_positive():
    # as a zero-filled buffer would: +0.0 + -0.0 is +0.0
    t = Tensor(np.ones(3))
    t._accumulate(np.array([-0.0, 0.0, -1.0]))
    assert not np.signbit(t.grad[:2]).any()


def test_float64_coercion():
    t = Tensor(np.array([1, 2, 3], dtype=np.int32))
    assert t.data.dtype == np.float64


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=8),
       st.lists(st.floats(-100, 100), min_size=1, max_size=8))
def test_add_matches_numpy(xs, ys):
    n = min(len(xs), len(ys))
    a, b = np.array(xs[:n]), np.array(ys[:n])
    assert np.array_equal((Tensor(a) + Tensor(b)).data, a + b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=10))
def test_sum_grad_is_ones(xs):
    t = Tensor(np.array(xs))
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones(len(xs)))
