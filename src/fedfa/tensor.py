"""Minimal reverse-mode autodiff on numpy arrays.

A Tensor wraps a float64 ndarray plus an optional gradient buffer. Ops build
an implicit DAG through parent links and per-node backward closures;
``Tensor.backward()`` runs the topological sweep. Only the handful of ops the
network needs are implemented: elementwise arithmetic with broadcasting (a
scalar operand goes on the right: ``t * 2``, not ``2 * t``), matmul,
reductions, reshape, relu and sqrt. Convolution, pooling, the linear head
and the loss live in ``layers`` as kernel pairs, which ``kernel_node``
wraps into one node each.

No command or run uses the graph: training and ``theory`` chain the kernel
pairs directly (``layers.net_backward``). The graph serves the gradient
checks and the tests' reference for that chain.
"""

from __future__ import annotations

import numpy as np

def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the autodiff graph. ``data`` is always float64."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # no zero fill, and data's memory layout rather than g's (which
            # g + 0.0 or g.copy() would keep): conv outputs are NHWC in
            # memory, and the layout sets the summation order of later
            # reductions over this gradient
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Backpropagate from this node. Scalar nodes default to seed 1."""
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar")
            seed = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(seed, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- elementwise arithmetic -------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other))

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.data + other.data, (self, other))

        def back(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        out._backward = back
        return out

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.data * other.data, (self, other))

        def back(g):
            self._accumulate(_unbroadcast(g * other.data, self.shape))
            other._accumulate(_unbroadcast(g * self.data, other.shape))

        out._backward = back
        return out

    def __sub__(self, other):
        other = self._lift(other)
        out = Tensor(self.data - other.data, (self, other))

        def back(g):
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(-g, other.shape))

        out._backward = back
        return out

    def __truediv__(self, other):
        other = self._lift(other)
        out = Tensor(self.data / other.data, (self, other))

        def back(g):
            self._accumulate(_unbroadcast(g / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-g * self.data / other.data**2, other.shape)
            )

        out._backward = back
        return out

    def __pow__(self, exponent: float):
        out = Tensor(self.data**exponent, (self,))

        def back(g):
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        out._backward = back
        return out

    # ---- unary -------------------------------------------------------------

    def sqrt(self):
        out = Tensor(np.sqrt(self.data), (self,))
        y = out.data  # not out: a closure holding out would be a cycle
        out._backward = lambda g: self._accumulate(g * 0.5 / y)
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))
        out._backward = lambda g: self._accumulate(g * (self.data > 0))
        return out

    # ---- shape and reductions ----------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = Tensor(self.data.reshape(shape), (self,))
        out._backward = lambda g: self._accumulate(g.reshape(self.shape))
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def back(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # a read-only view; _accumulate copies it into grad
            self._accumulate(np.broadcast_to(g, self.shape))

        out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else np.prod(
            [self.shape[a] for a in np.atleast_1d(axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(n))

    def matmul(self, other: "Tensor"):
        out = Tensor(self.data @ other.data, (self, other))

        def back(g):
            self._accumulate(g @ other.data.T)
            other._accumulate(self.data.T @ g)

        out._backward = back
        return out

    def __matmul__(self, other):
        return self.matmul(other)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


def kernel_node(data: np.ndarray, parents, grads) -> Tensor:
    """The node of a kernel pair: ``data`` is the forward kernel's output
    and ``grads(g)`` runs the backward kernel, returning one gradient per
    entry of ``parents``. A None parent is a constant; its gradient is
    ignored. The closure holds the parents, not the node, so it makes no
    reference cycle."""
    out = Tensor(data, tuple(p for p in parents if p is not None))

    def back(g):
        for p, gp in zip(parents, grads(g)):
            if p is not None:
                p._accumulate(gp)

    out._backward = back
    return out
