"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive records its output as a node holding parent links and a
closure computing parent gradients; the graph is rebuilt on every forward
pass, so episode structure can vary freely between steps. Node ids are
assigned from a monotone counter, which makes creation order a valid
topological order: every consumer has a larger id than what it consumes.
`backward` keeps the nodes holding a pending gradient on a heap and pops
the largest id, so it visits each node that receives a gradient once,
after all of that node's consumers, and accumulates into parameter leaves.

All data is float64. Any primitive producing a NaN or Inf raises
NumericsError immediately rather than letting poison propagate. The check
sums the entries first: NaN and +-Inf always carry through a sum, so a
finite sum proves every entry finite. Only a sum that is not finite (which
finite entries reach by overflowing) falls back to testing each entry.
"""

from __future__ import annotations

import heapq
import itertools
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_NODE_IDS = itertools.count()
_GRAD_ENABLED = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation/rollout path)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A float64 array plus its position in the current tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        arr = np.asarray(data, dtype=np.float64)
        if (not math.isfinite(arr if arr.ndim == 0 else np.add.reduce(arr, None))
                and not np.isfinite(arr).all()):
            raise NumericsError("tensor holds NaN/Inf values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._nid = next(_NODE_IDS)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Same buffer, no graph membership."""
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data, rng: np.random.Generator | None = None, scale_: float | None = None) -> Tensor:
    """Create a trainable leaf, optionally filled from `rng.normal(0, scale_)`."""
    if rng is not None:
        data = rng.normal(0.0, scale_ if scale_ is not None else 1.0, size=data)
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(data)


def _node(data, parents, backward_fn) -> Tensor:
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, parents, backward_fn)
    return Tensor(data)


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dtheta into `.grad` of every reachable parameter leaf.

    Deterministic for a fixed graph; calling it twice without zeroing
    doubles every gradient (accumulation contract).
    """
    if loss.ndim != 0:
        raise ContractError("backward() needs a scalar loss")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any parameter")

    # node id -> (node, gradient summed so far); the heap holds negated ids
    pending: dict[int, tuple[Tensor, np.ndarray]] = {loss._nid: (loss, np.asarray(1.0))}
    heap = [-loss._nid]
    while heap:
        node, g = pending.pop(-heapq.heappop(heap))
        if node._backward is None:
            if not np.isfinite(g).all():
                raise NumericsError("non-finite gradient reached a parameter")
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            nid = p._nid
            if nid in pending:
                pending[nid] = (p, pending[nid][1] + pg)
            else:
                pending[nid] = (p, pg)
                heapq.heappush(heap, -nid)


# ---------------------------------------------------------------------------
# Elementwise and reduction primitives
# ---------------------------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum. `b` may also have the shape of the trailing axes of
    `a` (a row, or a 0-d scalar): it is added to every such block of `a`,
    and its gradient sums over those blocks."""
    if a.shape == b.shape:
        return _node(a.data + b.data, (a, b), lambda g: (g, g))
    if b.ndim >= a.ndim or a.shape[a.ndim - b.ndim:] != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _node(a.data + b.data, (a, b),
                 lambda g: (g, g.reshape(-1, *b.shape).sum(axis=0)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    return _node(a.data * c, (a,), lambda g: (g * c,))


def shift(a: Tensor, c: float) -> Tensor:
    return _node(a.data + c, (a,), lambda g: (g,))


def vsum(a: Tensor) -> Tensor:
    return _node(a.data.sum(), (a,), lambda g: (np.full_like(a.data, float(g)),))


def vmean(a: Tensor, axis: int | None = None) -> Tensor:
    """Mean of all entries, or over one `axis`; the gradient spreads evenly."""
    n = a.data.size if axis is None else a.shape[axis]
    if n == 0:
        raise ShapeError("mean of empty tensor")
    if axis is None:
        return _node(a.data.sum() / n, (a,),
                     lambda g: (np.full_like(a.data, float(g) / n),))
    return _node(a.data.sum(axis=axis) / n, (a,),
                 lambda g: (np.repeat(np.expand_dims(g / n, axis), n, axis),))


def dot(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 1 or b.ndim != 1:
        raise ShapeError("dot: both operands must be 1-D")
    _same_shape(a, b, "dot")
    return _node(a.data @ b.data, (a, b), lambda g: (float(g) * b.data, float(g) * a.data))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a: Tensor) -> Tensor:
    out = np.logaddexp(0.0, a.data)
    return _node(out, (a,), lambda g: (g * _stable_sigmoid(a.data),))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------


def _swap(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes. Axes of `a` before those are
    batch axes; `b` either has the same ones or is one 2-D matrix shared by
    the whole batch, whose gradient then sums over it. As numpy's `@` does,
    a 2-D `a` also takes a 1-D `b` (a matrix-vector product) and a 1-D `a`
    a 2-D `b` (a vector-matrix product)."""
    an, bn = a.data.ndim, b.data.ndim
    if (an < 1 or bn < 1 or (an == 1 and bn != 2) or (bn == 1 and an != 2)
            or a.shape[-1] != b.shape[-min(bn, 2)]
            or (bn > 2 and b.shape[:-2] != a.shape[:-2])):
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")

    def back(g):
        if bn == 1:
            return np.outer(g, b.data), a.data.T @ g
        if bn > 2:
            return g @ _swap(b.data), _swap(a.data) @ g
        return (g @ b.data.T,
                a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

    return _node(a.data @ b.data, (a, b), back)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError("transpose: expected at least 2-D")
    return _node(_swap(a.data), (a,), lambda g: (_swap(g),))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Same entries, in the same order, under a new shape; `a` itself when
    the shape is its own."""
    if math.prod(shape) != a.data.size or min(shape, default=0) < 0:
        raise ShapeError(f"reshape: {a.shape} to {shape}")
    if tuple(shape) == a.shape:
        return a
    return _node(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def stack(parts: list[Tensor]) -> Tensor:
    """Stack tensors of one shape along a new first axis (scalars into a
    1-D vector)."""
    if not parts or any(p.shape != parts[0].shape for p in parts):
        raise ShapeError("stack: expected tensors of one shape")
    data = np.array([p.data for p in parts])
    return _node(data, tuple(parts), lambda g: tuple(np.asarray(gi) for gi in g))


def embed(x: Tensor, ids) -> Tensor:
    """Take rows `ids` along axis 0 of `x` (entries, when `x` is 1-D);
    the gradient scatter-adds back, so duplicate ids accumulate."""
    if x.ndim < 1:
        raise ShapeError("embed: expected at least one axis")
    idx = np.asarray(ids, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError("embed: index out of range")

    def back(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _node(x.data[idx], (x,), back)


# ---------------------------------------------------------------------------
# Normalization primitives
# ---------------------------------------------------------------------------


def _rows(x: Tensor, op: str) -> int:
    """Length of the last axis, along which the normalization ops work on
    each row of `x` independently."""
    shape = x.data.shape
    if not shape or not shape[-1]:
        raise ShapeError(f"{op}: expected at least one axis, the last non-empty, got {shape}")
    return shape[-1]


def softmax(x: Tensor) -> Tensor:
    """Probabilities over the last axis; max-subtracted for stability."""
    _rows(x, "softmax")
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return _node(p, (x,), lambda g: (p * (g - (p * g).sum(axis=-1, keepdims=True)),))


def log_softmax(x: Tensor) -> Tensor:
    """Log-probabilities over the last axis."""
    _rows(x, "log_softmax")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    p = np.exp(out)
    return _node(out, (x,), lambda g: (g - p * g.sum(axis=-1, keepdims=True),))


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """gain * (x - mean) / sqrt(pop_var + 1e-5) + bias over the last axis;
    every row shares `gain` and `bias`, whose gradients sum over the rows."""
    n = _rows(x, "layer_norm")
    if n < 2 or gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: rows {x.shape}, gain {gain.shape}, bias {bias.shape}")
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((centered ** 2).sum(axis=-1, keepdims=True) / n + LAYER_NORM_EPS)
    xhat = centered * inv

    def back(g):
        h = g * gain.data
        gx = (h - h.sum(axis=-1, keepdims=True) / n
              - xhat * ((h * xhat).sum(axis=-1, keepdims=True) / n)) * inv
        return gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)

    return _node(gain.data * xhat + bias.data, (x, gain, bias), back)
