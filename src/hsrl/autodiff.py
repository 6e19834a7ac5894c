"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive records its output as a node holding parent links and a
closure computing parent gradients; the graph is rebuilt on every forward
pass, so episode structure can vary freely between steps. Node ids are
assigned from a monotone counter, which makes creation order a valid
topological order: every consumer has a larger id than what it consumes.
`backward` keeps the nodes holding a pending gradient on a heap and pops
the largest id, so it visits each node that receives a gradient once,
after all of that node's consumers, and accumulates into parameter leaves.

An `embed` of a parameter table with more rows than ids hands `backward`
its ids and gathered-row gradient instead of a dense table. When that one
embed's rows are all the table receives, `backward` densifies them at the
leaf and records the ids, as given, in `grad_rows`: the rows the gradient
can be nonzero on. Any merge is dense, and `grad_rows` is then `None`
(every row); `.grad` is byte-equal to the dense scatter (one `bincount`)
either way. Tensors keep no optimizer state: what the rows are used for is
`optim`'s choice. `matmul`, `mul` and `dot` skip gradients nothing requires.

All data is float64. A primitive producing a NaN or Inf raises
NumericsError at once rather than letting poison propagate. No node is
scanned: every graph is built, differentiated and stepped inside
`checked()` (`no_grad` is `checked()` plus the grad switch), which runs
with numpy's overflow, invalid and divide-by-zero errors raising
(underflow stays silent: masked attention scores underflow by design), and
IEEE 754 flags those at the operation that turns finite operands into a
NaN or Inf, `backward`'s products included. That holds given that every
tensor entering a block is finite, so data is scanned where it enters: each
`Tensor`, `parameter` and `constant`, and each gradient reaching a
parameter. NaN and +-Inf always carry through a sum, so a finite sum proves
every entry finite, and only a sum that is not finite (finite entries may
overflow it) falls back to testing each entry. Neither the optimizer nor
`checkpoint.load_into` writes a non-finite parameter; a NaN or Inf written
straight into `.data` is outside the contract (`tanh` and `sigmoid`
saturate an Inf), and so is a graph built outside a block.
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
def checked(what: str = "NaN/Inf in a tape op"):
    """Run the block, or each call it decorates, in the tape's error state
    (module docstring); the caller's state is restored on every exit."""
    try:
        with np.errstate(all="raise", under="ignore"):
            yield
    except FloatingPointError as exc:
        raise NumericsError(f"{what}: {exc}") from None


@contextmanager
def no_grad():
    """Disable graph recording inside a `checked()` block (eval, rollouts)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        with checked():
            yield
    finally:
        _GRAD_ENABLED = prev


def all_finite(arr: np.ndarray) -> bool:
    """No entry is NaN or +-Inf; one sum decides unless it is not finite."""
    return (math.isfinite(arr if arr.ndim == 0 else np.add.reduce(arr, None))
            or bool(np.isfinite(arr).all()))


class Tensor:
    """A float64 array plus its position in the current tape."""

    __slots__ = ("data", "requires_grad", "grad", "grad_rows", "_parents",
                 "_backward", "_nid")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None,
                 _scan: bool = True):
        arr = np.asarray(data, dtype=np.float64)
        if _scan and not all_finite(arr):
            raise NumericsError("tensor holds NaN/Inf values")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None
        self.grad_rows = None
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
        self.grad_rows = None

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
    if _GRAD_ENABLED:  # either way, `checked()`'s flags check the arithmetic
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, parents, backward_fn, _scan=False)
    return Tensor(data, _scan=False)


class Rows:
    """A leaf table's gradient from one `embed`: zero outside rows `ids`,
    which take `g`, the gradient of `table[ids]`. Adding anything to it,
    another `Rows` included, gives the dense sum."""

    __slots__ = ("shape", "ids", "g")
    __array_ufunc__ = None  # so `array + rows` calls `rows.__radd__`

    def __init__(self, shape: tuple[int, ...], ids: np.ndarray, g: np.ndarray):
        self.shape = shape
        self.ids = ids
        self.g = g

    def __add__(self, other):
        return self.dense() + other

    def __radd__(self, other):
        return other + self.dense()

    def dense(self) -> np.ndarray:
        """`np.add.at` of `g` into zeros, bit for bit: `bincount` also sums in order."""
        width = math.prod(self.shape[1:])
        cells = (self.ids.reshape(-1, 1) * width + np.arange(width)).ravel()
        out = np.bincount(cells, self.g.ravel(), math.prod(self.shape))
        return out.astype(np.float64, copy=False).reshape(self.shape)


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dtheta into `.grad` of every reachable parameter leaf,
    and record in `.grad_rows` the rows it can be nonzero on: the ids of the
    one `embed` that reached a leaf with no gradient yet, repeats and all,
    else `None` (all of them; see the module docstring).

    Deterministic for a fixed graph; calling it twice without zeroing
    doubles every gradient (accumulation contract).
    """
    if loss.ndim != 0:
        raise ContractError("backward() needs a scalar loss")
    if not loss.requires_grad:
        raise ContractError("loss is not connected to any parameter")

    # node id -> (node, gradient summed so far, an array or `Rows`); the
    # heap holds negated ids
    pending: dict[int, tuple[Tensor, object]] = {loss._nid: (loss, np.asarray(1.0))}
    heap = [-loss._nid]
    while heap:
        node, g = pending.pop(-heapq.heappop(heap))
        if node._backward is None:
            rows = None
            if type(g) is Rows:  # densified into a fresh array
                if node.grad is None:  # one embed's rows, all the leaf gets
                    rows = g.ids
                g = g.dense()
            elif node.grad is None:
                g = g.copy()  # a dense piece may be shared with other nodes
            if not all_finite(g if rows is None else g[rows]):
                raise NumericsError("non-finite gradient reached a parameter")
            node.grad = g if node.grad is None else node.grad + g
            node.grad_rows = rows
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
    return _node(a.data * b.data, (a, b), lambda g: (
        g * b.data if a.requires_grad else None, g * a.data if b.requires_grad else None))


def scale(a: Tensor, c: float) -> Tensor:
    return _node(a.data * c, (a,), lambda g: (g * c,))


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
    return _node(a.data @ b.data, (a, b), lambda g: (
        float(g) * b.data if a.requires_grad else None,
        float(g) * a.data if b.requires_grad else None))


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
        ga = gb = None
        if a.requires_grad:
            ga = np.outer(g, b.data) if bn == 1 else g @ _swap(b.data)
        if b.requires_grad:
            gb = (_swap(a.data) @ g if bn != 2
                  else a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        return ga, gb

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
    the gradient scatter-adds back, so duplicate ids accumulate.

    When `x` is a leaf with more rows than `ids`, the gradient goes back as
    `Rows` holding `ids` and `g`: dense on any merge, and densified at the
    leaf with its rows recorded when it arrives alone; otherwise it is the
    dense `zeros_like(x)` scatter."""
    if x.ndim < 1:
        raise ShapeError("embed: expected at least one axis")
    idx = np.asarray(ids)
    if idx.size and idx.dtype.kind not in "iu":  # a float or bool would truncate
        raise ContractError(f"embed: ids must be integers, got {idx.dtype}")
    idx = idx.astype(np.intp, copy=False)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise ContractError("embed: index out of range")
    if x._backward is None and x.shape[0] > idx.size:
        return _node(x.data[idx], (x,), lambda g: (Rows(x.shape, idx, g),))
    return _node(x.data[idx], (x,), lambda g: (Rows(x.shape, idx, g).dense(),))


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
    e = np.exp(x.data - np.maximum.reduce(x.data, -1, keepdims=True))
    p = e / np.add.reduce(e, -1, keepdims=True)
    return _node(p, (x,), lambda g: (p * (g - np.add.reduce(p * g, -1, keepdims=True)),))


def softmax_and_log(x: Tensor) -> tuple[Tensor, Tensor]:
    """`softmax(x)` and the log-probabilities over the last axis: two nodes
    from one max, exp and sum, each with the bits of its own formula. The
    log node's backward takes `exp` of its output only when it runs."""
    _rows(x, "softmax_and_log")
    shifted = x.data - np.maximum.reduce(x.data, -1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, -1, keepdims=True)
    p = e / total
    out = shifted - np.log(total)
    return (_node(p, (x,), lambda g: (p * (g - np.add.reduce(p * g, -1, keepdims=True)),)),
            _node(out, (x,),
                  lambda g: (g - np.exp(out) * np.add.reduce(g, -1, keepdims=True),)))


LAYER_NORM_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """gain * (x - mean) / sqrt(pop_var + 1e-5) + bias over the last axis;
    every row shares `gain` and `bias`, whose gradients sum over the rows."""
    n = _rows(x, "layer_norm")
    if n < 2 or gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(f"layer_norm: rows {x.shape}, gain {gain.shape}, bias {bias.shape}")
    centered = x.data - np.add.reduce(x.data, -1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, -1, keepdims=True) / n
                        + LAYER_NORM_EPS)
    xhat = centered * inv

    def back(g):
        h = g * gain.data
        gx = (h - np.add.reduce(h, -1, keepdims=True) / n
              - xhat * (np.add.reduce(h * xhat, -1, keepdims=True) / n)) * inv
        return gx, (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0)

    return _node(gain.data * xhat + bias.data, (x, gain, bias), back)
