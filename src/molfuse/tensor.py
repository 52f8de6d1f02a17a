"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model equation in the package is composed from the operations defined
here.  Tensors are immutable after construction; each operation eagerly
computes its value and, when gradients are enabled and an input requires
them, records a backward rule.  ``backward`` replays the recorded operations
in reverse topological order (see :class:`Tape`).

Conventions:

* float64 everywhere; all stored values must be finite (a non-finite result
  raises :class:`~molfuse.errors.NumericError` at construction).  Every op
  checks its result, because ``Tensor.values`` may be reassigned from
  outside (optimizer steps, direct assignment) without a check.  The check
  (``_all_finite``) first takes the sum of squares with one ``vdot``: NaN
  and +-inf propagate into it, so a finite sum proves every entry finite.
  A sum that overflows (entries beyond about 1e154) falls back to the
  elementwise ``isfinite`` test, so exactly the same arrays pass and fail.
* Segment reductions (``segment_sum``, the ``segment_softmax``
  denominators and backward, the ``gather_rows`` backward) take one of two
  paths by input size.  Up to ``_BINCOUNT_MAX_ELEMENTS`` entries, one
  ``np.bincount`` over the flat slots ``id * width + column``; above it, a
  product with the sparse 0/1 indicator ``S[id[j], j] = 1`` in CSC form,
  built only there.  Both add each segment's rows one at a time in row
  order, the order of an unbuffered NumPy scatter-add, so results are
  bit-identical to that scatter and to each other, signed zeros included.
* Gradient ownership: a leaf's ``grad`` is a private array that the caller
  may edit in place.  Interior tensors keep the array their consumer's rule
  returned, which may be read-only or shared with other tensors; read them,
  never write them.  Accumulation is always out of place (``grad + g``).
* ``no_grad`` is per thread and per async context.
* Subgradients at kinks (leaky_relu, relu, elu, max) take the right-hand
  value, so the derivative at exactly 0 is the positive-side one.
* Stochastic ops take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
from scipy.special import erf

from .errors import DataError, NumericError, ParameterError, ShapeError

Array = np.ndarray
BackwardRule = Callable[[Array], tuple]

_grad_enabled: ContextVar[bool] = ContextVar("molfuse_grad_enabled", default=True)


class no_grad:
    """Context manager that disables recording of backward rules.

    The switch is a context variable, so it covers the current thread or
    async task only.
    """

    def __enter__(self):
        self._token = _grad_enabled.set(False)
        return self

    def __exit__(self, *exc):
        _grad_enabled.reset(self._token)
        return False


def _all_finite(arr: Array) -> bool:
    """Whether every entry of a float64 array is finite (True when empty).

    A finite ``vdot(arr, arr)`` proves it, since NaN and +-inf propagate
    into a sum of squares; an overflowing sum falls back to the exact test.
    """
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


class Tensor:
    """A dense float64 array plus an optional gradient record.

    ``requires_grad`` marks leaves whose gradient should be accumulated;
    tensors produced by operations on such leaves carry the flag implicitly.
    ``grad`` is populated by :func:`backward` and accumulates additively
    until cleared.  A leaf's ``grad`` is its own writable array; an interior
    tensor's ``grad`` may be a read-only view or shared with other tensors,
    so treat it as read-only.
    """

    __slots__ = ("values", "requires_grad", "grad", "op", "inputs", "backward_rule")

    def __init__(
        self,
        values,
        requires_grad: bool = False,
        op: str | None = None,
        inputs: tuple["Tensor", ...] = (),
        backward_rule: BackwardRule | None = None,
    ):
        arr = np.asarray(values, dtype=np.float64)
        if not _all_finite(arr):
            raise NumericError(f"non-finite values produced by {op or 'tensor construction'}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.op = op
        self.inputs = inputs
        self.backward_rule = backward_rule

    # ---- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag}, op={self.op!r})"

    # ---- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def constant(values) -> Tensor:
    """A tensor that never receives gradients (masks, labels, lookups)."""
    return Tensor(values)


def parameter(values) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(values, requires_grad=True)


def _make(values, op: str, inputs: tuple[Tensor, ...], backward_rule: BackwardRule) -> Tensor:
    """Wrap an op result, recording the backward rule only when needed."""
    if _grad_enabled.get() and any(t.requires_grad for t in inputs):
        return Tensor(values, requires_grad=True, op=op, inputs=inputs, backward_rule=backward_rule)
    return Tensor(values, op=op)


# ---- tape and backward pass -------------------------------------------------


class Tape:
    """The recorded ancestry of a tensor: its op outputs in topological order.

    Every tensor's recorded inputs appear before it, so a single reverse
    sweep propagates gradients correctly and visits each recorded operation
    exactly once.
    """

    def __init__(self, entries: list[Tensor]):
        self.entries = entries

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited or node.backward_rule is None:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for inp in node.inputs:
                stack.append((inp, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad ancestor of a scalar loss.

    Gradients accumulate additively, both across multiple uses of a value
    inside one graph and across repeated backward calls (clear with
    ``zero_grad`` between steps).
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = Tape.trace(loss)
    _accumulate(loss, np.ones_like(loss.values))
    for t in reversed(tape.entries):
        if t.grad is None:
            continue
        grads = t.backward_rule(t.grad)
        for tensor, grad in zip(t.inputs, grads):
            if grad is None or not tensor.requires_grad:
                continue
            _accumulate(tensor, grad)


def _accumulate(tensor: Tensor, grad: Array) -> None:
    """Add ``grad`` out of place; only leaves copy it on first write."""
    if tensor.grad is not None:
        tensor.grad = tensor.grad + grad
    elif tensor.backward_rule is None:
        tensor.grad = np.array(grad, dtype=np.float64, copy=True)
    else:
        tensor.grad = grad


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.zero_grad()


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---- elementwise arithmetic ---------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.values + b.values

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, "add", (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.values - b.values

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, "sub", (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.values * b.values

    def rule(g):
        return _unbroadcast(g * b.values, a.shape), _unbroadcast(g * a.values, b.shape)

    return _make(out, "mul", (a, b), rule)


def neg(a: Tensor) -> Tensor:
    return _make(-a.values, "neg", (a,), lambda g: (-g,))


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    return _make(a.values * f, "scale", (a,), lambda g: (g * f,))


# ---- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = a.values @ b.values

    def rule(g):
        return g @ b.values.T, a.values.T @ g

    return _make(out, "matmul", (a, b), rule)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")
    return _make(a.values.T, "transpose", (a,), lambda g: (g.T,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = a.values.reshape(shape)
    return _make(out, "reshape", (a,), lambda g: (g.reshape(a.shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat needs at least one tensor")
    arrays = [t.values for t in tensors]
    out = np.concatenate(arrays, axis=axis)
    sizes = [arr.shape[axis] for arr in arrays]
    offsets = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _make(out, "concat", tuple(tensors), rule)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """A contiguous slice of ``length`` entries along ``axis``."""
    extent = a.shape[axis]
    if start < 0 or length < 0 or start + length > extent:
        raise ShapeError(f"narrow [{start}:{start + length}] exceeds axis {axis} of {a.shape}")
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = a.values[index]

    def rule(g):
        full = np.zeros_like(a.values)
        full[index] = g
        return (full,)

    return _make(out, "narrow", (a,), rule)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by integer index; duplicates accumulate in the gradient."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows needs a 1-D index array")
    n = a.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise DataError(f"gather_rows index out of range [0, {n})")
    out = a.values[idx]

    def rule(g):
        return (_segment_summer(idx, n, a.shape[1:])(g),)

    return _make(out, "gather_rows", (a,), rule)


# ---- reductions ---------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = a.values.sum()
    return _make(out, "sum_all", (a,), lambda g: (np.broadcast_to(g, a.shape),))


def mean_all(a: Tensor) -> Tensor:
    n = a.size
    if n == 0:
        raise ShapeError("mean of an empty tensor")
    out = a.values.mean()
    return _make(out, "mean_all", (a,), lambda g: (np.broadcast_to(g / n, a.shape),))


def sum_axis(a: Tensor, axis: int) -> Tensor:
    out = a.values.sum(axis=axis, keepdims=True)
    return _make(out, "sum_axis", (a,), lambda g: (np.broadcast_to(g, a.shape),))


def mean_axis(a: Tensor, axis: int) -> Tensor:
    n = a.shape[axis]
    if n == 0:
        raise ShapeError(f"mean over empty axis {axis} of {a.shape}")
    out = a.values.mean(axis=axis, keepdims=True)
    return _make(out, "mean_axis", (a,), lambda g: (np.broadcast_to(g / n, a.shape),))


def max_axis(a: Tensor, axis: int) -> Tensor:
    """Maximum along an axis; ties route the gradient to the first maximum."""
    if a.shape[axis] == 0:
        raise ShapeError(f"max over empty axis {axis} of {a.shape}")
    out = a.values.max(axis=axis, keepdims=True)
    argmax = np.expand_dims(a.values.argmax(axis=axis), axis)

    def rule(g):
        full = np.zeros_like(a.values)
        np.put_along_axis(full, argmax, np.asarray(g), axis)
        return (full,)

    return _make(out, "max_axis", (a,), rule)


# ---- nonlinearities -----------------------------------------------------------


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    if not 0.0 < slope < 1.0:
        raise ParameterError(f"leaky_relu slope must lie in (0, 1), got {slope}")
    pos = a.values >= 0
    out = np.where(pos, a.values, slope * a.values)

    def rule(g):
        return (g * np.where(pos, 1.0, slope),)

    return _make(out, "leaky_relu", (a,), rule)


def relu(a: Tensor) -> Tensor:
    pos = a.values >= 0
    out = np.where(pos, a.values, 0.0)
    return _make(out, "relu", (a,), lambda g: (g * pos,))


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    pos = a.values >= 0
    expm1 = alpha * np.expm1(np.minimum(a.values, 0.0))
    out = np.where(pos, a.values, expm1)

    def rule(g):
        return (g * np.where(pos, 1.0, expm1 + alpha),)

    return _make(out, "elu", (a,), rule)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    cdf = 0.5 * (1.0 + erf(a.values * _INV_SQRT2))
    out = a.values * cdf

    def rule(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * a.values * a.values)
        return (g * (cdf + a.values * pdf),)

    return _make(out, "gelu", (a,), rule)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; outputs sum to 1 along that axis."""
    ax = axis if axis >= 0 else a.ndim + axis
    if ax < 0 or ax >= a.ndim or a.shape[ax] == 0:
        raise ShapeError(f"softmax axis {axis} invalid for shape {a.shape}")
    shifted = a.values - a.values.max(axis=ax, keepdims=True)
    z = np.exp(shifted)
    out = z / z.sum(axis=ax, keepdims=True)

    def rule(g):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - dot),)

    return _make(out, "softmax", (a,), rule)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    A zero-variance row collapses to the bias.  ``gain`` and ``bias`` must
    match the last-axis extent.
    """
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be positive, got {eps}")
    d = a.shape[-1] if a.ndim else 0
    if d == 0:
        raise ShapeError(f"layer_norm needs a nonempty last axis, got shape {a.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = a.values.mean(axis=-1, keepdims=True)
    centered = a.values - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gain.values + bias.values

    def rule(g):
        g_xhat = g * gain.values
        # Standard layer-norm backward, fused for one tape entry.
        g_var = (g_xhat * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv_std**3
        g_mu = -(g_xhat * inv_std).sum(axis=-1, keepdims=True) + g_var * (-2.0 / d) * centered.sum(
            axis=-1, keepdims=True
        )
        g_a = g_xhat * inv_std + g_var * (2.0 / d) * centered + g_mu / d
        reduce_axes = tuple(range(a.ndim - 1))
        g_gain = (g * xhat).sum(axis=reduce_axes) if reduce_axes else (g * xhat)
        g_bias = g.sum(axis=reduce_axes) if reduce_axes else g
        return g_a, g_gain, g_bias

    return _make(out, "layer_norm", (a, gain, bias), rule)


def dropout(a: Tensor, rate: float, mode: str, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: eval mode is the identity, train mode rescales survivors."""
    if not 0.0 <= rate < 1.0:
        raise ParameterError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ParameterError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval" or rate == 0.0:
        return a
    if rng is None:
        raise ParameterError("train-mode dropout needs an explicit rng")
    keep = rng.random(a.shape) >= rate
    factor = keep / (1.0 - rate)
    out = a.values * factor
    return _make(out, "dropout", (a,), lambda g: (g * factor,))


# ---- segment operations (graph aggregation) -----------------------------------


def _check_segments(seg: Array, length: int, num_segments: int) -> None:
    if seg.ndim != 1 or seg.shape[0] != length:
        raise ShapeError(f"segment ids must be 1-D of length {length}, got shape {seg.shape}")
    if length and (seg.min() < 0 or seg.max() >= num_segments):
        raise ShapeError(f"segment ids must lie in [0, {num_segments})")


# Segment sums over at most this many entries (rows x width) use bincount,
# which skips the ~20 us of building a sparse indicator; the CSC product
# repays that cost only on larger inputs (on a 2-core x86_64 host, bincount
# was still ahead at 6,400 entries and behind at 19,200).
_BINCOUNT_MAX_ELEMENTS = 4096


def _segment_slots(ids: Array, width: int) -> Array:
    """The flat slot ``ids[j] * width + c`` of every entry of a (rows, width) array."""
    return (ids[:, None] * width + np.arange(width)).reshape(-1)


def _segment_summer(
    ids: Array, num_segments: int, row_shape: tuple[int, ...], slots: Array | None = None
) -> Callable[[Array], Array]:
    """A function summing arrays of shape ``(len(ids),) + row_shape`` by row id.

    Its result has shape ``(num_segments,) + row_shape``.  Both paths add
    each segment's rows one at a time in row order, as an unbuffered
    scatter-add does: ``bincount`` walks its flat input in order, and CSC
    columns are visited in order.  ``slots`` may pass in the
    ``_segment_slots`` the caller already holds.
    """
    rows, width = ids.shape[0], math.prod(row_shape)
    out_shape = (num_segments,) + row_shape
    if rows * width <= _BINCOUNT_MAX_ELEMENTS:
        if slots is None:
            slots = _segment_slots(ids, width)
        size = num_segments * width
        return lambda x: np.bincount(slots, x.reshape(-1), size).reshape(out_shape)
    indicator = sparse.csc_array((np.ones(rows), ids, np.arange(rows + 1)), shape=(num_segments, rows))
    return lambda x: (indicator @ x.reshape(rows, width)).reshape(out_shape)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets by first-axis segment id."""
    seg = np.asarray(segment_ids, dtype=np.intp)
    _check_segments(seg, a.shape[0], num_segments)
    out = _segment_summer(seg, num_segments, a.shape[1:])(a.values)

    def rule(g):
        return (np.asarray(g)[seg],)

    return _make(out, "segment_sum", (a,), rule)


def segment_softmax(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over first-axis segments (graph-attention normalization).

    Rows sharing a segment id compete; each segment's outputs are
    nonnegative and sum to 1.  Stability comes from per-segment max
    subtraction.
    """
    seg = np.asarray(segment_ids, dtype=np.intp)
    _check_segments(seg, a.shape[0], num_segments)
    if a.shape[0] == 0:
        raise ShapeError("segment_softmax needs at least one row")
    # Per-segment max as one 1-D scatter over flat (segment, column) slots.
    slots = _segment_slots(seg, math.prod(a.shape[1:]))
    seg_max = np.full((num_segments,) + a.shape[1:], -np.inf)
    np.maximum.at(seg_max.reshape(-1), slots, a.values.reshape(-1))
    z = np.exp(a.values - seg_max[seg])
    sum_rows = _segment_summer(seg, num_segments, a.shape[1:], slots)
    out = z / sum_rows(z)[seg]

    def rule(g):
        dot = sum_rows(g * out)
        return (out * (g - dot[seg]),)

    return _make(out, "segment_softmax", (a,), rule)


# ---- losses -------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax probability of the true class.

    ``labels`` is a 1-D integer array with values in [0, num_classes).
    Computed with a fused log-softmax for stability.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-D logits, got shape {logits.shape}")
    y = np.asarray(labels, dtype=np.intp)
    n, c = logits.shape
    if y.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {y.shape}")
    if n == 0:
        raise ShapeError("cross_entropy needs at least one row")
    if y.min() < 0 or y.max() >= c:
        raise DataError(f"labels must lie in [0, {c})")
    shifted = logits.values - logits.values.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + logits.values.max(axis=1)
    out = float((lse - logits.values[np.arange(n), y]).mean())

    def rule(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), y] -= 1.0
        return (np.asarray(g) * probs / n,)

    return _make(out, "cross_entropy", (logits,), rule)


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared difference over all elements."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes disagree: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ShapeError("mse of empty tensors")
    diff = pred.values - target.values
    out = float((diff * diff).mean())
    n = pred.size

    def rule(g):
        base = np.asarray(g) * 2.0 * diff / n
        return base, -base

    return _make(out, "mse", (pred, target), rule)
