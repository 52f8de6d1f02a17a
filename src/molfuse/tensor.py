"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model equation in the package is composed from the operations defined
here.  A tensor's ``values`` never change in place: to change them, reassign
``values`` (``adam_step`` and ``load_into`` do; see Conventions).  Each
operation eagerly computes its value and, when gradients are enabled and an
input requires them, records a node holding its backward rule (see Saved
arrays).  ``backward`` replays the recorded nodes in reverse topological
order (see :class:`Tape`).

Conventions:

* float64 everywhere, and one rule for every tensor's values: they never
  change in place; to change them, reassign ``values``.  A tensor's
  ``values`` is a finite, read-only array that no one else holds (an
  in-place write raises ``ValueError``), set together with ``Tensor._max``,
  a bound on its ``max|entry|``.

  - Assigning ``values`` is the one path for ``Tensor(...)``,
    ``constant``, ``parameter``, ``adam_step``, ``load_into`` and callers.
    It stores a fresh float64 copy after the exact check
    (``_checked_norm``): the root of the sum of squares, one ``vdot``
    (``_norm``), is the bound.  NaN and +-inf propagate into it, so a
    finite sum proves every entry finite; one that overflows (entries
    beyond about 1e154) falls back to the elementwise ``isfinite`` test
    and leaves an inf bound, so the next op checks its output.  A
    non-finite array raises :class:`~molfuse.errors.NumericError`, and the
    tensor keeps its old values.
  - An op result is proven finite from its inputs' bounds B, at O(1) cost
    and without reading it.  Each op bounds its result by: ``add``
    B(a)+B(b); ``mul`` B(a)·B(b); ``scale`` |f|·B(a); ``matmul`` K·B(a)·B(b)
    for inner size K; ``gather_rows``, ``leaky_relu`` and ``gelu`` B(a);
    ``elu`` B(a)+1; ``sum_all`` size·B(a); ``segment_sum`` rows·B(a);
    ``softmax`` and ``segment_softmax`` 1 (the inputs are finite, so each
    shifted entry is at most 0, or -inf where the subtraction overflows;
    each exponential is then in [0, 1], and the row's or segment's own
    maximum adds exp(0) = 1 to its denominator); ``cross_entropy``
    2·B+log C+1 for C classes; ``layer_norm`` √d·B(gain)+B(bias) for
    last-axis size d, as a finite row variance bounds each normalized entry
    by √d (it reads the variance when 4·d·B(a)² exceeds the limit: one that
    overflows would collapse the row to the bias).
  - One rule keeps finite inputs from warning: an op whose arithmetic may
    overflow, because its bound exceeds the limit (for the softmax ops and
    ``cross_entropy``, B(a); for ``layer_norm``'s moments, 4·d·B(a)²),
    computes quietly, ignoring overflow and invalid results: ``add``,
    ``mul``, ``scale``, ``matmul`` and ``sum_all`` through ``_quiet``, one
    comparison below the limit, and the longer ops under ``_errstate``, a
    no-op ``with`` there.  ``_make`` then checks the result.
    ``backward``'s sweep also computes quietly, under one ``np.errstate``:
    a gradient that overflows reaches its leaf as inf or NaN, and
    ``adam_step`` raises ``NumericError`` naming the parameter, before it
    changes any parameter or moment.
  - ``_make`` skips the output when the bound is at most ``_LIMIT`` (1e300).
    Otherwise it runs the exact check and keeps the ``_norm`` as the bound.
    Either way it stores the result as it is, without a copy.  Rounding in
    the bound arithmetic is a few ulps per op (K·eps for ``matmul``), far
    inside the factor of 1.8e8 between the limit and the largest double.
    So exactly the same arrays pass and fail as with an exact check of
    every result, and the error names the same op.
  - No bound is below ``_FLOOR`` (1.5e-154): ``_norm`` and ``_make`` raise
    a smaller one to it.  Its square exceeds the smallest normal double, so
    a sum of squares that underflows (entries below about 1e-162 give 0)
    still yields a bound, and a product of two bounds never falls into the
    subnormal range, where rounding keeps no relative precision.  Rounding
    of results below the floor is far smaller than the floor.
* Row gathers (the ``gather_rows`` forward, the ``segment_sum`` backward,
  and ``segment_softmax``'s gathers of per-segment maxima, denominators and
  backward dot products) use
  ``ndarray.take(ids, axis=0)``.  It gives the same result as ``x[ids]``;
  on a 2-vCPU x86_64 host it took 1.0 ms against 7.4 ms for 216k rows 4
  wide, and 5.5 us against 12.2 us for 400 rows 32 wide.
* Segment reductions (``segment_sum``, the ``segment_softmax``
  denominators and backward, the ``gather_rows`` backward) are one call of
  ``_segment_sum``, which passes the raw arrays of the 0/1 indicator
  ``S[id[j], j] = 1`` (``indptr = arange(rows + 1)``, unit data) to
  ``csc_matvecs`` from scipy's compiled ``scipy.sparse._sparsetools``, the
  kernel under a CSC matrix product, loaded by ``_scipy_extension`` (see
  Imports).  It adds each segment's rows one at a time in row order, as an
  unbuffered NumPy scatter-add does, so results are bit-identical to that
  scatter, signed zeros included.  The kernel trusts its ids and writes
  outside the output for a wrong one, so every index op passes it the
  private, range-checked ``intp`` copy that ``_ids`` returns; editing the
  caller's array after the forward changes nothing.  The module and the
  kernel are private to scipy: tier-1 known-answer tests of
  ``_segment_sum`` and ``erf`` name the scipy version if an upgrade
  renames, moves or changes either.  ``segment_softmax``'s per-segment
  maxima are one 1-D ``np.maximum.at`` per trailing column, into a
  (columns, segments) buffer; a maximum is exact in any visiting order.
* BLAS thread count: OpenBLAS splits a long enough reduction between its
  threads, which changes the summation order and so the last bits of the
  result.  ``matmul``'s weight gradient ``a.T @ g`` reduces over every row
  of ``a``: at 1 and 2 threads a 1,093-row product differed.  Its backward
  therefore adds ``_GRAD_BLOCK``-row block products in row order, each too
  short to be split; a product of 512 rows or fewer is a single block, and
  so the plain ``a.T @ g``.  The model's other products reduce over at most
  64 columns.  Training, like inference, is then byte-identical at any
  thread count; tier-1 compares runs at 1 and 2 threads in fresh processes.
* Gradient ownership: only leaves (tensors with no backward rule) get a
  ``grad``.  It is a private array that the caller may edit in place, and
  it accumulates out of place (``grad + g``) across ``backward`` calls.
  Interior gradients live in ``backward``'s sweep only, keyed by node, each
  freed once its node's rule has used it, so an interior ``grad`` stays
  ``None``.  A node's entry for an input that takes no gradient is
  ``None``, and ``backward`` skips that slot; ``add``, ``mul`` and
  ``matmul`` also return ``None`` there, so a product with a constant
  computes one side only.
* Saved arrays: a recorded op's node holds the op name, its rule and one
  entry per input (the input's node, the input itself when it is a leaf
  that requires gradients, or ``None``), and no tensor besides those
  leaves.  Its rule holds only the arrays, shapes and flags it reads: for
  example ``add`` and ``sum_all`` keep shapes, ``mul`` keeps ``b``'s values
  only when ``a`` needs a gradient (and the reverse), ``matmul`` likewise,
  ``layer_norm`` its gain, x̂ and ``inv_std``, ``elu`` its ``expm1``, ``gelu``
  its input and its normal CDF, ``softmax`` and ``segment_softmax`` their
  output array, and the index ops their checked ids.  An op builds these only
  when it is recorded (``_recording``), so the ``no_grad`` path does no
  extra work.  So an op result that no rule reads (a ``mul`` result read
  only by ``segment_sum``, or by a ``matmul`` with a constant) is freed as
  soon as the caller drops it, while the loss is still held; what the rules
  keep lives as long as the loss does, and ``backward`` may run again over
  the same graph while the root is held.  Since no array changes in place,
  a rule that keeps an input's array reads the values the forward used,
  whatever is later assigned to that input's ``values``.
* ``no_grad`` is a depth per thread and per async context, so one instance
  may be nested and shared by threads in any order.
* Subgradients at kinks (leaky_relu, elu) take the right-hand value, so
  the derivative at exactly 0 is the positive-side one.
* Index arguments (``gather_rows`` indices, segment ids, ``cross_entropy``
  labels) pass one check, ``_ids``, in this order: an integer dtype, else
  :class:`~molfuse.errors.DataError` (a float or boolean array is not
  truncated or read as 0/1; empty input of any dtype passes, since ``[]``
  is float64); 1-D, with one entry per row for segment ids and labels,
  else :class:`~molfuse.errors.ShapeError`; every id in [0, n) for the
  row, segment or class count n, else ``DataError``.  Each message starts
  with the argument's name.  A 0-d tensor, having no rows, a segment count
  below 0 and a ``softmax`` axis out of range, or either not an integer
  (``operator.index``, ``bool`` excluded), raise ``ShapeError`` first, and
  so does a segment count whose output numpy cannot hold (more than
  ``sys.maxsize`` bytes, zero dimensions left out, as numpy counts them).
* Imports: scipy is used for two compiled functions only, ``csc_matvecs``
  (segment sums) and ``erf`` (``gelu``).  ``_scipy_extension`` loads each
  one's extension file (``scipy.sparse._sparsetools``,
  ``scipy.special._special_ufuncs``) by path, without importing scipy's
  Python packages, which pull in ``numpy.testing``, ``numpy.f2py`` and
  more.  In a fresh interpreter on a 2-vCPU x86_64 host, importing this
  module took 0.27-0.45 s and 54.5 MB peak RSS with ``from scipy import
  sparse`` and ``scipy.special``, against 0.07-0.12 s and 28.4 MB this way
  (numpy alone: 26.8 MB).  A later ``import scipy.sparse`` or ``import
  scipy.special`` reuses the loaded modules, but the package then lacks
  the submodule as an attribute (``scipy.sparse._sparsetools`` raises
  ``AttributeError``), since the import system sets that only when it
  loads a submodule itself.  A missing scipy or extension file raises
  ``ImportError`` at import, naming the module and the directories
  searched.
* Memory: importing this module sets glibc's ``M_MMAP_THRESHOLD`` to 1 GiB
  and ``M_TRIM_THRESHOLD`` to 2**31 - 1 through ``mallopt``.  glibc gives
  each allocation above its mmap threshold, which adapts but is capped at
  32 MiB, a fresh ``mmap`` and unmaps it on free.  A 256-molecule batch
  builds several (pairs, 32) arrays of about 55 MB per forward, so every
  batch faulted them in again page by page: 14k-20k minor faults and
  100-143 ms of system time per screening forward of about 360 ms on a
  2-vCPU x86_64 host, against at most 861 faults and 8 ms with these
  settings.  With both, such arrays come from the heap and freed memory
  stays there for reuse; either one alone still faulted on every 64 MiB
  allocate/free cycle.  The effect is process-wide: after a large batch,
  freed memory stays mapped and RSS does not shrink until exit.  The
  settings override glibc's ``MALLOC_MMAP_THRESHOLD_`` and
  ``MALLOC_TRIM_THRESHOLD_`` environment variables.  A C library without
  ``mallopt`` (macOS, Windows) is left as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from contextvars import ContextVar
from typing import Callable, Iterable

import numpy as np

from .errors import DataError, NumericError, ShapeError

Array = np.ndarray
BackwardRule = Callable[[Array], tuple]

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Serve arrays up to 1 GiB from the heap and keep freed heap memory."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt; TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 1 << 30)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)


_keep_freed_memory()


def _scipy_extension(subpackage: str, name: str):
    """Load the compiled module ``scipy.<subpackage>.<name>`` by its file.

    ``find_spec`` locates scipy without running ``scipy/__init__``,
    ``PathFinder`` finds the file in the subpackage's directory, and the
    module is registered under its real dotted name, so a later ``import
    scipy.<subpackage>`` reuses it instead of loading the file again.
    """
    module_name = f"scipy.{subpackage}.{name}"
    if module_name in sys.modules:
        return sys.modules[module_name]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec is not None else ()
    directories = [os.path.join(root, subpackage) for root in roots]
    spec = importlib.machinery.PathFinder.find_spec(module_name, directories)
    if spec is None:
        searched = ", ".join(directories) if directories else "sys.path (no scipy package found)"
        raise ImportError(f"cannot load {module_name}: no compiled {name} module in {searched}", name=module_name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[module_name] = module
    return module


_csc_matvecs = _scipy_extension("sparse", "_sparsetools").csc_matvecs
erf = _scipy_extension("special", "_special_ufuncs").erf

_no_grad_depth: ContextVar[int] = ContextVar("molfuse_no_grad_depth", default=0)


class no_grad:
    """Context manager that disables recording of backward rules.

    Each entry adds one to a depth and each exit takes one away; ops record
    only at depth 0.  The depth is a context variable, so it covers the
    current thread or async task only, and one instance may be nested in
    itself or shared by threads that enter and exit in any order.
    """

    def __enter__(self):
        _no_grad_depth.set(_no_grad_depth.get() + 1)
        return self

    def __exit__(self, *exc):
        _no_grad_depth.set(_no_grad_depth.get() - 1)
        return False


_FLOOR = 1.5e-154  # the least bound; its square exceeds the smallest normal double


def _norm(arr: Array) -> float:
    """The root of ``arr``'s sum of squares, floored at ``_FLOOR``.

    It bounds ``max|entry|`` (to within rounding), and is NaN or inf when
    an entry is, or when the sum overflows.  The floor keeps it a bound when
    the squares underflow: a sum of squares below the smallest normal double
    leaves every entry below ``_FLOOR``.
    """
    r = math.sqrt(np.vdot(arr, arr))
    return _FLOOR if r < _FLOOR else r


def _all_finite(arr: Array) -> bool:
    """Whether every entry of a float64 array is finite (True when empty), by ``_checked_norm``'s test."""
    return math.isfinite(_norm(arr)) or bool(np.isfinite(arr).all())


def _checked_norm(arr: Array, what: str) -> float:
    """``_norm(arr)`` after the exact finiteness check, whose ``NumericError`` says ``what``."""
    bound = _norm(arr)
    if not math.isfinite(bound) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite values {what}")
    return bound


class Tensor:
    """A dense float64 array plus an optional gradient record.

    ``requires_grad`` marks leaves whose gradient should be accumulated;
    tensors produced by recorded operations on such leaves carry the flag
    implicitly and point at their op's private node (see Saved arrays in the
    module docstring), whose rule ``backward_rule`` reads.  The node holds
    no reference to the result itself, so a result that no rule reads is
    freed when its last reference goes.  :func:`backward` populates
    ``grad`` on leaves only; it accumulates additively until cleared and is
    its own writable array.  An interior tensor's ``grad`` stays ``None``.
    ``values`` is read-only; assigning it stores a checked copy (module
    docstring, Conventions).  ``a + b`` and ``a * b`` are :func:`add` and
    :func:`mul`; both operands must be tensors (wrap a number or array with
    :func:`constant`), and no other operator is defined.
    """

    __slots__ = ("_values", "requires_grad", "grad", "op", "_node", "_max")

    def __init__(self, values, requires_grad: bool = False):
        self.values = values
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.op: str | None = None
        self._node: _Node | None = None

    @property
    def values(self) -> Array:
        """The read-only array; assigning stores a checked float64 copy and its bound."""
        return self._values

    @values.setter
    def values(self, values) -> None:
        arr = np.array(values, dtype=np.float64)
        bound = _checked_norm(arr, "assigned to a tensor")
        arr.setflags(False)
        self._values, self._max = arr, bound

    @property
    def backward_rule(self) -> BackwardRule | None:
        """The recorded op's rule: upstream gradient -> one gradient (or ``None``) per input."""
        return None if self._node is None else self._node.backward_rule

    # ---- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._values.shape

    @property
    def ndim(self) -> int:
        return self._values.ndim

    @property
    def size(self) -> int:
        return self._values.size

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
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def __mul__(self, other):
        return mul(self, other) if isinstance(other, Tensor) else NotImplemented


def constant(values) -> Tensor:
    """A tensor that never receives gradients (masks, labels, lookups)."""
    return Tensor(values)


def parameter(values) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(values, requires_grad=True)


_FLOAT64 = np.dtype(np.float64)
_LIMIT = 1e300  # an op's bound at most this proves its result finite (module docstring)
_NO_ERRSTATE = contextlib.nullcontext()  # _errstate's no-op; it keeps no state, so one is shared


class _Node:
    """One recorded op: its name, its backward rule and one entry per input.

    An entry is the input's own node, the input itself when it is a leaf
    that requires gradients, or ``None`` when the input takes no gradient.
    The rule holds whatever arrays it reads (module docstring, Saved
    arrays); the node holds no tensor but those leaves.
    """

    __slots__ = ("op", "backward_rule", "inputs")

    def __init__(self, op: str, backward_rule: BackwardRule, inputs: tuple):
        self.op, self.backward_rule, self.inputs = op, backward_rule, inputs


def _recording(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` is recorded: gradients are on and one input requires them.

    Each op asks this before it builds its backward rule, so that the
    ``no_grad`` path builds nothing.
    """
    if _no_grad_depth.get():
        return False
    for x in inputs:
        if x.requires_grad:
            return True
    return False


def _make(values, op: str, inputs: tuple[Tensor, ...], backward_rule: BackwardRule | None, bound: float) -> Tensor:
    """Wrap an op result, recording a node when the op passes a backward rule.

    The op passes one only when :func:`_recording` holds for ``inputs``.
    The lean twin of assigning ``values``: the fresh result is made
    read-only, not copied.  ``bound``, the op's bound from its inputs'
    ``_max``, proves nothing above ``_LIMIT``; the result is then checked
    and bounded by its ``_norm``.  A bound below ``_FLOOR`` is raised to it.
    """
    if type(values) is not np.ndarray or values.dtype is not _FLOAT64:
        values = np.asarray(values, dtype=np.float64)
    if not bound <= _LIMIT:
        bound = _checked_norm(values, f"produced by {op}")
    elif bound < _FLOOR:
        bound = _FLOOR
    values.setflags(False)  # positional: the keyword form costs more than twice as much
    t = Tensor.__new__(Tensor)
    t._values, t.grad, t.op, t._max = values, None, op, bound
    if backward_rule is None:
        t.requires_grad, t._node = False, None
    else:
        entries = tuple(x._node or (x if x.requires_grad else None) for x in inputs)
        t.requires_grad, t._node = True, _Node(op, backward_rule, entries)
    return t


def _errstate(risky: bool):
    """``np.errstate`` ignoring overflow and invalid results if ``risky``, else a no-op (Conventions)."""
    return np.errstate(over="ignore", invalid="ignore") if risky else _NO_ERRSTATE


def _quiet(f: Callable, *args):
    """``f(*args)`` ignoring overflow and invalid results, for an op whose bound exceeds ``_LIMIT`` (Conventions)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return f(*args)


def _integer(value) -> int | None:
    """``operator.index(value)``, or ``None`` for a ``bool`` or a non-integer (Conventions)."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


# ---- tape and backward pass -------------------------------------------------


class Tape(list):
    """The recorded ancestry of a tensor: its op nodes in topological order.

    Every node's input nodes appear before it and the root's own node is
    last, so a single reverse sweep propagates gradients correctly and
    visits each recorded operation exactly once.  A node has ``op``,
    ``backward_rule`` and ``inputs`` (see :class:`_Node`); the tensors the
    ops returned are not listed, and may already be freed.
    """

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
        order: list[_Node] = []
        visited: set[_Node] = set()
        stack: list[tuple] = [(root._node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if type(node) is not _Node or node in visited:  # a leaf entry or None
                continue
            visited.add(node)
            stack.append((node, True))
            for inp in node.inputs:
                stack.append((inp, False))
        return cls(order)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf ancestor of a scalar loss.

    Gradients accumulate additively across multiple uses of a value inside
    one graph, and a leaf's ``grad`` also across repeated backward calls
    (clear with ``zero_grad`` between steps).  Interior gradients are local
    to the sweep.  The graph is left as it was, so ``backward`` may run
    again while ``loss`` is held.  A loss with no recorded op raises
    :class:`~molfuse.errors.DataError` unless it requires gradients itself
    (a parameter, which gets ``grad`` 1): one computed under ``no_grad`` or
    from constants only would otherwise train nothing.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        if not loss.requires_grad:
            raise DataError("backward needs a loss recorded from parameters, got one with no recorded op")
        _accumulate(loss, np.ones_like(loss.values))
        return
    # Interior gradients by node.  A rule returns an array in each slot
    # whose entry is not None, so each node has one before the sweep
    # reaches it.  The sweep computes quietly (Conventions).
    pending = {loss._node: np.ones_like(loss.values)}
    with np.errstate(over="ignore", invalid="ignore"):
        for node in reversed(Tape.trace(loss)):
            for entry, grad in zip(node.inputs, node.backward_rule(pending.pop(node))):
                if entry is None:
                    continue
                if type(entry) is _Node:
                    pending[entry] = pending[entry] + grad if entry in pending else grad
                else:
                    _accumulate(entry, grad)


def _accumulate(leaf: Tensor, grad: Array) -> None:
    """Add ``grad`` to a leaf's ``grad`` out of place, copying it on first write."""
    leaf.grad = np.array(grad, dtype=np.float64, copy=True) if leaf.grad is None else leaf.grad + grad


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


def _broadcast_error(op: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{op} operands do not broadcast: {a.shape} and {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    bound = a._max + b._max
    try:
        out = a.values + b.values if bound <= _LIMIT else _quiet(np.add, a.values, b.values)
    except ValueError:
        raise _broadcast_error("add", a, b) from None

    rule = None
    if _recording(a, b):
        a_shape = a.shape if a.requires_grad else None
        b_shape = b.shape if b.requires_grad else None

        def rule(g):
            return (
                None if a_shape is None else _unbroadcast(g, a_shape),
                None if b_shape is None else _unbroadcast(g, b_shape),
            )

    return _make(out, "add", (a, b), rule, bound)


def mul(a: Tensor, b: Tensor) -> Tensor:
    bound = a._max * b._max
    try:
        out = a.values * b.values if bound <= _LIMIT else _quiet(np.multiply, a.values, b.values)
    except ValueError:
        raise _broadcast_error("mul", a, b) from None

    rule = None
    if _recording(a, b):
        a_shape, b_shape = a.shape, b.shape
        b_values = b.values if a.requires_grad else None
        a_values = a.values if b.requires_grad else None

        def rule(g):
            return (
                None if b_values is None else _unbroadcast(g * b_values, a_shape),
                None if a_values is None else _unbroadcast(g * a_values, b_shape),
            )

    return _make(out, "mul", (a, b), rule, bound)


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)
    bound = abs(f) * a._max
    out = a.values * f if bound <= _LIMIT else _quiet(np.multiply, a.values, f)
    rule = (lambda g: (g * f,)) if _recording(a) else None
    return _make(out, "scale", (a,), rule, bound)


# ---- linear algebra -----------------------------------------------------------

# Rows per block of matmul's weight gradient.  OpenBLAS shares a reduction this
# short with no second thread, so a sum of block products in row order has one
# summation order at any thread count (module docstring).
_GRAD_BLOCK = 512


def _weight_grad(a: Array, g: Array) -> Array:
    """``a.T @ g`` as a sum of ``_GRAD_BLOCK``-row block products, in row order."""
    out = a[:_GRAD_BLOCK].T @ g[:_GRAD_BLOCK]
    for i in range(_GRAD_BLOCK, len(a), _GRAD_BLOCK):
        out += a[i : i + _GRAD_BLOCK].T @ g[i : i + _GRAD_BLOCK]
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    bound = a.shape[1] * a._max * b._max
    out = a.values @ b.values if bound <= _LIMIT else _quiet(np.matmul, a.values, b.values)

    rule = None
    if _recording(a, b):
        b_values = b.values if a.requires_grad else None
        a_values = a.values if b.requires_grad else None

        def rule(g):
            return (
                None if b_values is None else g @ b_values.T,
                None if a_values is None else _weight_grad(a_values, g),
            )

    return _make(out, "matmul", (a, b), rule, bound)


def _ids(values, name: str, count: int, rows: int | None = None) -> Array:
    """A private ``intp`` copy of ``values``, checked as an index array
    (module docstring): integer dtype, 1-D with ``rows`` entries when
    given, ids in [0, count).

    Read as unsigned (``uintp``), a negative id exceeds any count, so one
    ``max`` finds ids below 0 and at or above ``count`` alike.  The op and
    its backward rule read the copy, so a caller editing its own array
    cannot reach either.
    """
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise DataError(f"{name} must have an integer dtype, got {arr.dtype}")
    if arr.ndim != 1 or rows is not None and arr.shape[0] != rows:
        want = "1-D" if rows is None else f"1-D with {rows} entries"
        raise ShapeError(f"{name} must be {want}, got shape {arr.shape}")
    ids = arr.astype(np.intp)
    if ids.size and ids.view(np.uintp).max() >= count:
        raise DataError(f"{name} must lie in [0, {count})")
    return ids


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows by integer index; duplicates accumulate in the gradient."""
    if a.ndim == 0:
        raise ShapeError(f"gather_rows needs a tensor with rows, got shape {a.shape}")
    n = a.shape[0]
    idx = _ids(indices, "gather_rows indices", n)
    out = a.values.take(idx, axis=0)

    rule = (lambda g: (_segment_sum(idx, n, g),)) if _recording(a) else None
    return _make(out, "gather_rows", (a,), rule, a._max)


# ---- reductions ---------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    bound = a.size * a._max
    out = a.values.sum() if bound <= _LIMIT else _quiet(np.sum, a.values)
    rule = None
    if _recording(a):
        shape = a.shape

        def rule(g):
            return (np.broadcast_to(g, shape),)

    return _make(out, "sum_all", (a,), rule, bound)


# ---- nonlinearities -----------------------------------------------------------


def leaky_relu(a: Tensor) -> Tensor:
    """Leaky ReLU with negative slope 0.2, as in GAT attention scores."""
    slope = np.where(a.values >= 0, 1.0, 0.2)
    out = a.values * slope
    rule = (lambda g: (g * slope,)) if _recording(a) else None
    return _make(out, "leaky_relu", (a,), rule, a._max)


def elu(a: Tensor) -> Tensor:
    """Exponential linear unit with alpha 1."""
    expm1 = np.expm1(np.minimum(a.values, 0.0))
    out = np.where(a.values >= 0, a.values, expm1)
    # expm1 is +-0 where a >= 0, so expm1 + 1 is the derivative on both sides.
    rule = (lambda g: (g * (expm1 + 1.0),)) if _recording(a) else None
    return _make(out, "elu", (a,), rule, a._max + 1.0)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    cdf = 0.5 * (1.0 + erf(a.values * _INV_SQRT2))
    out = a.values * cdf

    rule = None
    if _recording(a):
        x = a.values

        def rule(g):
            # exp(-x²/2) underflows to exactly 0 from |x| = 40 on, so clipping there changes no
            # gradient and keeps x² from overflowing.
            c = np.minimum(np.abs(x), 40.0)
            pdf = _INV_SQRT_2PI * np.exp((-0.5 * c) * c)
            return (g * (cdf + x * pdf),)

    return _make(out, "gelu", (a,), rule, a._max)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along one axis; outputs sum to 1 along that axis."""
    ax = _integer(axis)
    if ax is None or not -a.ndim <= ax < a.ndim or a.shape[ax] == 0:
        raise ShapeError(f"softmax axis {axis!r} invalid for shape {a.shape}")
    with _errstate(a._max > _LIMIT):
        z = np.exp(a.values - a.values.max(axis=ax, keepdims=True))
    out = z / z.sum(axis=ax, keepdims=True)

    rule = (lambda g: (out * (g - (g * out).sum(axis=ax, keepdims=True)),)) if _recording(a) else None
    return _make(out, "softmax", (a,), rule, 1.0)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine.

    The variance is offset by 1e-5, so a zero-variance row collapses to the
    bias.  ``gain`` and ``bias`` must match the last-axis extent.
    """
    d = a.shape[-1] if a.ndim else 0
    if d == 0:
        raise ShapeError(f"layer_norm needs a nonempty last axis, got shape {a.shape}")
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    bound = math.sqrt(d) * gain._max + bias._max
    risky = 4.0 * d * a._max * a._max > _LIMIT  # the centered squares may overflow
    with _errstate(risky or bound > _LIMIT):
        # sum / d is what ndarray.mean computes, bit for bit, without its wrappers.
        mu = a.values.sum(axis=-1, keepdims=True) / d
        centered = a.values - mu
        var = (centered * centered).sum(axis=-1, keepdims=True) / d
        if risky and not math.isfinite(var.max()):  # an overflowing variance collapses its row to the bias
            raise NumericError("non-finite values produced by layer_norm")
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        xhat = centered * inv_std
        out = xhat * gain.values + bias.values

    rule = None
    if _recording(a, gain, bias):
        gain_values, reduce_axes = gain.values, tuple(range(a.ndim - 1))

        def rule(g):
            # Ba et al. (2016), from x̂ and 1/σ: (g_x̂ - mean(g_x̂) - x̂·mean(g_x̂·x̂)) / σ.
            g_xhat = g * gain_values
            g_a = g_xhat - g_xhat.sum(axis=-1, keepdims=True) / d
            g_a -= xhat * ((g_xhat * xhat).sum(axis=-1, keepdims=True) / d)
            g_a *= inv_std
            return g_a, (g * xhat).sum(axis=reduce_axes), g.sum(axis=reduce_axes)

    return _make(out, "layer_norm", (a, gain, bias), rule, bound)


# ---- segment operations (graph aggregation) -----------------------------------


def _checked_segments(segment_ids, shape: tuple[int, ...], num_segments) -> tuple[Array, int]:
    """Private ids, one per row of an array of ``shape`` and each in [0, count), and the count.

    The count sizes the array the summing kernel writes into, so anything
    but a non-negative integer, or a count whose output numpy cannot hold,
    raises ``ShapeError`` before the ids are read or anything is allocated.
    """
    count = _integer(num_segments)
    if count is None or count < 0:
        raise ShapeError(
            f"num_segments must be a non-negative integer, got {num_segments} ({type(num_segments).__name__})"
        )
    if not shape:
        raise ShapeError(f"segment ops need a tensor with rows, got shape {shape}")
    if count > shape[0]:  # only then can the output, count rows shaped like the input's, outgrow it
        width = math.prod(d for d in shape[1:] if d)  # numpy leaves zero dimensions out of its byte count
        if count * width * 8 > sys.maxsize:
            raise ShapeError(
                f"num_segments {count} is too large: numpy cannot hold {count} rows of {width} float64 values"
            )
    return _ids(segment_ids, "segment ids", count, shape[0]), count


def _segment_sum(ids: Array, num_segments: int, x: Array) -> Array:
    """Sum the rows of ``x`` by row id into ``(num_segments,) + x.shape[1:]``.

    One ``csc_matvecs`` product with the indicator whose column ``j`` holds
    a 1 in row ``ids[j]``; it visits columns in order, adding each segment's
    rows one at a time in row order as an unbuffered scatter-add does.
    ``ids`` must come from ``_ids`` with ``count=num_segments``: the kernel
    reads them unchecked.
    """
    rows, row_shape = ids.shape[0], x.shape[1:]
    width = math.prod(row_shape)
    out = np.zeros((num_segments,) + row_shape)
    indptr = np.arange(rows + 1, dtype=np.intp)
    ones = np.empty(rows)  # np.ones is a Python wrapper around these two calls
    ones.fill(1.0)
    # reshape to an explicit size raises, rather than letting the kernel
    # read past an input of the wrong shape.
    _csc_matvecs(num_segments, rows, width, indptr, ids, ones, x.reshape(rows * width), out.reshape(-1))
    return out


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets by first-axis segment id."""
    seg, num_segments = _checked_segments(segment_ids, a.shape, num_segments)
    out = _segment_sum(seg, num_segments, a.values)

    rule = (lambda g: (np.asarray(g).take(seg, axis=0),)) if _recording(a) else None
    return _make(out, "segment_sum", (a,), rule, a.shape[0] * a._max)


def segment_softmax(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over first-axis segments (graph-attention normalization).

    Rows sharing a segment id compete; each segment's outputs are
    nonnegative and sum to 1.  Stability comes from per-segment max
    subtraction.
    """
    seg, num_segments = _checked_segments(segment_ids, a.shape, num_segments)
    if a.shape[0] == 0:
        raise ShapeError("segment_softmax needs at least one row")
    # Per-segment maxima, one 1-D scatter per trailing column.
    columns = a.values.reshape(a.shape[0], -1).T
    col_max = np.full((columns.shape[0], num_segments), -np.inf)
    for col, col_seg_max in zip(columns, col_max):
        np.maximum.at(col_seg_max, seg, col)
    with _errstate(a._max > _LIMIT):
        out = a.values - col_max.T.take(seg, axis=0).reshape(a.shape)
    np.exp(out, out=out)
    out /= _segment_sum(seg, num_segments, out).take(seg, axis=0)

    rule = None
    if _recording(a):

        def rule(g):
            dot = _segment_sum(seg, num_segments, g * out)
            return (out * (g - dot.take(seg, axis=0)),)

    return _make(out, "segment_softmax", (a,), rule, 1.0)


# ---- losses -------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax probability of the true class.

    ``labels`` is a 1-D integer array with values in [0, num_classes).
    Computed with a fused log-softmax for stability.
    """
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy needs 2-D logits, got shape {logits.shape}")
    n, c = logits.shape
    y = _ids(labels, "cross_entropy labels", c, n)
    if n == 0:
        raise ShapeError("cross_entropy needs at least one row")
    with _errstate(logits._max > _LIMIT):
        row_max = logits.values.max(axis=1, keepdims=True)
        z = np.exp(logits.values - row_max)
        totals = z.sum(axis=1, keepdims=True)
        lse = np.log(totals) + row_max
        out = (lse[:, 0] - logits.values[np.arange(n), y]).mean()

    rule = None
    if _recording(logits):

        def rule(g):
            probs = z / totals
            probs[np.arange(n), y] -= 1.0
            return (np.asarray(g) * probs / n,)

    return _make(out, "cross_entropy", (logits,), rule, 2.0 * logits._max + math.log(c) + 1.0)

