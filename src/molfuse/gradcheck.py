"""Central finite-difference verification of backward rules.

``OP_CASES`` holds one row per differentiable operation of
:mod:`molfuse.tensor`: the op, the shapes of its inputs and the sampler that
draws them.  ``check_case`` weights the op's output by random values, sums
it, and compares autodiff against finite differences through
``max_relative_error``, which also checks whole models.

Kink conventions: cases for leaky_relu/elu keep sample points away from the
kink by construction (margins far larger than the step), matching the
documented right-hand subgradient choice.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .rng import stream
from .tensor import Tensor, backward, zero_grads

STEP = 1e-5
_DENOM_FLOOR = 1e-6
# A direction moves every coordinate of a parameter at once, so at STEP its
# central difference crosses a kink of leaky_relu or elu far more often than a
# coordinate's does: the whole-model check of the benchmark (3 molecules)
# failed on 15 of 400 seeds at STEP and on none at this step.
_DIRECTION_STEP = 1e-6

Sampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


def _directional(make_loss: Callable[[], Tensor], param: Tensor, direction: np.ndarray, step: float) -> float:
    """Central finite difference of the loss along ``direction`` in one parameter.

    The parameter's ``values`` are reassigned to ``values ± step·direction``
    in turn, then, even if ``make_loss`` raises, to the original.
    """
    values = param.values
    losses = []
    try:
        for moved in (values + step * direction, values - step * direction):
            param.values = moved
            losses.append(make_loss().item())
    finally:
        param.values = values
    return (losses[0] - losses[1]) / (2.0 * step)


def max_relative_error(
    params: dict[str, Tensor],
    make_loss: Callable[[], Tensor],
    n_points: int = 10,
    *,
    rng: np.random.Generator,
) -> float:
    """Compare autodiff gradients against finite differences along directions.

    Each check is one direction ``v`` in one parameter: ``vdot(grad, v)`` (0
    for a parameter without a gradient) against the central difference of
    the loss along ``v``.  The ``n_points`` picks come first: entries drawn
    from ``rng`` over all parameters at once (a small parameter may get
    none), each its unit vector at step ``STEP``.  Then every parameter gets
    one ``v ~ N(0, I)`` of its shape, drawn after the picks, at step
    ``_DIRECTION_STEP``.  There is one relative error, |analytic - numeric|
    / max(|analytic|, |numeric|, 1e-6 · max(1, |v|)): a near-zero derivative
    is judged on an absolute scale, per unit of ``|v|``.  The largest is
    returned, 0.0 with nothing to check; a non-finite comparison makes it
    NaN, so every ``err < tol`` fails.
    """
    ordered = list(params.values())
    zero_grads(ordered)
    backward(make_loss())
    sizes = [p.size for p in ordered]
    ends = np.cumsum(sizes)
    checks = []  # (parameter, direction, step)
    for pick in rng.integers(0, ends[-1], size=n_points) if sum(sizes) else ():
        k = int(np.searchsorted(ends, pick, side="right"))
        unit = np.zeros(ordered[k].shape)
        unit.flat[pick - ends[k] + sizes[k]] = 1.0
        checks.append((ordered[k], unit, STEP))
    checks += [(p, rng.normal(size=p.shape), _DIRECTION_STEP) for p in ordered]
    errors = [0.0]
    for param, v, step in checks:
        a = 0.0 if param.grad is None else float(np.vdot(param.grad, v))
        n = _directional(make_loss, param, v, step)
        errors.append(abs(a - n) / max(abs(a), abs(n), _DENOM_FLOOR * max(1.0, float(np.linalg.norm(v)))))
    zero_grads(ordered)
    return float(np.max(errors))


# ---- samplers: (rng, shape) -> input values ------------------------------------


def _normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=shape)


def _away_from_zero(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    vals = rng.normal(size=shape)
    return np.sign(vals) * (np.abs(vals) + 0.1)


# ---- op cases: name -> (op, input shapes, sampler) ------------------------------

OP_CASES: dict[str, tuple[Callable[..., Tensor], tuple[tuple[int, ...], ...], Sampler]] = {
    "add": (T.add, ((3, 4), (4,)), _normal),
    "mul": (T.mul, ((3, 4), (1, 4)), _normal),
    "scale": (lambda a: T.scale(a, 1.7), ((2, 5),), _normal),
    "matmul": (T.matmul, ((4, 5), (5, 3)), _normal),
    # Repeated indices exercise gradient accumulation.
    "gather_rows": (lambda a: T.gather_rows(a, [0, 2, 2, 4, 1]), ((5, 3),), _normal),
    "sum_all": (T.sum_all, ((3, 4),), _normal),
    "leaky_relu": (T.leaky_relu, ((3, 4),), _away_from_zero),
    "elu": (T.elu, ((3, 4),), _away_from_zero),
    "gelu": (T.gelu, ((3, 4),), _normal),
    "softmax": (T.softmax, ((3, 5),), _normal),
    # The shift keeps the gain away from zero.
    "layer_norm": (lambda a, g, b: T.layer_norm(a, g + T.constant(1.5), b), ((4, 6), (6,), (6,)), _normal),
    "segment_sum": (lambda a: T.segment_sum(a, [0, 0, 1, 2, 2, 2], 3), ((6, 3),), _normal),
    "segment_softmax": (lambda a: T.segment_softmax(a, [0, 0, 0, 1, 1, 2, 2], 3), ((7,),), _normal),
    "cross_entropy": (lambda logits: T.cross_entropy(logits, [0, 2, 1, 1, 0]), ((5, 3),), _normal),
}


def check_case(name: str, seed: int = 0) -> float:
    """Worst relative gradient error of one op case, at 10 picked entries and one direction per input."""
    op, shapes, sample = OP_CASES[name]
    rng = stream(seed, f"case:{name}")
    inputs = [T.parameter(sample(rng, shape)) for shape in shapes]
    weights = T.constant(rng.normal(size=op(*inputs).shape))
    return max_relative_error(
        {f"input{i}": x for i, x in enumerate(inputs)},
        lambda: T.sum_all(T.mul(op(*inputs), weights)),
        rng=stream(seed, f"points:{name}"),
    )
