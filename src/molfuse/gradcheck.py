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
    """Compare autodiff gradients against finite differences at random coordinates and directions.

    ``n_points`` coordinates are picked over all parameters at once, so a
    small parameter may get none; each is checked by the central difference
    along its unit vector (step ``STEP``).  Then every parameter is also checked
    along one direction ``v ~ N(0, I)`` of its shape, drawn from ``rng``
    after the picks: ``vdot(grad, v)`` against the central difference along
    ``v`` (step ``_DIRECTION_STEP``).  Relative error uses
    max(|analytic|, |numeric|, 1e-6) as denominator so near-zero gradients
    are judged on an absolute scale; for a direction the 1e-6 is per unit
    of ``|v|`` (at least 1), as a derivative along ``v`` is ``|v|`` times
    the one along its unit vector.
    """
    ordered = list(params.items())
    zero_grads(p for _, p in ordered)
    backward(make_loss())
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.values)) for name, p in ordered}
    sizes = [p.size for _, p in ordered]
    ends = np.cumsum(sizes)
    picks = rng.integers(0, int(ends[-1]), size=n_points)
    compared = []  # (analytic, numeric, floor)
    for pick in picks:
        k = int(np.searchsorted(ends, pick, side="right"))
        pick -= ends[k] - sizes[k]
        name, param = ordered[k]
        unit = np.zeros(param.shape)
        unit[np.unravel_index(pick, param.shape)] = 1.0
        n = _directional(make_loss, param, unit, STEP)
        compared.append((float(analytic[name].reshape(-1)[pick]), n, _DENOM_FLOOR))
    for name, param in ordered:
        v = rng.normal(size=param.shape)
        n = _directional(make_loss, param, v, _DIRECTION_STEP)
        compared.append((float(np.vdot(analytic[name], v)), n, _DENOM_FLOOR * max(1.0, float(np.linalg.norm(v)))))
    zero_grads(p for _, p in ordered)
    return max((abs(a - n) / max(abs(a), abs(n), floor) for a, n, floor in compared), default=0.0)


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


def check_case(name: str, n_points: int = 10, seed: int = 0) -> float:
    """Worst relative gradient error of one op case at ``n_points`` coordinates."""
    op, shapes, sample = OP_CASES[name]
    rng = stream(seed, f"case:{name}")
    inputs = [T.parameter(sample(rng, shape)) for shape in shapes]
    weights = T.constant(rng.normal(size=op(*inputs).shape))
    return max_relative_error(
        {f"input{i}": x for i, x in enumerate(inputs)},
        lambda: T.sum_all(T.mul(op(*inputs), weights)),
        n_points=n_points,
        rng=stream(seed, f"points:{name}"),
    )
