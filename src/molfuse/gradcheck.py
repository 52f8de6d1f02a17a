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

Sampler = Callable[[np.random.Generator, tuple[int, ...]], np.ndarray]


def numeric_partial(make_loss: Callable[[], Tensor], param: Tensor, flat_index: int) -> float:
    """Central finite difference (step ``STEP``) of the loss w.r.t. one coordinate.

    ``flat_index`` counts in C order.  The parameter's ``values`` are
    reassigned to a perturbed copy on each side, then, even if ``make_loss``
    raises, to the original.
    """
    values = param.values
    index = np.unravel_index(flat_index, values.shape)
    losses = []
    try:
        for moved in (values[index] + STEP, values[index] - STEP):
            perturbed = values.copy()
            perturbed[index] = moved
            param.values = perturbed
            losses.append(make_loss().item())
    finally:
        param.values = values
    return (losses[0] - losses[1]) / (2.0 * STEP)


def max_relative_error(
    params: dict[str, Tensor],
    make_loss: Callable[[], Tensor],
    n_points: int = 10,
    *,
    rng: np.random.Generator,
) -> float:
    """Compare autodiff gradients against finite differences at random coordinates.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator so
    near-zero gradients are judged on an absolute scale.
    """
    ordered = list(params.items())
    zero_grads(p for _, p in ordered)
    backward(make_loss())
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.values)) for name, p in ordered}
    sizes = [p.size for _, p in ordered]
    ends = np.cumsum(sizes)
    picks = rng.integers(0, int(ends[-1]), size=n_points)
    worst = 0.0
    for pick in picks:
        k = int(np.searchsorted(ends, pick, side="right"))
        pick -= ends[k] - sizes[k]
        name, param = ordered[k]
        a = float(analytic[name].reshape(-1)[pick])
        n = numeric_partial(make_loss, param, int(pick))
        err = abs(a - n) / max(abs(a), abs(n), _DENOM_FLOOR)
        worst = max(worst, err)
    zero_grads(p for _, p in ordered)
    return worst


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
