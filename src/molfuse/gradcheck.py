"""Central finite-difference verification of backward rules.

Every differentiable operation registers a small randomized case here;
``check_all_ops`` drives them and the CLI/test suites assert the results.
The same machinery checks whole models through ``max_relative_error``.

Kink conventions: cases for leaky_relu/relu/elu/max keep sample points away
from the kink by construction (margins far larger than the step), matching
the documented right-hand subgradient choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .rng import stream
from .tensor import Tensor, backward, zero_grads

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
_DENOM_FLOOR = 1e-6

# Each case returns (named params, loss builder).  The builder re-runs the
# forward pass from the current parameter values.
CaseBuilder = Callable[[np.random.Generator], tuple[dict[str, Tensor], Callable[[], Tensor]]]

OP_CASES: dict[str, CaseBuilder] = {}


def register(name: str):
    def deco(fn: CaseBuilder) -> CaseBuilder:
        OP_CASES[name] = fn
        return fn

    return deco


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def numeric_partial(make_loss: Callable[[], Tensor], param: Tensor, flat_index: int, h: float) -> float:
    """Central finite difference of the loss w.r.t. one parameter coordinate.

    ``flat_index`` counts in C order.  The coordinate is written through the
    array itself, so non-contiguous parameters (e.g. built from ``x.T``) are
    perturbed too.
    """
    values = param.values
    index = np.unravel_index(flat_index, values.shape)
    saved = values[index]
    values[index] = saved + h
    plus = make_loss().item()
    values[index] = saved - h
    minus = make_loss().item()
    values[index] = saved
    return (plus - minus) / (2.0 * h)


def max_relative_error(
    params: dict[str, Tensor],
    make_loss: Callable[[], Tensor],
    n_points: int = 10,
    h: float = DEFAULT_STEP,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare autodiff gradients against finite differences at random coordinates.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator so
    near-zero gradients are judged on an absolute scale.
    """
    rng = rng if rng is not None else stream(0, "gradcheck")
    ordered = list(params.items())
    zero_grads(p for _, p in ordered)
    backward(make_loss())
    analytic = {name: (p.grad if p.grad is not None else np.zeros_like(p.values)) for name, p in ordered}
    sizes = np.array([p.size for _, p in ordered])
    total = int(sizes.sum())
    picks = rng.integers(0, total, size=n_points)
    worst = 0.0
    for pick in picks:
        k = 0
        while pick >= sizes[k]:
            pick -= sizes[k]
            k += 1
        name, param = ordered[k]
        a = float(analytic[name].reshape(-1)[pick])
        n = numeric_partial(make_loss, param, int(pick), h)
        err = abs(a - n) / max(abs(a), abs(n), _DENOM_FLOOR)
        worst = max(worst, err)
    zero_grads(p for _, p in ordered)
    return worst


def check_case(name: str, n_points: int = 10, tol: float = DEFAULT_TOL, seed: int = 0) -> CheckResult:
    params, make_loss = OP_CASES[name](stream(seed, f"case:{name}"))
    err = max_relative_error(params, make_loss, n_points=n_points, rng=stream(seed, f"points:{name}"))
    return CheckResult(name, err, tol)


def check_all_ops(n_points: int = 10, tol: float = DEFAULT_TOL, seed: int = 0) -> list[CheckResult]:
    return [check_case(name, n_points=n_points, tol=tol, seed=seed) for name in sorted(OP_CASES)]


# ---- helpers for case construction -------------------------------------------


def _param(rng: np.random.Generator, *shape: int) -> Tensor:
    return T.parameter(rng.normal(size=shape))


def _away_from_zero(rng: np.random.Generator, *shape: int, margin: float = 0.1) -> Tensor:
    vals = rng.normal(size=shape)
    vals = np.sign(vals) * (np.abs(vals) + margin)
    return T.parameter(vals)


def _spread(rng: np.random.Generator, *shape: int, step: float = 0.1) -> Tensor:
    """Values with pairwise gaps >= step, so max/argmax never flips under FD."""
    n = int(np.prod(shape))
    vals = rng.permutation(n).astype(np.float64) * step
    return T.parameter(vals.reshape(shape))


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    return T.sum_all(T.mul(out, T.constant(weights)))


# ---- op cases -----------------------------------------------------------------


@register("add")
def _case_add(rng):
    a, b = _param(rng, 3, 4), _param(rng, 1, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a, "b": b}, lambda: _weighted_sum(T.add(a, b), w)


@register("sub")
def _case_sub(rng):
    a, b = _param(rng, 3, 4), _param(rng, 3, 1)
    w = rng.normal(size=(3, 4))
    return {"a": a, "b": b}, lambda: _weighted_sum(T.sub(a, b), w)


@register("mul")
def _case_mul(rng):
    a, b = _param(rng, 3, 4), _param(rng, 1, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a, "b": b}, lambda: _weighted_sum(T.mul(a, b), w)


@register("neg")
def _case_neg(rng):
    a = _param(rng, 2, 5)
    w = rng.normal(size=(2, 5))
    return {"a": a}, lambda: _weighted_sum(T.neg(a), w)


@register("scale")
def _case_scale(rng):
    a = _param(rng, 2, 5)
    w = rng.normal(size=(2, 5))
    return {"a": a}, lambda: _weighted_sum(T.scale(a, 1.7), w)


@register("matmul")
def _case_matmul(rng):
    a, b = _param(rng, 4, 5), _param(rng, 5, 3)
    w = rng.normal(size=(4, 3))
    return {"a": a, "b": b}, lambda: _weighted_sum(T.matmul(a, b), w)


@register("transpose")
def _case_transpose(rng):
    a = _param(rng, 3, 5)
    w = rng.normal(size=(5, 3))
    return {"a": a}, lambda: _weighted_sum(T.transpose(a), w)


@register("reshape")
def _case_reshape(rng):
    a = _param(rng, 3, 4)
    w = rng.normal(size=(2, 6))
    return {"a": a}, lambda: _weighted_sum(T.reshape(a, (2, 6)), w)


@register("concat")
def _case_concat(rng):
    a, b = _param(rng, 3, 2), _param(rng, 3, 4)
    w = rng.normal(size=(3, 6))
    return {"a": a, "b": b}, lambda: _weighted_sum(T.concat([a, b], axis=1), w)


@register("narrow")
def _case_narrow(rng):
    a = _param(rng, 5, 6)
    w = rng.normal(size=(5, 3))
    return {"a": a}, lambda: _weighted_sum(T.narrow(a, 1, 2, 3), w)


@register("gather_rows")
def _case_gather_rows(rng):
    a = _param(rng, 5, 3)
    idx = np.array([0, 2, 2, 4, 1])  # repeats exercise gradient accumulation
    w = rng.normal(size=(5, 3))
    return {"a": a}, lambda: _weighted_sum(T.gather_rows(a, idx), w)


@register("sum_all")
def _case_sum_all(rng):
    a = _param(rng, 3, 4)
    return {"a": a}, lambda: T.sum_all(a)


@register("mean_all")
def _case_mean_all(rng):
    a = _param(rng, 3, 4)
    return {"a": a}, lambda: T.mean_all(a)


@register("sum_axis")
def _case_sum_axis(rng):
    a = _param(rng, 3, 4)
    w = rng.normal(size=(1, 4))
    return {"a": a}, lambda: _weighted_sum(T.sum_axis(a, axis=0), w)


@register("mean_axis")
def _case_mean_axis(rng):
    a = _param(rng, 3, 4)
    w = rng.normal(size=(3, 1))
    return {"a": a}, lambda: _weighted_sum(T.mean_axis(a, axis=1), w)


@register("max_axis")
def _case_max_axis(rng):
    a = _spread(rng, 4, 5)
    w = rng.normal(size=(1, 5))
    return {"a": a}, lambda: _weighted_sum(T.max_axis(a, axis=0), w)


@register("leaky_relu")
def _case_leaky_relu(rng):
    a = _away_from_zero(rng, 3, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a}, lambda: _weighted_sum(T.leaky_relu(a, 0.2), w)


@register("relu")
def _case_relu(rng):
    a = _away_from_zero(rng, 3, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a}, lambda: _weighted_sum(T.relu(a), w)


@register("elu")
def _case_elu(rng):
    a = _away_from_zero(rng, 3, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a}, lambda: _weighted_sum(T.elu(a), w)


@register("gelu")
def _case_gelu(rng):
    a = _param(rng, 3, 4)
    w = rng.normal(size=(3, 4))
    return {"a": a}, lambda: _weighted_sum(T.gelu(a), w)


@register("softmax")
def _case_softmax(rng):
    a = _param(rng, 3, 5)
    w = rng.normal(size=(3, 5))
    return {"a": a}, lambda: _weighted_sum(T.softmax(a, axis=-1), w)


@register("layer_norm")
def _case_layer_norm(rng):
    a = _param(rng, 4, 6)
    gain = T.parameter(rng.normal(size=6) + 1.5)
    bias = _param(rng, 6)
    w = rng.normal(size=(4, 6))
    return {"a": a, "gain": gain, "bias": bias}, lambda: _weighted_sum(T.layer_norm(a, gain, bias), w)


@register("dropout")
def _case_dropout(rng):
    a = _param(rng, 4, 6)
    w = rng.normal(size=(4, 6))

    def make_loss():
        # Fresh stream per call: the mask is identical on every evaluation,
        # so finite differences see the same realized function.
        out = T.dropout(a, 0.4, "train", stream(123, "dropout-case"))
        return _weighted_sum(out, w)

    return {"a": a}, make_loss


@register("segment_sum")
def _case_segment_sum(rng):
    a = _param(rng, 6, 3)
    seg = np.array([0, 0, 1, 2, 2, 2])
    w = rng.normal(size=(3, 3))
    return {"a": a}, lambda: _weighted_sum(T.segment_sum(a, seg, 3), w)


@register("segment_softmax")
def _case_segment_softmax(rng):
    a = _param(rng, 7)
    seg = np.array([0, 0, 0, 1, 1, 2, 2])
    w = rng.normal(size=7)
    return {"a": a}, lambda: _weighted_sum(T.segment_softmax(a, seg, 3), w)


@register("cross_entropy")
def _case_cross_entropy(rng):
    logits = _param(rng, 5, 3)
    labels = np.array([0, 2, 1, 1, 0])
    return {"logits": logits}, lambda: T.cross_entropy(logits, labels)


@register("mse")
def _case_mse(rng):
    pred, target = _param(rng, 4, 2), _param(rng, 4, 2)
    return {"pred": pred, "target": target}, lambda: T.mse(pred, target)
