"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError, _real
from .tensor import Tensor, _all_finite

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """The learning rate, per-parameter first/second moments and the step counter.

    ``learning_rate`` is the one option.  Each assignment of it, the
    constructor's included, reads it with ``_real``; a value that is not a
    finite real number >= 0 (a ``bool`` is not one) raises
    :class:`~molfuse.errors.ParameterError`, and the old rate stays.  Only
    :func:`adam_step` writes the other fields: finite moment arrays of their
    parameters' shapes, each replaced whole, and ``step_count``, the steps
    kept, so the first step uses t = 1.
    """

    learning_rate: float = 1e-4
    step_count: int = field(default=0, init=False)
    first_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict, init=False)

    def __setattr__(self, name, value):
        if name == "learning_rate":
            lr = _real(value)
            if lr is None or not 0.0 <= lr < math.inf:
                raise ParameterError(
                    f"Adam learning_rate must be finite and non-negative, got {value!r} ({type(value).__name__})"
                )
            value = lr
        object.__setattr__(self, name, value)


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update, reading gradients from ``param.grad``.

    Parameters without a populated gradient are skipped.  It first computes
    every new moment and value out of place, ignoring overflow and invalid
    results; a missing moment counts as a float64 0, so moments are float64
    whatever the gradient's dtype.  Then it requires all of them to be
    finite, which catches a non-finite gradient and a square that overflows
    (a gradient above about 1e154).  It reads the second moments and the
    values only: where a second moment is finite, a non-finite first moment
    makes its value non-finite (``0·inf`` is NaN, even at a zero
    ``learning_rate``).  Only then does it replace the moments, reassign the
    values and advance ``step_count``.  So the step is kept whole or not at
    all: a ``ShapeError`` or ``NumericError`` leaves ``state`` and every
    parameter as they were.
    """
    t = state.step_count + 1
    bias1, bias2 = 1.0 - BETA1**t, 1.0 - BETA2**t
    new = {}  # name -> (first moment, second moment, values)
    with np.errstate(over="ignore", invalid="ignore"):
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.values.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.values.shape} for {name!r}")
            m = BETA1 * state.first_moment.get(name, np.float64(0.0)) + (1.0 - BETA1) * g
            v = BETA2 * state.second_moment.get(name, np.float64(0.0)) + (1.0 - BETA2) * (g * g)
            new[name] = m, v, p.values - state.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + EPSILON)
    for name, (_, v, values) in new.items():
        if not (_all_finite(v) and _all_finite(values)):
            cause = "Adam update" if _all_finite(params[name].grad) else "gradient"
            raise NumericError(f"non-finite {cause} for parameter {name!r}; step aborted")
    for name, (m, v, values) in new.items():
        state.first_moment[name], state.second_moment[name] = m, v
        params[name].values = values
    state.step_count = t
