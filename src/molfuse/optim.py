"""Adam optimizer over named parameter collections."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ParameterError, ShapeError
from .tensor import Tensor, _all_finite

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter.

    Invariants: learning_rate is finite and >= 0; moment arrays match their
    parameter shapes.  The decay rates and epsilon are the module constants
    ``BETA1``, ``BETA2`` and ``EPSILON``.
    ``step_count`` increments before bias correction, so the first step
    uses t = 1.
    """

    learning_rate: float = 1e-4
    step_count: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ParameterError(f"Adam learning_rate must be finite and non-negative, got {self.learning_rate}")


def adam_step(params: dict[str, Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update, reading gradients from ``param.grad``.

    Parameters without a populated gradient are skipped.  A non-finite
    gradient aborts the step before any parameter is touched.
    """
    live = {name: p for name, p in params.items() if p.grad is not None}
    for name, p in live.items():
        if p.grad.shape != p.values.shape:
            raise ShapeError(f"gradient shape {p.grad.shape} != parameter shape {p.values.shape} for {name!r}")
        if not _all_finite(p.grad):
            raise NumericError(f"non-finite gradient for parameter {name!r}; step aborted")
    state.step_count += 1
    t = state.step_count
    bias1 = 1.0 - BETA1**t
    bias2 = 1.0 - BETA2**t
    for name, p in live.items():
        g = p.grad
        m = state.first_moment.setdefault(name, np.zeros_like(p.values))
        v = state.second_moment.setdefault(name, np.zeros_like(p.values))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.values = p.values - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
