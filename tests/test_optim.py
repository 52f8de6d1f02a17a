"""Adam update semantics, including a step-by-step manual trace oracle."""

import math

import numpy as np
import pytest

from molfuse import tensor as T
from molfuse.errors import NumericError, ParameterError
from molfuse.optim import AdamState, adam_step


def test_first_step_magnitude_is_learning_rate():
    # With constant gradient g, bias correction gives m_hat = g, v_hat = g^2,
    # so the first update is lr * sign(g) up to epsilon.
    p = T.parameter([5.0, -3.0])
    p.grad = np.array([0.25, -4.0])
    state = AdamState(learning_rate=0.01)
    adam_step({"p": p}, state)
    np.testing.assert_allclose(p.values, [5.0 - 0.01, -3.0 + 0.01], atol=1e-8)
    assert state.step_count == 1


def test_zero_gradient_leaves_parameters_unchanged():
    p = T.parameter([1.0, 2.0])
    p.grad = np.zeros(2)
    state = AdamState(learning_rate=0.5)
    adam_step({"p": p}, state)
    np.testing.assert_array_equal(p.values, [1.0, 2.0])


def test_two_step_manual_trace_on_quadratic():
    """Spreadsheet-style trace of two Adam steps on f(x) = x^2 from x = 1."""
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8

    # Manual trace in plain Python arithmetic.
    x = 1.0
    m = v = 0.0
    expected = []
    for t in (1, 2):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        expected.append(x)

    p = T.parameter([1.0])
    state = AdamState(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    seen = []
    for _ in range(2):
        p.zero_grad()
        T.backward(T.sum_all(T.mul(p, p)))
        adam_step({"p": p}, state)
        seen.append(float(p.values[0]))
    np.testing.assert_allclose(seen, expected, atol=1e-10)


def test_nan_gradient_aborts_without_touching_params():
    p = T.parameter([1.0])
    q = T.parameter([2.0])
    p.grad = np.array([np.nan])
    q.grad = np.array([1.0])
    state = AdamState()
    with pytest.raises(NumericError):
        adam_step({"p": p, "q": q}, state)
    np.testing.assert_array_equal(q.values, [2.0])
    assert state.step_count == 0


def test_missing_grads_are_skipped():
    p = T.parameter([1.0])
    state = AdamState(learning_rate=0.1)
    adam_step({"p": p}, state)
    np.testing.assert_array_equal(p.values, [1.0])


def test_parameter_validation():
    with pytest.raises(ParameterError):
        AdamState(beta1=1.0)
    with pytest.raises(ParameterError):
        AdamState(epsilon=0.0)
    for learning_rate in (-1e-3, math.nan, math.inf):
        with pytest.raises(ParameterError):
            AdamState(learning_rate=learning_rate)
    assert AdamState(learning_rate=0.0).learning_rate == 0.0


def test_moments_match_parameter_shapes():
    p = T.parameter(np.ones((2, 3)))
    p.grad = np.ones((2, 3))
    state = AdamState()
    adam_step({"p": p}, state)
    assert state.first_moment["p"].shape == (2, 3)
    assert state.second_moment["p"].shape == (2, 3)
