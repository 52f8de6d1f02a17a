"""Adam update semantics, including a step-by-step manual trace oracle."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from molfuse import tensor as T
from molfuse.errors import NumericError, ParameterError, ShapeError
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
    state = AdamState(learning_rate=lr)
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


def test_wrong_shape_gradient_aborts_without_touching_params():
    p = T.parameter([1.0])
    q = T.parameter([2.0, 3.0])
    p.grad = np.array([1.0])
    q.grad = np.ones((2, 1))
    state = AdamState()
    with pytest.raises(ShapeError) as info:
        adam_step({"p": p, "q": q}, state)
    assert info.type is ShapeError
    assert str(info.value) == "gradient shape (2, 1) != parameter shape (2,) for 'q'"
    np.testing.assert_array_equal(p.values, [1.0])
    np.testing.assert_array_equal(q.values, [2.0, 3.0])
    assert state.step_count == 0 and not state.first_moment and not state.second_moment


def test_missing_grads_are_skipped():
    p = T.parameter([1.0])
    state = AdamState(learning_rate=0.1)
    adam_step({"p": p}, state)
    np.testing.assert_array_equal(p.values, [1.0])


def test_parameter_validation():
    for learning_rate in (-1e-3, math.nan, math.inf):
        with pytest.raises(ParameterError):
            AdamState(learning_rate=learning_rate)
    assert AdamState(learning_rate=0.0).learning_rate == 0.0


@pytest.mark.parametrize("learning_rate", ["0.1", True], ids=["str", "bool"])
def test_a_learning_rate_that_is_not_a_real_number_raises_parameter_error(learning_rate):
    expected = f"got {learning_rate!r} ({type(learning_rate).__name__})"
    with pytest.raises(ParameterError, match=re.escape(expected) + "$"):
        AdamState(learning_rate=learning_rate)


def test_moments_match_parameter_shapes():
    p = T.parameter(np.ones((2, 3)))
    p.grad = np.ones((2, 3))
    state = AdamState()
    adam_step({"p": p}, state)
    assert state.first_moment["p"].shape == (2, 3)
    assert state.second_moment["p"].shape == (2, 3)


# ---- a step is kept whole or not at all ------------------------------------------


def _snapshot(params, state):
    """Everything a step may change, as bytes."""
    return (
        state.step_count,
        {name: p.values.tobytes() for name, p in params.items()},
        {name: m.tobytes() for name, m in state.first_moment.items()},
        {name: v.tobytes() for name, v in state.second_moment.items()},
    )


@pytest.mark.parametrize("action", ["error", "always"])
def test_gradient_whose_square_overflows_raises_and_changes_nothing(action):
    # 1e200 is finite, but its square is not: the second moment would be inf.
    p = T.parameter([1.0, 2.0])
    p.grad = np.array([1e200, 1.0])
    state = AdamState()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        with pytest.raises(NumericError, match=r"^non-finite Adam update for parameter 'p'; step aborted$"):
            adam_step({"p": p}, state)
    assert caught == []
    assert state.step_count == 0 and not state.first_moment and not state.second_moment
    np.testing.assert_array_equal(p.values, [1.0, 2.0])


def test_an_overflow_in_a_later_parameter_leaves_earlier_ones_untouched():
    p, q = T.parameter([1.0, -1.0]), T.parameter([3.0])
    params = {"p": p, "q": q}
    state = AdamState(learning_rate=0.1)
    p.grad, q.grad = np.array([0.5, -2.0]), np.array([1.0])
    adam_step(params, state)
    before = _snapshot(params, state)
    p.grad, q.grad = np.array([0.25, 4.0]), np.array([1e200])
    with pytest.raises(NumericError, match=r"^non-finite Adam update for parameter 'q'; step aborted$"):
        adam_step(params, state)
    assert _snapshot(params, state) == before


def test_learning_rate_made_infinite_after_construction_changes_nothing():
    p = T.parameter([1.0, 2.0])
    state = AdamState(learning_rate=0.1)
    p.grad = np.array([0.5, -0.5])
    adam_step({"p": p}, state)
    before = _snapshot({"p": p}, state)
    expected = r"^Adam learning_rate must be finite and non-negative, got inf \(float\)$"
    with pytest.raises(ParameterError, match=expected):
        state.learning_rate = math.inf
    assert state.learning_rate == 0.1
    assert _snapshot({"p": p}, state) == before


@pytest.mark.parametrize("bad", [-1.0, "0.1", True, math.nan, math.inf], ids=["negative", "str", "bool", "nan", "inf"])
def test_a_reassigned_learning_rate_is_checked_and_the_old_one_stays(bad):
    # Unchecked, -1.0 steps uphill: p = [1.0] with gradient [1.0] moves to 2.0.
    params, twin_params = {"p": T.parameter([1.0])}, {"p": T.parameter([1.0])}
    state, twin = AdamState(learning_rate=0.5), AdamState(learning_rate=0.5)
    before = _snapshot(params, state)
    expected = f"Adam learning_rate must be finite and non-negative, got {bad!r} ({type(bad).__name__})"
    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
        state.learning_rate = bad
    assert state.learning_rate == 0.5
    assert _snapshot(params, state) == before
    for ps, st in ((params, state), (twin_params, twin)):
        ps["p"].grad = np.array([1.0])
        adam_step(ps, st)
    assert _snapshot(params, state) == _snapshot(twin_params, twin)
    np.testing.assert_allclose(params["p"].values, [0.5])  # downhill by the kept rate


@pytest.mark.parametrize("name", ["step_count", "first_moment", "second_moment"])
def test_learning_rate_is_the_only_constructor_option(name):
    with pytest.raises(TypeError):
        AdamState(**{name: 1 if name == "step_count" else {"p": np.zeros(1)}})


def test_a_learning_rate_beyond_the_float_range_raises_parameter_error():
    with pytest.raises(ParameterError, match=r"got 1000*0 \(int\)$"):
        AdamState(learning_rate=10**400)


def test_a_learning_rate_is_kept_as_the_float_of_its_value():
    state = AdamState(learning_rate=np.float32(0.5))
    state.learning_rate = Fraction(1, 4)
    assert type(state.learning_rate) is float and state.learning_rate == 0.25


def test_a_wrong_shape_gradient_after_a_kept_step_changes_nothing():
    p, q = T.parameter([1.0]), T.parameter([2.0, 3.0])
    params = {"p": p, "q": q}
    state = AdamState(learning_rate=0.1)
    p.grad, q.grad = np.array([1.0]), np.array([1.0, -1.0])
    adam_step(params, state)
    before = _snapshot(params, state)
    q.grad = np.ones(3)
    with pytest.raises(ShapeError):
        adam_step(params, state)
    assert _snapshot(params, state) == before


def test_moments_are_float64_for_a_float32_gradient():
    p = T.parameter([1.0, 2.0])
    p.grad = np.array([0.5, -0.5], dtype=np.float32)
    state = AdamState()
    adam_step({"p": p}, state)
    assert state.first_moment["p"].dtype == state.second_moment["p"].dtype == np.float64
