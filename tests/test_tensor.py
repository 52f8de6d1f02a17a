"""Forward semantics of the tensor ops, checked against independent oracles."""

import importlib.util
import math
import platform
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from molfuse import tensor as T
from molfuse.errors import DataError, MolfuseError, NumericError, ParameterError, ShapeError
from molfuse.gradcheck import OP_CASES
from molfuse.optim import AdamState, adam_step
from molfuse.rng import stream

try:
    import resource
except ImportError:  # not on Windows
    resource = None


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hand-rolled triple loop, independent of the library path."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += a[i, p] * b[p, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = T.constant(np.arange(9.0).reshape(3, 3))
        out = T.matmul(T.constant(np.eye(3)), b)
        np.testing.assert_array_equal(out.values, b.values)

    def test_scalar_case(self):
        out = T.matmul(T.constant([[2.0]]), T.constant([[3.0]]))
        assert out.values == [[6.0]]

    def test_against_triple_loop_oracle(self):
        rng = stream(1, "matmul-oracle")
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 3))
        out = T.matmul(T.constant(a), T.constant(b))
        np.testing.assert_allclose(out.values, matmul_oracle(a, b), rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


# A (1, 3) row as softmax's input and, transposed, as one segment of segment_softmax.
HUGE_ROW_SOFTMAXES = {
    "softmax": lambda x: T.softmax(T.constant(x), axis=-1),
    "segment_softmax": lambda x: T.segment_softmax(T.constant(x.T), [0, 0, 0], 1),
}


class TestSoftmax:
    def test_uniform_input(self):
        out = T.softmax(T.constant([[0.0, 0.0, 0.0]]), axis=-1)
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3]])

    def test_stability_limit(self):
        out = T.softmax(T.constant([[1000.0, 0.0]]), axis=-1)
        assert np.isfinite(out.values).all()
        np.testing.assert_allclose(out.values[0, 0], 1.0, atol=1e-12)

    def test_log_ratio_inputs(self):
        x = T.constant([[math.log(1), math.log(2), math.log(3)]])
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.values, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    def test_rows_sum_to_one_at_large_magnitude(self):
        rng = stream(2, "softmax-sums")
        x = rng.uniform(-1e3, 1e3, size=(20, 7))
        out = T.softmax(T.constant(x), axis=1)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-6)
        assert (out.values >= 0).all()

    def test_empty_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(T.constant(np.ones((2, 0))), axis=1)

    # The input's squares overflow, so its bound is inf.  Its entries are
    # finite, so every shifted entry is still at most 0 (-1e308 - 1e308
    # overflows to -inf) and the output is bounded by 1 without a read.
    @pytest.mark.parametrize("form", HUGE_ROW_SOFTMAXES.values(), ids=HUGE_ROW_SOFTMAXES)
    def test_huge_finite_input_needs_no_output_check(self, form):
        x = np.array([[1e308, -1e308, 0.0]])
        assert T.constant(x)._max == math.inf
        records, error = run_recording(lambda: form(x))
        assert error is None
        [(_, bound, out)] = records
        assert bound <= T._LIMIT
        assert out.values.ravel().tolist() == [1.0, 0.0, 0.0]

    # The same row with numpy's warnings as they are: the overflow the bound
    # allows is ignored inside the op, so no RuntimeWarning escapes.
    @pytest.mark.parametrize("form", HUGE_ROW_SOFTMAXES.values(), ids=HUGE_ROW_SOFTMAXES)
    def test_huge_finite_input_warns_of_nothing(self, form):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = form(np.array([[1e308, -1e308, 0.0]]))
        assert out.values.ravel().tolist() == [1.0, 0.0, 0.0]


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert T.leaky_relu(T.constant([2.0])).values == [2.0]

    def test_negative_definition(self):
        np.testing.assert_allclose(T.leaky_relu(T.constant([-1.0])).values, [-0.2])

    def test_zero_boundary_gradient(self):
        # The subgradient at exactly 0 is fixed to the right-hand value 1.
        x = T.parameter([0.0])
        T.backward(T.sum_all(T.leaky_relu(x)))
        np.testing.assert_array_equal(x.grad, [1.0])


def layer_norm_grads_reference(x, gain, g, eps=1e-5):
    """layer_norm's gradients for upstream ``g`` by the g_var/g_mu chain of
    the standard backward; ``eps`` is the variance offset, one per row when
    it is a column."""
    d = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    g_xhat = g * gain
    g_var = (g_xhat * centered).sum(axis=-1, keepdims=True) * (-0.5) * inv_std**3
    g_mu = -(g_xhat * inv_std).sum(axis=-1, keepdims=True) + g_var * (-2.0 / d) * centered.sum(axis=-1, keepdims=True)
    g_a = g_xhat * inv_std + g_var * (2.0 / d) * centered + g_mu / d
    return g_a, (g * xhat).sum(axis=0), g.sum(axis=0)


class TestLayerNorm:
    def _gain_bias(self, d, gain=1.0, bias=0.0):
        return T.constant(np.full(d, gain)), T.constant(np.full(d, bias))

    def test_constant_row_collapses_to_bias(self):
        g, b = self._gain_bias(3)
        out = T.layer_norm(T.constant([[5.0, 5.0, 5.0]]), g, b)
        np.testing.assert_allclose(out.values, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_already_normalized_row(self):
        g, b = self._gain_bias(2)
        out = T.layer_norm(T.constant([[1.0, -1.0]]), g, b)
        np.testing.assert_allclose(out.values, np.array([[1.0, -1.0]]) / np.sqrt(1.0 + 1e-5), atol=1e-12)

    def test_zero_gain_gives_bias(self):
        g, b = self._gain_bias(4, gain=0.0, bias=0.7)
        rng = stream(3, "ln-zero-gain")
        out = T.layer_norm(T.constant(rng.normal(size=(5, 4))), g, b)
        np.testing.assert_allclose(out.values, 0.7)

    def test_pre_affine_moments(self):
        rng = stream(4, "ln-moments")
        x = rng.normal(size=(30, 16)) * 3.0 + 1.0
        g, b = self._gain_bias(16)
        out = T.layer_norm(T.constant(x), g, b).values
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        var = x.var(axis=1)
        np.testing.assert_allclose(out.var(axis=1), var / (var + 1e-5), atol=1e-12)

    def test_empty_last_axis(self):
        g, b = self._gain_bias(0)
        with pytest.raises(ShapeError):
            T.layer_norm(T.constant(np.ones((2, 0))), g, b)

    # The centered squares of these rows overflow, so the variance is inf and
    # would collapse each row to the bias.  Each row is run at the real limit,
    # which its bound exceeds, and with the exact check forced on every op.
    @pytest.mark.parametrize("limit", [T._LIMIT, -math.inf], ids=["limit", "forced"])
    @pytest.mark.parametrize("row", [[1e155, -1e155], [3.0, 1e160]])
    def test_overflowing_variance_raises(self, row, limit):
        g, b = self._gain_bias(2)
        with mock.patch.object(T, "_LIMIT", limit):
            with pytest.raises(NumericError, match=r"^non-finite values produced by layer_norm$"):
                T.layer_norm(T.constant([row]), g, b)

    def test_overflowing_squares_raise_without_a_warning(self):
        g, b = self._gain_bias(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^non-finite values produced by layer_norm$"):
                T.layer_norm(T.constant([[1e308, -1e308]]), g, b)

    def test_gradient_matches_the_variance_chain(self):
        """The input gradient from x̂ and 1/σ differs from the g_var/g_mu
        chain's by at most 1e-12 times the row's largest entry; the gain and
        bias gradients are the same bytes.  A quarter of the rows are scaled by 2**500
        (about 3e150).  There the chain's inv_std**3 underflows to 0 and
        drops its variance term, so it runs on the unscaled row with the
        offset scaled by 2**-1000 and its result is scaled back, which is
        exact in binary floating point."""
        rng = stream(41, "ln-backward")
        x, g, gain = rng.normal(size=(1093, 32)), rng.normal(size=(1093, 32)), rng.normal(size=32)
        scale = np.where(rng.random((1093, 1)) < 0.25, 2.0**500, 1.0)
        out = T.layer_norm(T.parameter(x * scale), T.parameter(gain), T.parameter(np.zeros(32)))
        g_a, g_gain, g_bias = out.backward_rule(g)
        ref_a = layer_norm_grads_reference(x, gain, g, 1e-5 / scale**2)[0] / scale
        _, ref_gain, ref_bias = layer_norm_grads_reference(x * scale, gain, g)
        assert (np.abs(g_a - ref_a) <= 1e-12 * np.abs(ref_a).max(axis=1, keepdims=True)).all()
        assert (g_gain.tobytes(), g_bias.tobytes()) == (ref_gain.tobytes(), ref_bias.tobytes())

    @pytest.mark.parametrize("limit", [T._LIMIT, -math.inf], ids=["limit", "forced"])
    def test_largest_squares_still_normalize(self, limit):
        g, b = self._gain_bias(2)
        with mock.patch.object(T, "_LIMIT", limit):
            out = T.layer_norm(T.constant([[1e153, -1e153]]), g, b)
        np.testing.assert_array_equal(out.values, [[1.0, -1.0]])


class TestLosses:
    def test_cross_entropy_confident(self):
        logits = T.constant([[30.0, 0.0], [0.0, 30.0]])
        loss = T.cross_entropy(logits, [0, 1])
        assert loss.item() < 1e-10

    def test_cross_entropy_uniform_two_classes(self):
        loss = T.cross_entropy(T.constant([[0.0, 0.0]]), [0])
        np.testing.assert_allclose(loss.item(), math.log(2), atol=1e-15)

    def test_cross_entropy_against_softmax_log_oracle(self):
        rng = stream(8, "ce-oracle")
        logits = rng.normal(size=(5, 3)) * 3
        labels = rng.integers(0, 3, size=5)
        z = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = z / z.sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(5), labels]).mean()
        loss = T.cross_entropy(T.constant(logits), labels)
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)

    # A row spanning more than the double range, with numpy's warnings as they
    # are: lse - logit[y] is 0 for the larger logit and overflows for the other.
    def test_cross_entropy_beyond_the_double_range_warns_of_nothing(self):
        logits = T.constant([[1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert T.cross_entropy(logits, [0]).item() == 0.0
            with pytest.raises(NumericError, match=r"^non-finite values produced by cross_entropy$"):
                T.cross_entropy(logits, [1])

    def test_cross_entropy_label_range(self):
        from molfuse.errors import DataError

        with pytest.raises(DataError):
            T.cross_entropy(T.constant([[0.0, 0.0]]), [2])

class TestConstruction:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            T.Tensor([np.nan])
        with pytest.raises(NumericError):
            T.Tensor([np.inf])

    def test_shape_invariant(self):
        t = T.constant(np.ones((2, 3)))
        assert t.size == 6 and t.shape == (2, 3)

    @pytest.mark.parametrize("make", [T.constant, T.parameter], ids=["constant", "parameter"])
    def test_leaf_values_are_a_read_only_copy(self, make):
        source = np.array([1.0, -2.0, 3.0])
        leaf = make(source)
        source[:] = 0.0
        np.testing.assert_array_equal(leaf.values, [1.0, -2.0, 3.0])
        assert leaf._max >= 3.0
        with pytest.raises(ValueError):
            leaf.values[0] = 5.0
        leaf.values = source
        assert leaf.values is not source and not leaf.values.flags.writeable
        assert leaf._max == T._FLOOR

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_assignment_keeps_the_old_values(self, bad):
        leaf = T.parameter([1.0, 2.0])
        before = leaf.values
        with pytest.raises(NumericError, match=r"^non-finite values assigned to a tensor$"):
            leaf.values = [1.0, bad]
        assert leaf.values is before and leaf._max >= 2.0

    @pytest.mark.parametrize(
        "values, dtype",
        [
            (None, "object"),
            ("abc", "<U3"),
            ("1.5", "<U3"),
            (["1", "2"], "<U1"),
            (np.array([1 + 2j]), "complex128"),
            (np.array([1.0, 2.0], dtype=object), "object"),
        ],
        ids=["none", "word", "numeral", "numerals", "complex", "object"],
    )
    def test_values_that_are_not_real_numbers_raise_data_error(self, values, dtype):
        expected = f"^tensor values must be real numbers, got an array of dtype {re.escape(dtype)}$"
        for make in (T.constant, T.parameter):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match=expected):
                    make(values)
        leaf = T.parameter([1.0, 2.0])
        before = leaf.values
        with pytest.raises(DataError, match=expected):
            leaf.values = values
        assert leaf.values is before and leaf._max >= 2.0

    @pytest.mark.parametrize(
        "values", [[True, False], np.array([3, 250], dtype=np.uint8), np.array([-2, 7], dtype=np.int32), 4.5]
    )
    def test_boolean_integer_and_floating_values_are_read_as_float64(self, values):
        leaf = T.constant(values)
        assert leaf.values.dtype == np.float64
        np.testing.assert_array_equal(leaf.values, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize("magnitude", [1e155, 1e200, 1.7e308])
    def test_huge_finite_accepted(self, magnitude):
        # The sum of squares overflows here; the exact fallback must still accept.
        x = np.full((4, 3), magnitude)
        x[::2] *= -1.0
        np.testing.assert_array_equal(T.constant(x).values, x)
        np.testing.assert_array_equal(T.constant(x.T).values, x.T)
        assert T.constant(x)._max == math.inf  # so the next op checks its output


class TestOperators:
    @pytest.mark.parametrize(
        "form, op", [(lambda a, b: a + b, T.add), (lambda a, b: a * b, T.mul)], ids=["add", "mul"]
    )
    def test_operator_is_its_op(self, form, op):
        rng = stream(5, "operators")
        a_values, b_values, weights = rng.normal(size=(3, 4)), rng.normal(size=4), rng.normal(size=(3, 4))
        results = []
        for call in (form, op):
            a, b = T.parameter(a_values), T.parameter(b_values)
            out = call(a, b)
            T.backward(T.sum_all(T.mul(out, T.constant(weights))))
            results.append((out.op, out.values.tobytes(), a.grad.tobytes(), b.grad.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "form",
        [
            lambda a, b: a - b,
            lambda a, b: -a,
            lambda a, b: a @ b,
            lambda a, b: a + 1.5,
            lambda a, b: 2.0 * a,
            lambda a, b: np.ones(4) + a,
        ],
        ids=["sub", "neg", "matmul", "add_float", "float_mul", "array_add"],
    )
    def test_other_forms_raise_type_error(self, form):
        a, b = T.constant(np.ones((3, 4))), T.constant(np.ones(4))
        with pytest.raises(TypeError):
            form(a, b)

    @pytest.mark.parametrize(
        "factor", ["2", None, True, np.array(2.0), 1 + 0j], ids=["str", "none", "bool", "array", "complex"]
    )
    def test_scale_factor_that_is_not_a_real_number_raises_parameter_error(self, factor):
        expected = f"scale factor must be a real number, got {factor!r} ({type(factor).__name__})"
        with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
            T.scale(T.parameter([1.0, 2.0]), factor)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 10**400], ids=["nan", "inf", "beyond-float"])
    def test_scale_factor_that_is_not_finite_raises_numeric_error(self, factor):
        with pytest.raises(NumericError, match=r"^non-finite values produced by scale$"):
            T.scale(T.parameter([1.0, 2.0]), factor)

    def test_scale_reads_any_real_factor_as_its_float(self):
        x = T.constant([1.0, -3.0])
        for factor in (Fraction(1, 3), np.float32(0.5), np.int64(-2)):
            assert T.scale(x, factor).values.tobytes() == T.scale(x, float(factor)).values.tobytes()

    def test_repr_names_shape_flag_and_op(self):
        p = T.parameter(np.ones((2, 3)))
        assert repr(p) == "Tensor(shape=(2, 3), requires_grad, op=None)"
        assert repr(p * p) == "Tensor(shape=(2, 3), requires_grad, op='mul')"
        assert repr(T.constant([1.0])) == "Tensor(shape=(1,), op=None)"


@st.composite
def arrays_with_views(draw):
    """Finite arrays up to +-1e308 of rank 0-3, some entries swapped for NaN or
    +-inf, seen through a plain, transposed, strided or reversed view."""
    base = draw(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
        elements=st.floats(-1e308, 1e308),
    ))
    if base.size:
        flat = base.reshape(-1)
        for at in draw(st.lists(st.integers(0, base.size - 1), max_size=3)):
            flat[at] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    view = draw(st.sampled_from(["plain", "transposed", "strided", "reversed"]))
    if view == "transposed":
        return base.T
    if view == "strided" and base.ndim:
        return base[::2]
    if view == "reversed" and base.ndim:
        return base[..., ::-1]
    return base


@settings(max_examples=500, deadline=None)
@given(arrays_with_views())
def test_finiteness_check_is_exact(arr):
    assert T._all_finite(arr) == bool(np.isfinite(arr).all())


class TestSegmentOps:
    def test_segment_sum_matches_loop(self):
        rng = stream(10, "segsum")
        vals = rng.normal(size=(6, 2))
        seg = np.array([0, 1, 1, 2, 0, 2])
        out = T.segment_sum(T.constant(vals), seg, 3)
        expected = np.zeros((3, 2))
        for row, s in zip(vals, seg):
            expected[s] += row
        np.testing.assert_allclose(out.values, expected, atol=1e-14)

    def test_segment_softmax_sums_to_one(self):
        rng = stream(11, "segsoft")
        e = rng.normal(size=9) * 50
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        out = T.segment_softmax(T.constant(e), seg, 3)
        for s in range(3):
            np.testing.assert_allclose(out.values[seg == s].sum(), 1.0, atol=1e-6)

    def test_segment_softmax_single_member(self):
        out = T.segment_softmax(T.constant([3.0]), np.array([0]), 1)
        np.testing.assert_allclose(out.values, [1.0])


def scatter_sum_reference(ids: np.ndarray, rows: np.ndarray, num_segments: int) -> np.ndarray:
    out = np.zeros((num_segments,) + rows.shape[1:])
    np.add.at(out, ids, rows)
    return out


def segment_softmax_reference(x: np.ndarray, ids: np.ndarray, num_segments: int) -> np.ndarray:
    seg_max = np.full((num_segments,) + x.shape[1:], -np.inf)
    np.maximum.at(seg_max, ids, x)
    z = np.exp(x - seg_max[ids])
    return z / scatter_sum_reference(ids, z, num_segments)[ids]


# Unsorted ids with duplicates; segments 2 and 5 of 7 stay empty.
SCATTER_IDS = np.array([4, 0, 6, 4, 1, 3, 0, 4, 6])
SCATTER_SEGMENTS = 7
# The same ids tiled to over 20,000 rows, so a large input stays covered.
SCATTER_IDS_TILED = np.tile(SCATTER_IDS, 20_000 // len(SCATTER_IDS) + 1)


def small_and_tiled(trailings):
    """Each trailing shape over SCATTER_IDS and over SCATTER_IDS_TILED."""
    return [pytest.param(SCATTER_IDS, t, id=f"trailing{i}") for i, t in enumerate(trailings)] + [
        pytest.param(SCATTER_IDS_TILED, t, id=f"tiled-trailing{i}") for i, t in enumerate(trailings)
    ]


def scatter_rows(ids: np.ndarray, trailing: tuple, rng) -> np.ndarray:
    """Random rows in which segment 3 holds only -0.0."""
    x = rng.normal(size=(len(ids),) + trailing) * 30
    x[ids == 3] = -0.0
    return x


def layout_rows(ids: np.ndarray, layout: str, rng) -> np.ndarray:
    """Rows 3 wide stored transposed (not C-contiguous), or rows 0 wide."""
    if layout == "transposed":
        x = scatter_rows(ids, (3,), rng).T.copy().T
        assert not x.flags.c_contiguous
        return x
    return np.zeros((len(ids), 0))


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape and same bytes, so -0.0 and 0.0 differ."""
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_softmax_bits_equal(ids: np.ndarray, x: np.ndarray, upstream: np.ndarray) -> None:
    """segment_softmax of ``x`` and its gradient against ``upstream`` equal the references bit for bit."""
    expected = segment_softmax_reference(x, ids, SCATTER_SEGMENTS)
    a = T.parameter(x)
    out = T.segment_softmax(a, ids, SCATTER_SEGMENTS)
    assert_bits_equal(out.values, expected)
    T.backward(T.sum_all(T.mul(out, T.constant(upstream))))
    dot = scatter_sum_reference(ids, upstream * expected, SCATTER_SEGMENTS)
    assert_bits_equal(a.grad, expected * (upstream - dot[ids]))


class TestScatterAgainstReference:
    """Segment sums, maxima and the gather_rows backward equal the unbuffered
    NumPy scatters bit for bit, on small and large inputs."""

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3), (0,), (2, 0)]))
    def test_segment_sum(self, ids, trailing):
        x = scatter_rows(ids, trailing, stream(12, "scatter-sum"))
        out = T.segment_sum(T.constant(x), ids, SCATTER_SEGMENTS)
        assert out.shape == (SCATTER_SEGMENTS,) + trailing
        assert_bits_equal(out.values, scatter_sum_reference(ids, x, SCATTER_SEGMENTS))

    @pytest.mark.parametrize("ids", [SCATTER_IDS, SCATTER_IDS_TILED], ids=["small", "tiled"])
    @pytest.mark.parametrize("layout", ["transposed", "zero-width"])
    def test_segment_sum_input_layouts(self, ids, layout):
        x = layout_rows(ids, layout, stream(16, "scatter-sum-t"))
        out = T.segment_sum(T.constant(x), ids, SCATTER_SEGMENTS)
        assert_bits_equal(out.values, scatter_sum_reference(ids, x, SCATTER_SEGMENTS))

    def test_segment_sum_no_rows(self):
        out = T.segment_sum(T.constant(np.zeros((0, 3))), np.zeros(0, dtype=int), 4)
        assert_bits_equal(out.values, np.zeros((4, 3)))

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3)]))
    def test_segment_softmax_and_gradient(self, ids, trailing):
        rng = stream(13, "scatter-softmax")
        x = scatter_rows(ids, trailing, rng)
        assert_softmax_bits_equal(ids, x, scatter_rows(ids, trailing, rng))

    @pytest.mark.parametrize("ids", [SCATTER_IDS, SCATTER_IDS_TILED], ids=["small", "tiled"])
    @pytest.mark.parametrize("layout", ["transposed", "zero-width"])
    def test_segment_softmax_input_layouts(self, ids, layout):
        rng = stream(18, "scatter-softmax-t")
        x = layout_rows(ids, layout, rng)
        assert_softmax_bits_equal(ids, x, layout_rows(ids, layout, rng))

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3)]))
    def test_gather_rows_gradient(self, ids, trailing):
        rng = stream(14, "scatter-gather")
        a = T.parameter(rng.normal(size=(SCATTER_SEGMENTS,) + trailing))
        upstream = scatter_rows(ids, trailing, rng)
        T.backward(T.sum_all(T.mul(T.gather_rows(a, ids), T.constant(upstream))))
        assert_bits_equal(a.grad, scatter_sum_reference(ids, upstream, SCATTER_SEGMENTS))

    def test_gather_rows_gradient_non_contiguous_upstream(self):
        # mul's gradient takes the Fortran order of a transposed constant, so
        # gather_rows receives a non-C-contiguous gradient.  sum_all hands mul
        # a broadcast view of ones, which has no order of its own.
        rng = stream(15, "scatter-gather-t")
        a = T.parameter(rng.normal(size=(SCATTER_SEGMENTS, 3)))
        upstream = rng.normal(size=(3, len(SCATTER_IDS))).T
        product = T.mul(T.gather_rows(a, SCATTER_IDS), T.constant(upstream))
        assert not product.backward_rule(np.broadcast_to(1.0, product.shape))[0].flags.c_contiguous
        T.backward(T.sum_all(product))
        assert_bits_equal(a.grad, scatter_sum_reference(SCATTER_IDS, upstream, SCATTER_SEGMENTS))

    def test_gather_rows_empty_index(self):
        a = T.parameter(np.ones((4, 3)))
        picked = T.gather_rows(a, np.zeros(0, dtype=int))
        assert picked.shape == (0, 3)
        T.backward(T.sum_all(picked))
        np.testing.assert_array_equal(a.grad, np.zeros((4, 3)))


def test_segment_sum_kernel_known_answer():
    """Three rows, a duplicate id and an empty segment, through scipy's
    private ``csc_matvecs`` kernel that every segment sum calls."""
    ids = np.array([2, 0, 2], dtype=np.intp)
    x = np.array([[1.0, -0.0], [3.0, 4.0], [5.0, -0.0]])
    try:
        out = T._segment_sum(ids, 3, x)
    except (TypeError, ValueError) as exc:
        pytest.fail(
            f"scipy {scipy.__version__}: csc_matvecs, loaded by file from scipy.sparse._sparsetools, "
            f"changed its signature: {exc!r}"
        )
    # Sums start from +0.0, so -0.0 + -0.0 lands as +0.0, as with np.add.at.
    expected = np.array([[3.0, 4.0], [0.0, 0.0], [6.0, 0.0]])
    assert out.tobytes() == expected.tobytes(), f"scipy {scipy.__version__}: csc_matvecs gave {out.tolist()}"
    # A row count that differs from the ids' fails in the reshape, before
    # the kernel reads past the input.
    for rows in (3, 1):
        with pytest.raises(ValueError, match="cannot reshape"):
            T._segment_sum(ids[:2], 3, x[:rows])


def test_erf_kernel_matches_public_scipy_erf():
    """``erf``, loaded by file from ``scipy.special._special_ufuncs``, is bit
    for bit the public ``scipy.special.erf`` on 10k seeded points."""
    import scipy.special

    edges = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0]
    x = np.concatenate([stream(19, "erf-kernel").normal(scale=3.0, size=10_000 - len(edges)), edges])
    got, expected = T.erf(x), scipy.special.erf(x)
    assert got.tobytes() == expected.tobytes(), (
        f"scipy {scipy.__version__}: erf from scipy.special._special_ufuncs differs from scipy.special.erf "
        f"at {np.flatnonzero(got != expected)[:5].tolist()}"
    )


def test_gelu_forward_matches_math_erf():
    # x * Phi(x) with Phi from math.erf.  gelu multiplies by 1/sqrt(2) where
    # the oracle divides (2e-16 apart at +-0.5), the two erfs may differ in
    # the last bit, and 1 + erf(x / sqrt 2) at x = -3 magnifies that about
    # 740-fold: hence 1e-12 relative, and exact where the result is 0 or x.
    points = [0.0, 1e-300, -1e-300, 0.5, -0.5, 3.0, -3.0, 40.0, -40.0]
    out = T.gelu(T.constant(points)).values
    expected = [x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in points]
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)
    assert out[0] == 0.0 and out[-1] == 0.0 and out[-2] == 40.0


def test_gelu_backward_beyond_overflowing_square():
    # x * x overflows above about 1.34e154; there the gradient is the cdf.
    x = T.parameter([1e160, -1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.backward(T.sum_all(T.gelu(x)))
    np.testing.assert_array_equal(x.grad, [1.0, 0.0])


class TestScipyExtensionLoader:
    def test_missing_file_names_module_and_directory(self):
        directory = Path(importlib.util.find_spec("scipy").submodule_search_locations[0]) / "sparse"
        with pytest.raises(ImportError) as info:
            T._scipy_extension("sparse", "_no_such_module")
        assert str(info.value) == (
            f"cannot load scipy.sparse._no_such_module: no compiled _no_such_module module in {directory}"
        )
        assert "scipy.sparse._no_such_module" not in sys.modules

    def test_missing_scipy_names_the_search_path(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match=r"^cannot load scipy\.special\._x: no compiled _x module in "
                           r"sys\.path \(no scipy package found\)$"):
            T._scipy_extension("special", "_x")

    def test_loaded_module_is_registered_and_reused(self):
        module = sys.modules["scipy.sparse._sparsetools"]
        assert T._scipy_extension("sparse", "_sparsetools") is module
        assert module.csc_matvecs is T._csc_matvecs


# An index op over 4 source rows (2 segments) whose ids are edited in place
# after the forward; the gradient must not see the edit.
MUTABLE_ID_OPS = {
    "gather_rows": lambda a, ids: T.gather_rows(a, ids),
    "segment_sum": lambda a, ids: T.segment_sum(a, ids, 2),
    "segment_softmax": lambda a, ids: T.segment_softmax(a, ids, 2),
}


@pytest.mark.parametrize("edit", [[1, 1, 1, 1], [0, 5, -1, 2**40]], ids=["in-range", "out-of-range"])
@pytest.mark.parametrize("op", MUTABLE_ID_OPS)
def test_ops_own_their_index_arrays(op, edit):
    def gradient(edited):
        rng = stream(17, "own-ids")
        a = T.parameter(rng.normal(size=(4, 3)))
        ids = np.array([0, 0, 1, 0], dtype=np.intp)
        out = MUTABLE_ID_OPS[op](a, ids)
        ids[:] = edited
        T.backward(T.sum_all(T.mul(out, T.constant(rng.normal(size=out.shape)))))
        return a.grad

    assert gradient(edit).tobytes() == gradient([0, 0, 1, 0]).tobytes()


# A bad segment count and the ShapeError message it must raise, for both segment ops.
BAD_NUM_SEGMENTS = {
    "minus_one": (-1, "got -1 (int)"),
    "float": (2.5, "got 2.5 (float)"),
    "numpy_float": (np.float64(2.0), "got 2.0 (float64)"),
    "bool": (True, "got True (bool)"),
    "none": (None, "got None (NoneType)"),
}


@pytest.mark.parametrize("kind", BAD_NUM_SEGMENTS)
@pytest.mark.parametrize("op", [T.segment_sum, T.segment_softmax], ids=["segment_sum", "segment_softmax"])
def test_bad_num_segments_raise_shape_error(op, kind):
    count, got = BAD_NUM_SEGMENTS[kind]
    with pytest.raises(ShapeError) as info:
        op(T.constant(np.ones((3, 2))), [0, 1, 0], count)
    assert info.type is ShapeError
    assert str(info.value) == f"num_segments must be a non-negative integer, {got}"


@pytest.mark.parametrize("op", [T.segment_sum, T.segment_softmax], ids=["segment_sum", "segment_softmax"])
@pytest.mark.parametrize("shape, width", [((2, 2), 2), ((2, 0), 1)], ids=["rows", "empty-rows"])
def test_num_segments_numpy_cannot_hold_raise_shape_error(op, shape, width):
    # numpy leaves zero dimensions out of its byte count, so empty rows count as one value.
    count = 2**62
    message = f"num_segments {count} is too large: numpy cannot hold {count} rows of {width} float64 values"
    with pytest.raises(ShapeError) as info:
        op(T.constant(np.ones(shape)), [0, 1], count)
    assert info.type is ShapeError
    assert str(info.value) == message


class TestFiniteCheckAndGradientContracts:
    def test_checked_ops_reject_overflow(self):
        with pytest.raises(NumericError):
            T.mul(T.constant([1e200]), T.constant([1e200]))
        with pytest.raises(NumericError):
            T.matmul(T.constant([[1e200]]), T.constant([[1e200]]))
        with pytest.raises(NumericError):
            T.segment_sum(T.constant([1e308, 1e308]), np.array([0, 0]), 1)

    def test_leaf_grads_are_private(self):
        a = T.parameter([1.0, 2.0])
        b = T.parameter([3.0, 4.0])
        T.backward(T.sum_all(T.add(a, b)))
        assert a.grad is not b.grad
        a.grad[0] += 5.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_backward_leaves_no_grad_on_taped_tensors(self):
        a = T.parameter([1.0, 2.0])
        scaled = T.scale(a, 3.0)
        product = T.mul(scaled, a)
        loss = T.sum_all(product)
        T.backward(loss)
        assert len(T.Tape.trace(loss)) == 3
        assert all(t.grad is None for t in (scaled, product, loss))
        assert a.grad.flags.writeable

    @pytest.mark.parametrize("op", [T.add, T.mul, T.matmul])
    def test_constant_operand_gets_no_gradient(self, op):
        # The parameter side's values are checked by gradcheck's OP_CASES.
        p, c = T.parameter(np.ones((2, 2))), T.constant(np.full((2, 2), 3.0))
        for inputs, const_slot in (((p, c), 1), ((c, p), 0)):
            out = op(*inputs)
            grads = out.backward_rule(np.ones(out.shape))
            assert grads[const_slot] is None
            assert grads[1 - const_slot].shape == p.shape


class TestBackwardNeedsARecordedLoss:
    MESSAGE = r"^backward needs a loss recorded from parameters, got one with no recorded op$"

    def test_loss_recorded_under_no_grad_raises_and_trains_nothing(self):
        w = T.parameter([1.0, 2.0])
        with T.no_grad():
            loss = T.sum_all(T.mul(w, T.constant([3.0, 4.0])))
        with pytest.raises(DataError, match=self.MESSAGE):
            T.backward(loss)
        assert w.grad is None and loss.grad is None

    def test_constant_loss_raises(self):
        loss = T.constant(2.0)
        with pytest.raises(DataError, match=self.MESSAGE):
            T.backward(loss)
        assert loss.grad is None

    def test_parameter_is_its_own_loss(self):
        p = T.parameter(2.0)
        T.backward(p)
        assert p.grad == 1.0


# Finite inputs whose result overflows: each op raises NumericError, not numpy's RuntimeWarning.
OVERFLOWING_CALLS = {
    "add": lambda: T.add(T.constant([1.7e308]), T.constant([1.7e308])),
    "mul": lambda: T.mul(T.constant([1e200]), T.constant([1e200])),
    "scale": lambda: T.scale(T.constant([1e300]), 1e300),
    "matmul": lambda: T.matmul(T.constant([[1e200]]), T.constant([[1e200]])),
    "sum_all": lambda: T.sum_all(T.constant([1.7e308, 1.7e308])),
    # The variance is finite; the affine step overflows.
    "layer_norm": lambda: T.layer_norm(
        T.constant([[1.0, 2.0, 4.0]]), T.constant(np.full(3, 1.7e308)), T.constant(np.full(3, 1.7e308))
    ),
}


@pytest.mark.parametrize("op", OVERFLOWING_CALLS)
def test_overflowing_result_raises_numeric_error_without_a_warning(op):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"^non-finite values produced by {op}$"):
            OVERFLOWING_CALLS[op]()


def test_overflowing_gradient_reaches_its_leaf_without_a_warning():
    q = T.parameter([1e-200])
    loss = T.sum_all(T.mul(T.mul(q, T.constant([1e200])), T.constant([1e200])))
    assert loss.item() == pytest.approx(1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.backward(loss)
    assert q.grad[0] == math.inf
    state = AdamState()
    with pytest.raises(NumericError, match=r"^non-finite gradient for parameter 'q'; step aborted$"):
        adam_step({"q": q}, state)
    assert state.step_count == 0


@pytest.mark.parametrize("name", OP_CASES)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.just(308.0) | st.floats(-300.0, 308.0), min_size=3, max_size=3),
)
def test_inputs_scaled_toward_the_double_range_warn_of_nothing(name, seed, exponents):
    """Each input's largest entry is scaled to 10**e, often to 1e308: the op
    gives a finite result or a MolfuseError, and backward through it warns
    of nothing."""
    op, shapes, sample = OP_CASES[name]
    rng = np.random.default_rng(seed)
    arrays = [sample(rng, shape) for shape in shapes]
    leaves = [T.parameter(x / np.abs(x).max() * 10.0**e) for x, e in zip(arrays, exponents)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = op(*leaves)
            loss = T.sum_all(T.mul(out, T.constant(rng.normal(size=out.shape))))
        except MolfuseError:
            return
        assert np.isfinite(out.values).all() and math.isfinite(loss.item())
        T.backward(loss)
    assert all(leaf.grad is not None for leaf in leaves)


def bounded(values) -> T.Tensor:
    """An op result holding ``values``."""
    return T.scale(T.constant(values), 1.0)


def run_recording(call):
    """Call ``call()``, recording each op result's name, proving bound and tensor.

    Returns the records and the ``NumericError`` message, if one was raised.
    """
    made, records = T._make, []

    def spy(values, op, inputs, backward_rule, bound):
        t = made(values, op, inputs, backward_rule, bound)
        records.append((op, bound, t))
        return t

    with mock.patch.object(T, "_make", spy):
        try:
            call()
        except NumericError as exc:
            return records, str(exc)
    return records, None


@pytest.mark.parametrize("name", OP_CASES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponents=st.lists(st.floats(-200.0, 200.0), min_size=3, max_size=3))
def test_bound_proof_agrees_with_exact_check(name, seed, exponents):
    """Each op's bound covers its result, and the proof passes and fails the
    same calls, with the same bytes, as an exact check of every result."""
    op, shapes, sample = OP_CASES[name]
    rng = np.random.default_rng(seed)
    arrays = [sample(rng, shape) * 10.0**e for shape, e in zip(shapes, exponents)]

    def call():
        op(*[bounded(x) for x in arrays])

    proved, proved_error = run_recording(call)
    for op_name, bound, t in proved:
        if bound <= T._LIMIT and t.size:
            assert t._max >= np.abs(t.values).max(), op_name
    with mock.patch.object(T, "_LIMIT", -math.inf):
        checked, checked_error = run_recording(call)
    assert proved_error == checked_error
    assert [(n, t.values.tobytes()) for n, _, t in proved] == [(n, t.values.tobytes()) for n, _, t in checked]


# Each chain starts from a leaf whose squares underflow to 0 and ends in an
# op whose result is not finite; h is the leaf scaled by 1e300 (about 1e130).
TINY = np.array([[1e-170, 2e-170], [3e-170, 1e-170]])
UNDERFLOW_CHAINS = {
    "scale": lambda h: T.scale(h, 1e300),
    "mul": lambda h: T.mul(h, T.constant(np.full((2, 2), 1e300))),
    "matmul": lambda h: T.matmul(h, T.constant(np.full((2, 2), 1e300))),
    # The last row, 1.5e308 and 5e307, overflows its sum, so its mean.
    "layer_norm": lambda h: T.layer_norm(T.scale(h, 5e177), T.constant(np.ones(2)), T.constant(np.zeros(2))),
}


@pytest.mark.parametrize("op", UNDERFLOW_CHAINS)
def test_underflowing_bound_still_bounds(op):
    """A root of a sum of squares that underflows to 0 is floored, so the
    bounds stay above the values and the overflow is caught where an exact
    check of every result catches it."""
    h = T.scale(T.constant(TINY), 1e300)
    assert h._max >= np.abs(h.values).max()
    with pytest.raises(NumericError, match=rf"^non-finite values produced by {op}$"):
        UNDERFLOW_CHAINS[op](h)
    with mock.patch.object(T, "_LIMIT", -math.inf):
        with pytest.raises(NumericError, match=rf"^non-finite values produced by {op}$"):
            UNDERFLOW_CHAINS[op](T.scale(T.constant(TINY), 1e300))


def test_subnormal_bound_arithmetic_is_floored():
    # Unfloored, a's bound rounds to the least subnormal s, and the product
    # bound 2*s*0.6 rounds to s, while each product s*0.6 rounds up to s and
    # their sum is 2*s.
    a = T.scale(T.constant([[1.0, 1.0]]), 5e-324)
    b = T.gather_rows(T.constant([[0.6]]), [0, 0])
    out = T.matmul(a, b)
    assert out.values[0, 0] == 1e-323
    assert out._max >= out.values[0, 0]


# The next op after an op result's values were reassigned; r is that result,
# k another op result.
NEXT_OPS = {
    "add": T.add,
    "mul": T.mul,
    "matmul": T.matmul,
    "segment_sum": lambda r, k: T.segment_sum(r, [0, 0], 1),
}


class TestReassignedResults:
    """Reassigning an op result's values sets its bound again."""

    def test_op_result_values_are_read_only(self):
        r = bounded(np.ones((2, 2)))
        with pytest.raises(ValueError):
            r.values[0, 0] = 2.0
        r.values = np.full((2, 2), 3.0)
        with pytest.raises(ValueError):
            r.values[0, 0] = 2.0

    @pytest.mark.parametrize("op", NEXT_OPS)
    def test_reassigned_nan_raises_before_the_next_op(self, op):
        r, k = bounded(np.ones((2, 2))), bounded(np.ones((2, 2)))
        before = NEXT_OPS[op](r, k).values.tobytes()
        with pytest.raises(NumericError, match=r"^non-finite values assigned to a tensor$"):
            r.values = np.array([[1.0, np.nan], [1.0, 1.0]])
        assert NEXT_OPS[op](r, k).values.tobytes() == before

    @pytest.mark.parametrize("op", ["mul", "matmul"])
    def test_reassigned_huge_values_fail_the_next_product(self, op):
        # Had r kept its old bound (2), that times k's would prove the overflowing product finite.
        r = bounded(np.ones((2, 2)))
        r.values = np.full((2, 2), 1e200)
        with pytest.raises(NumericError, match=rf"^non-finite values produced by {op}$"):
            NEXT_OPS[op](r, bounded(np.full((2, 2), 1e109)))

    @pytest.mark.parametrize("op", ["add", "segment_sum"])
    def test_reassigned_huge_values_are_bounded_again(self, op):
        r = bounded(np.ones((2, 2)))
        r.values = np.full((2, 2), 1e200)
        out = NEXT_OPS[op](r, bounded(np.ones((2, 2))))
        assert out._max >= np.abs(out.values).max() >= 1e200


# Each op takes 3 index entries; after truncation every bad input below
# would be in range, so only the dtype check can catch it.
INDEX_OPS = {
    "gather_rows": lambda ids: T.gather_rows(T.constant(np.ones((3, 2))), ids),
    "segment_sum": lambda ids: T.segment_sum(T.constant(np.ones((3, 2))), ids, 2),
    "segment_softmax": lambda ids: T.segment_softmax(T.constant(np.ones((3, 2))), ids, 2),
    "cross_entropy": lambda ids: T.cross_entropy(T.constant(np.ones((3, 2))), ids),
}
BAD_INDICES = {"float": [0.9, 1.4, 0.2], "nan": [0.0, np.nan, 1.0], "bool": [True, False, True]}
BAD_INDEX_DTYPES = {"float": "float64", "nan": "float64", "bool": "bool"}
# Each op's index bound n above and the DataError message for an id outside [0, n).
INDEX_RANGES = {
    "gather_rows": (3, "gather_rows indices must lie in [0, 3)"),
    "segment_sum": (2, "segment ids must lie in [0, 2)"),
    "segment_softmax": (2, "segment ids must lie in [0, 2)"),
    "cross_entropy": (2, "cross_entropy labels must lie in [0, 2)"),
}
# Out-of-range ids for a bound n; the uint64 ones wrap to negative intp values.
OUT_OF_RANGE = {
    "minus_one": lambda n: [0, -1, 1],
    "n": lambda n: [0, n, 1],
    "uint64_2**63": lambda n: np.array([0, 2**63, 1], dtype=np.uint64),
    "uint64_max": lambda n: np.array([0, 2**64 - 1, 1], dtype=np.uint64),
    "int32_negative": lambda n: np.array([0, -7, 1], dtype=np.int32),
}


class TestIndexDtypes:
    @pytest.mark.parametrize("kind", BAD_INDICES)
    @pytest.mark.parametrize("op", INDEX_OPS)
    def test_non_integer_indices_rejected(self, op, kind):
        name = INDEX_RANGES[op][1].split(" must ")[0]
        expected = f"^{name} must be integers, got an array of dtype {BAD_INDEX_DTYPES[kind]}$"
        with pytest.raises(DataError, match=expected):
            INDEX_OPS[op](BAD_INDICES[kind])

    @pytest.mark.parametrize("op", INDEX_OPS)
    def test_unsigned_indices_accepted(self, op):
        ids = np.array([1, 0, 1], dtype=np.uint32)
        np.testing.assert_array_equal(INDEX_OPS[op](ids).values, INDEX_OPS[op]([1, 0, 1]).values)

    @pytest.mark.parametrize("kind", OUT_OF_RANGE)
    @pytest.mark.parametrize("op", INDEX_OPS)
    def test_out_of_range_indices_rejected(self, op, kind):
        n, message = INDEX_RANGES[op]
        with pytest.raises(DataError) as info:
            INDEX_OPS[op](OUT_OF_RANGE[kind](n))
        assert info.type is DataError and str(info.value) == message

    def test_empty_list_accepted(self):
        a = T.constant(np.ones((2, 3)))
        assert T.gather_rows(a, []).shape == (0, 3)
        assert T.segment_sum(T.constant(np.zeros((0, 3))), [], 2).shape == (2, 3)


# Shape faults that numpy or Python would report as ValueError, AxisError or
# IndexError, or that no numpy call would catch; each message holds the
# given substring, the shapes involved where there are any.
SHAPE_FAULTS = {
    "add": (lambda: T.add(T.constant(np.ones((2, 3))), T.constant(np.ones(4))), "(2, 3) and (4,)"),
    "mul": (lambda: T.mul(T.constant(np.ones(2)), T.constant(np.ones(3))), "(2,) and (3,)"),
    "gather_rows_0d": (lambda: T.gather_rows(T.constant(1.0), [0]), "needs a tensor with rows, got shape ()"),
    "gather_rows_2d_ids": (
        lambda: T.gather_rows(T.constant(np.ones((3, 2))), [[0], [1]]),
        "gather_rows indices must be 1-D, got shape (2, 1)",
    ),
    "segment_sum_0d": (lambda: T.segment_sum(T.constant(1.0), [0], 1), "need a tensor with rows, got shape ()"),
    "segment_sum_2d_ids": (
        lambda: T.segment_sum(T.constant(np.ones((3, 2))), [[0], [1], [0]], 2),
        "segment ids must be 1-D with 3 entries, got shape (3, 1)",
    ),
    "segment_sum_short_ids": (
        lambda: T.segment_sum(T.constant(np.ones((3, 2))), [0, 1], 2),
        "segment ids must be 1-D with 3 entries, got shape (2,)",
    ),
    "segment_softmax_0d": (
        lambda: T.segment_softmax(T.constant(1.0), [0], 1),
        "need a tensor with rows, got shape ()",
    ),
    "item_of_two": (lambda: T.constant([1.0, 2.0]).item(), "single-element tensor, got shape (2,)"),
    "matmul_1d": (lambda: T.matmul(T.constant(np.ones(3)), T.constant(np.ones((3, 2)))), "got (3,) and (3, 2)"),
    "softmax_float_axis": (
        lambda: T.softmax(T.constant(np.ones((2, 3))), axis=1.0),
        "softmax axis 1.0 invalid for shape (2, 3)",
    ),
    "softmax_bool_axis": (
        lambda: T.softmax(T.constant(np.ones((2, 3))), axis=True),
        "softmax axis True invalid for shape (2, 3)",
    ),
    "layer_norm_gain": (
        lambda: T.layer_norm(T.constant(np.ones((2, 3))), T.constant(np.ones(2)), T.constant(np.zeros(3))),
        "must have shape (3,), got (2,) and (3,)",
    ),
    "segment_softmax_no_rows": (
        lambda: T.segment_softmax(T.constant(np.zeros((0, 2))), [], 1),
        "segment_softmax needs at least one row",
    ),
    "cross_entropy_1d": (lambda: T.cross_entropy(T.constant(np.ones(3)), [0, 1, 0]), "2-D logits, got shape (3,)"),
    "cross_entropy_labels": (
        lambda: T.cross_entropy(T.constant(np.ones((2, 3))), [0, 1, 2]),
        "cross_entropy labels must be 1-D with 2 entries, got shape (3,)",
    ),
    "cross_entropy_no_rows": (
        lambda: T.cross_entropy(T.constant(np.zeros((0, 3))), []),
        "cross_entropy needs at least one row",
    ),
}


@pytest.mark.parametrize("case", SHAPE_FAULTS)
def test_shape_faults_raise_shape_error(case):
    call, shapes = SHAPE_FAULTS[case]
    with pytest.raises(ShapeError) as info:
        call()
    assert info.type is ShapeError and shapes in str(info.value)


@pytest.mark.skipif(resource is None or platform.libc_ver()[0] != "glibc", reason="needs getrusage and glibc")
def test_large_arrays_reuse_freed_memory():
    """Importing molfuse.tensor keeps freed 64 MiB arrays in the heap, so
    allocating one again faults in no fresh pages.  Counts faults, not time."""

    def cycle():
        arr = np.empty(64 << 17)  # 64 MiB of float64
        arr.fill(1.0)
        del arr

    cycle()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        cycle()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 64
