"""Forward semantics of the tensor ops, checked against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from molfuse import tensor as T
from molfuse.errors import NumericError, ParameterError, ShapeError
from molfuse.rng import stream


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


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert T.leaky_relu(T.constant([2.0]), 0.2).values == [2.0]

    def test_negative_definition(self):
        np.testing.assert_allclose(T.leaky_relu(T.constant([-1.0]), 0.2).values, [-0.2])

    def test_zero_boundary_gradient(self):
        # The subgradient at exactly 0 is fixed to the right-hand value 1.
        x = T.parameter([0.0])
        T.backward(T.sum_all(T.leaky_relu(x, 0.2)))
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_slope_range(self):
        with pytest.raises(ParameterError):
            T.leaky_relu(T.constant([1.0]), 1.5)


class TestLayerNorm:
    def _gain_bias(self, d, gain=1.0, bias=0.0):
        return T.constant(np.full(d, gain)), T.constant(np.full(d, bias))

    def test_constant_row_collapses_to_bias(self):
        g, b = self._gain_bias(3)
        out = T.layer_norm(T.constant([[5.0, 5.0, 5.0]]), g, b)
        np.testing.assert_allclose(out.values, [[0.0, 0.0, 0.0]], atol=1e-12)

    def test_already_normalized_row(self):
        g, b = self._gain_bias(2)
        out = T.layer_norm(T.constant([[1.0, -1.0]]), g, b, eps=1e-12)
        np.testing.assert_allclose(out.values, [[1.0, -1.0]], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        g, b = self._gain_bias(4, gain=0.0, bias=0.7)
        rng = stream(3, "ln-zero-gain")
        out = T.layer_norm(T.constant(rng.normal(size=(5, 4))), g, b)
        np.testing.assert_allclose(out.values, 0.7)

    def test_pre_affine_moments(self):
        rng = stream(4, "ln-moments")
        x = rng.normal(size=(30, 16)) * 3.0 + 1.0
        g, b = self._gain_bias(16)
        out = T.layer_norm(T.constant(x), g, b, eps=1e-10).values
        assert np.abs(out.mean(axis=1)).max() < 1e-6
        np.testing.assert_allclose(out.var(axis=1), 1.0, atol=1e-4)

    def test_empty_last_axis(self):
        g, b = self._gain_bias(0)
        with pytest.raises(ShapeError):
            T.layer_norm(T.constant(np.ones((2, 0))), g, b)


class TestDropout:
    def test_rate_zero_identity_both_modes(self):
        x = T.constant([[1.0, 2.0]])
        rng = stream(5, "drop0")
        assert T.dropout(x, 0.0, "train", rng) is x
        assert T.dropout(x, 0.0, "eval") is x

    def test_eval_mode_identity(self):
        x = T.constant([[1.0, 2.0]])
        assert T.dropout(x, 0.5, "eval") is x

    def test_train_zero_fraction(self):
        x = T.constant(np.ones(100_000))
        out = T.dropout(x, 0.5, "train", stream(6, "drop-frac"))
        zero_frac = float((out.values == 0).mean())
        assert abs(zero_frac - 0.5) < 0.01
        survivors = out.values[out.values != 0]
        np.testing.assert_allclose(survivors, 2.0)

    def test_rate_one_rejected(self):
        with pytest.raises(ParameterError):
            T.dropout(T.constant([1.0]), 1.0, "train", stream(7, "drop1"))

    def test_expectation_over_seeds(self):
        # Inverted dropout is unbiased: the seed-averaged output approaches
        # the input.  Rate 0.1 keeps the 1% band at 3 sigma for 1e4 seeds.
        x = np.array([1.0, -2.0, 3.0, 0.5])
        acc = np.zeros_like(x)
        n_seeds = 10_000
        for seed in range(n_seeds):
            acc += T.dropout(T.constant(x), 0.1, "train", stream(seed, "drop-mean")).values
        np.testing.assert_allclose(acc / n_seeds, x, rtol=0.01)


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

    def test_cross_entropy_label_range(self):
        from molfuse.errors import DataError

        with pytest.raises(DataError):
            T.cross_entropy(T.constant([[0.0, 0.0]]), [2])

    def test_mse_zero(self):
        x = T.constant([[1.0, 2.0]])
        assert T.mse(x, T.constant([[1.0, 2.0]])).item() == 0.0

    def test_mse_unit(self):
        assert T.mse(T.constant([1.0, -1.0]), T.constant([0.0, 0.0])).item() == 1.0

    def test_mse_against_loop_oracle(self):
        rng = stream(9, "mse-oracle")
        p, t = rng.normal(size=6), rng.normal(size=6)
        acc = 0.0
        for i in range(6):
            acc += (p[i] - t[i]) ** 2
        loss = T.mse(T.constant(p), T.constant(t))
        np.testing.assert_allclose(loss.item(), acc / 6, atol=1e-14)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.mse(T.constant([1.0]), T.constant([1.0, 2.0]))


class TestConstruction:
    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            T.Tensor([np.nan])
        with pytest.raises(NumericError):
            T.Tensor([np.inf])

    def test_shape_invariant(self):
        t = T.constant(np.ones((2, 3)))
        assert t.size == 6 and t.shape == (2, 3)

    @pytest.mark.parametrize("magnitude", [1e155, 1e200, 1.7e308])
    def test_huge_finite_accepted(self, magnitude):
        # The sum of squares overflows here; the exact fallback must still accept.
        x = np.full((4, 3), magnitude)
        x[::2] *= -1.0
        np.testing.assert_array_equal(T.constant(x).values, x)
        np.testing.assert_array_equal(T.constant(x.T).values, x.T)


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
# The same ids tiled past the bincount threshold, so nonzero-width rows take the CSC path.
SCATTER_IDS_TILED = np.tile(SCATTER_IDS, T._BINCOUNT_MAX_ELEMENTS // len(SCATTER_IDS) + 1)


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


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape and same bytes, so -0.0 and 0.0 differ."""
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestScatterAgainstReference:
    """Segment sums, maxima and the gather_rows backward equal the unbuffered
    NumPy scatters bit for bit, on both sides of the bincount threshold."""

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3), (0,), (2, 0)]))
    def test_segment_sum(self, ids, trailing):
        x = scatter_rows(ids, trailing, stream(12, "scatter-sum"))
        out = T.segment_sum(T.constant(x), ids, SCATTER_SEGMENTS)
        assert out.shape == (SCATTER_SEGMENTS,) + trailing
        assert_bits_equal(out.values, scatter_sum_reference(ids, x, SCATTER_SEGMENTS))

    def test_segment_sum_no_rows(self):
        out = T.segment_sum(T.constant(np.zeros((0, 3))), np.zeros(0, dtype=int), 4)
        assert_bits_equal(out.values, np.zeros((4, 3)))

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3)]))
    def test_segment_softmax_and_gradient(self, ids, trailing):
        rng = stream(13, "scatter-softmax")
        x = scatter_rows(ids, trailing, rng)
        upstream = scatter_rows(ids, trailing, rng)
        expected = segment_softmax_reference(x, ids, SCATTER_SEGMENTS)
        a = T.parameter(x)
        out = T.segment_softmax(a, ids, SCATTER_SEGMENTS)
        assert_bits_equal(out.values, expected)
        T.backward(T.sum_all(T.mul(out, T.constant(upstream))))
        dot = scatter_sum_reference(ids, upstream * expected, SCATTER_SEGMENTS)
        assert_bits_equal(a.grad, expected * (upstream - dot[ids]))

    @pytest.mark.parametrize("ids, trailing", small_and_tiled([(), (3,), (2, 3)]))
    def test_gather_rows_gradient(self, ids, trailing):
        rng = stream(14, "scatter-gather")
        a = T.parameter(rng.normal(size=(SCATTER_SEGMENTS,) + trailing))
        upstream = scatter_rows(ids, trailing, rng)
        T.backward(T.sum_all(T.mul(T.gather_rows(a, ids), T.constant(upstream))))
        assert_bits_equal(a.grad, scatter_sum_reference(ids, upstream, SCATTER_SEGMENTS))

    def test_gather_rows_gradient_non_contiguous_upstream(self):
        # transpose hands gather_rows a transposed (non-contiguous) gradient.
        rng = stream(15, "scatter-gather-t")
        a = T.parameter(rng.normal(size=(SCATTER_SEGMENTS, 3)))
        upstream = rng.normal(size=(3, len(SCATTER_IDS)))
        picked = T.transpose(T.gather_rows(a, SCATTER_IDS))
        T.backward(T.sum_all(T.mul(picked, T.constant(upstream))))
        np.testing.assert_array_equal(a.grad, scatter_sum_reference(SCATTER_IDS, upstream.T, SCATTER_SEGMENTS))

    def test_gather_rows_empty_index(self):
        a = T.parameter(np.ones((4, 3)))
        picked = T.gather_rows(a, np.zeros(0, dtype=int))
        assert picked.shape == (0, 3)
        T.backward(T.sum_all(picked))
        np.testing.assert_array_equal(a.grad, np.zeros((4, 3)))


class TestFiniteCheckAndGradientContracts:
    def test_checked_ops_reject_overflow(self):
        with np.errstate(over="ignore"):
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

    def test_interior_grads_are_read_only(self):
        a = T.parameter([1.0, 2.0])
        y = T.mul(a, a)
        T.backward(T.sum_all(y))
        assert y.backward_rule is not None
        assert not y.grad.flags.writeable
        assert a.grad.flags.writeable
