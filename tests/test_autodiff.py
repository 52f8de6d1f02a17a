"""Reverse-mode differentiation: tape structure, accumulation, and the
finite-difference suite over every registered op."""

import inspect
import threading

import numpy as np
import pytest

from molfuse import tensor as T
from molfuse.errors import ShapeError
from molfuse.gradcheck import OP_CASES, check_case, max_relative_error
from molfuse.rng import stream
from molfuse.tensor import Tape


class TestBackwardBasics:
    def test_sum_gradient_is_ones(self):
        x = T.parameter(np.arange(6.0).reshape(2, 3))
        T.backward(T.sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        x = T.parameter([1.0, -2.0, 3.0])
        T.backward(T.sum_all(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.values)

    def test_non_scalar_loss_rejected(self):
        x = T.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            T.backward(T.mul(x, x))

    def test_fanout_accumulates_k_fold(self):
        # y is consumed three times; its leaf gradient must triple.
        x = T.parameter([2.0])
        y = T.mul(x, x)
        total = T.add(T.add(y, y), y)
        T.backward(T.sum_all(total))
        np.testing.assert_allclose(x.grad, [3 * 2 * 2.0])

    def test_grads_accumulate_across_backward_calls(self):
        x = T.parameter([1.0])
        T.backward(T.sum_all(x))
        T.backward(T.sum_all(x))
        np.testing.assert_allclose(x.grad, [2.0])
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_over_one_graph_gives_the_same_grad(self):
        # The interior scale output must not carry its first grad into the
        # second sweep.
        x = T.parameter([1.0, 2.0])
        loss = T.sum_all(T.scale(x, 2.0))
        T.backward(loss)
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0, 4.0])

    def test_shared_interior_tensor_in_two_losses(self):
        x = T.parameter([1.0])
        y = T.scale(x, 2.0)
        T.backward(T.sum_all(y))
        T.backward(T.sum_all(T.scale(y, 3.0)))
        np.testing.assert_array_equal(x.grad, [8.0])
        assert y.grad is None

    def test_no_grad_suppresses_recording(self):
        x = T.parameter([1.0])
        with T.no_grad():
            y = T.mul(x, x)
        assert y.backward_rule is None and not y.requires_grad

    def test_one_no_grad_instance_nests(self):
        x = T.parameter([1.0])
        guard = T.no_grad()
        with guard:
            with guard:
                inner = T.mul(x, x)
            middle = T.mul(x, x)
        assert not inner.requires_grad and not middle.requires_grad
        y = T.mul(x, x)
        assert y.requires_grad and y.backward_rule is not None

    def test_threads_sharing_one_no_grad_exit_in_entry_order(self):
        # A enters, B enters, A exits, B exits; each thread's mode follows
        # its own entries.
        x = T.parameter([1.0])
        guard = T.no_grad()
        a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))
        modes = {}

        def run(name, enter_after, entered, exit_after, exited):
            try:
                assert enter_after.wait(timeout=10)
                with guard:
                    entered.set()
                    assert exit_after.wait(timeout=10)
                    modes[f"{name} inside"] = T.mul(x, x).requires_grad
                modes[f"{name} after"] = T.mul(x, x).requires_grad
            except Exception as exc:  # reported by the assert below
                modes[name] = exc
            finally:
                exited.set()

        start = threading.Event()
        start.set()
        threads = [
            threading.Thread(target=run, args=("A", start, a_in, b_in, a_out)),
            threading.Thread(target=run, args=("B", a_in, b_in, a_out, b_out)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert modes == {"A inside": False, "A after": True, "B inside": False, "B after": True}

    def test_no_grad_in_one_thread_leaves_others_recording(self):
        x = T.parameter([1.0])
        entered, release = threading.Event(), threading.Event()
        held = []

        def hold():
            with T.no_grad():
                held.append(T.mul(x, x))
                entered.set()
                release.wait(timeout=10)

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            y = T.mul(x, x)
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert not held[0].requires_grad
        assert y.requires_grad and y.backward_rule is not None


class TestTape:
    def test_inputs_precede_outputs(self):
        a = T.parameter([1.0, 2.0])
        b = T.parameter([3.0, 4.0])
        c = T.mul(a, b)
        d = T.add(c, a)
        loss = T.sum_all(d)
        tape = Tape.trace(loss)
        assert len(tape) == 3  # mul, add, sum
        assert tape[-1].backward_rule is loss.backward_rule
        position = {id(node): i for i, node in enumerate(tape)}
        for i, node in enumerate(tape):
            for inp in node.inputs:
                # An entry is a leaf, None, or an input's node, which must be taped earlier.
                if inp is not None and not isinstance(inp, T.Tensor):
                    assert position[id(inp)] < i

    def test_each_op_recorded_once(self):
        x = T.parameter([1.0])
        y = T.mul(x, x)
        z = T.add(y, y)  # diamond: y reachable twice from z
        tape = Tape.trace(T.sum_all(z))
        ids = [id(node) for node in tape]
        assert len(ids) == len(set(ids)) == 3  # mul, add, sum
        assert [node.op for node in tape] == ["mul", "add", "sum_all"]


class TestFiniteDifferenceSuite:
    def test_registry_covers_differentiable_ops(self):
        expected = {
            "add", "mul", "scale", "matmul", "gather_rows", "sum_all",
            "leaky_relu", "elu", "gelu", "softmax", "layer_norm",
            "segment_sum", "segment_softmax", "cross_entropy",
        }
        assert set(OP_CASES) == expected
        public = {
            name for name, obj in vars(T).items()
            if inspect.isfunction(obj) and obj.__module__ == T.__name__ and not name.startswith("_")
        }
        assert public - {"backward", "constant", "parameter", "zero_grads"} == set(OP_CASES)

    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_op_gradient(self, name):
        for seed in (0, 1):
            err = check_case(name, n_points=10, seed=seed)
            assert err < 1e-4, f"{name}, seed {seed}: max relative error {err:.3e}"


class TestCompositeGradients:
    def test_ten_random_points_on_mixed_graph(self):
        """FD oracle on a composite graph touching several op kinds at once."""
        from molfuse.gradcheck import max_relative_error

        rng = stream(17, "composite")
        w1 = T.parameter(rng.normal(size=(4, 6)))
        w2 = T.parameter(rng.normal(size=(6, 2)))
        x = T.constant(rng.normal(size=(3, 4)))
        labels = np.array([0, 1, 0])

        def make_loss():
            h = T.gelu(T.matmul(x, w1))
            g = T.constant(np.ones(6))
            b = T.constant(np.zeros(6))
            h = T.layer_norm(h, g, b)
            return T.cross_entropy(T.matmul(h, w2), labels)

        err = max_relative_error({"w1": w1, "w2": w2}, make_loss, n_points=10, rng=stream(18, "pts"))
        assert err < 1e-4

    @pytest.mark.parametrize("wrong", ["w1", "w2"])
    def test_every_parameter_is_checked_along_a_direction(self, wrong, monkeypatch):
        """With no coordinate picks, a gradient a thousandth off in either parameter still fails."""
        rng = stream(23, "directions")
        params = {"w1": T.parameter(rng.normal(size=(4, 6))), "w2": T.parameter(rng.normal(size=(6, 2)))}
        x = T.constant(rng.normal(size=(3, 4)))

        def make_loss():
            return T.cross_entropy(T.matmul(T.gelu(T.matmul(x, params["w1"])), params["w2"]), np.array([0, 1, 0]))

        assert max_relative_error(params, make_loss, n_points=0, rng=stream(24, "pts")) < 1e-6
        accumulate = T._accumulate
        monkeypatch.setattr(
            T, "_accumulate", lambda leaf, grad: accumulate(leaf, grad * 1.001 if leaf is params[wrong] else grad)
        )
        assert max_relative_error(params, make_loss, n_points=0, rng=stream(24, "pts")) >= 1e-4

    def test_empty_parameter_is_checked_without_error(self):
        w, empty = T.parameter([1.0, -2.0, 0.5]), T.parameter(np.zeros((0, 2)))

        def make_loss():
            return T.sum_all(T.mul(w, w))

        assert max_relative_error({"w": w, "empty": empty}, make_loss, n_points=3, rng=stream(25, "pts")) < 1e-6

    def test_parameters_are_restored_byte_for_byte(self):
        # _directional reassigns perturbed copies; each parameter ends as it began.
        rng = stream(21, "restored")
        params = {"w": T.parameter(rng.normal(size=(3, 4))), "b": T.parameter(rng.normal(size=4))}
        x = T.constant(rng.normal(size=(2, 3)))
        before = {name: p.values.tobytes() for name, p in params.items()}

        def make_loss():
            h = T.matmul(x, params["w"]) + params["b"]
            return T.sum_all(T.mul(h, h))

        max_relative_error(params, make_loss, n_points=10, rng=stream(22, "pts"))
        for name, p in params.items():
            assert p.values.tobytes() == before[name], name
            assert not p.values.flags.writeable, name

    def test_non_contiguous_parameter(self):
        from molfuse.gradcheck import max_relative_error

        rng = stream(19, "transposed")
        w = T.parameter(rng.normal(size=(3, 4)).T)
        assert not w.values.flags.c_contiguous
        x = T.constant(rng.normal(size=(2, 4)))

        def make_loss():
            h = T.matmul(x, w)
            return T.sum_all(T.mul(h, h))

        err = max_relative_error({"w": w}, make_loss, n_points=10, rng=stream(20, "pts"))
        assert err < 1e-4
