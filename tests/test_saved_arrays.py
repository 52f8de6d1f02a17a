"""What the autograd graph keeps (``molfuse.tensor``, Saved arrays).

A recorded op keeps only the arrays its backward rule reads, taken when the
op runs.  So an op result that no rule reads is freed as soon as the caller
drops it, even while the loss is held, and reassigning a leaf's ``values``
between forward and backward leaves that graph's gradients as they were.
No array the graph keeps can be edited in place: a leaf holds a read-only
copy of the caller's array.
"""

import runpy
import weakref
from pathlib import Path

import numpy as np
import pytest

from molfuse import model
from molfuse import tensor as T
from molfuse.model import collate, forward, init_params
from molfuse.rng import stream
from molfuse.smiles import featurize

Generator = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"))["Generator"]

# op, input shapes; every input is a leaf that requires gradients.
FORWARD_TIME_CASES = {
    "mul": (T.mul, ((3, 4), (3, 4))),
    "matmul": (T.matmul, ((3, 4), (4, 2))),
    "layer_norm": (T.layer_norm, ((3, 4), (4,), (4,))),
    "elu": (T.elu, ((3, 4),)),
    "gelu": (T.gelu, ((3, 4),)),
}


@pytest.mark.parametrize("name", FORWARD_TIME_CASES)
def test_gradients_use_the_values_the_forward_used(name):
    op, shapes = FORWARD_TIME_CASES[name]
    rng = stream(31, f"forward-time:{name}")
    arrays = [rng.normal(size=shape) for shape in shapes]
    weights = T.constant(rng.normal(size=op(*[T.constant(x) for x in arrays]).shape))

    def grads(reassign: bool) -> list[bytes]:
        leaves = [T.parameter(x) for x in arrays]
        loss = T.sum_all(T.mul(op(*leaves), weights))
        if reassign:  # as adam_step and load_into do
            for leaf in leaves:
                leaf.values = leaf.values * 10.0 + 1.0
        T.backward(loss)
        return [leaf.grad.tobytes() for leaf in leaves]

    assert grads(reassign=True) == grads(reassign=False)


# op, input shapes, and the shapes of the arrays its rule keeps.
KEPT_ARRAYS = {
    "layer_norm": (T.layer_norm, ((5, 4), (4,), (4,)), [(4,), (5, 1), (5, 4)]),  # gain, inv_std, x̂
    "elu": (T.elu, ((5, 4),), [(5, 4)]),  # expm1
}


@pytest.mark.parametrize("name", KEPT_ARRAYS)
def test_fused_rules_keep_only_what_they_read(name):
    op, shapes, kept = KEPT_ARRAYS[name]
    rng = stream(33, f"kept:{name}")
    rule = op(*[T.parameter(rng.normal(size=shape)) for shape in shapes]).backward_rule
    arrays = [cell.cell_contents for cell in rule.__closure__ if isinstance(cell.cell_contents, np.ndarray)]
    assert sorted(arr.shape for arr in arrays) == kept


def test_editing_the_callers_array_after_the_forward_changes_nothing():
    mask = np.array([1.0, 2.0, 3.0])
    x = T.parameter(np.zeros(3))
    loss = T.sum_all(T.mul(x, T.constant(mask)))
    mask[:] = 0.0
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])


def test_in_place_leaf_write_raises_and_leaves_the_gradient():
    p = T.parameter([1.0, 1.0])
    loss = T.sum_all(T.mul(p, p))
    with pytest.raises(ValueError):
        p.values[0] = 5.0
    T.backward(loss)
    np.testing.assert_array_equal(p.grad, [2.0, 2.0])


def test_outputs_no_rule_reads_are_freed_while_the_loss_is_held():
    rng = stream(32, "freed")
    a = T.parameter(rng.normal(size=(6, 3)))
    b = T.parameter(rng.normal(size=(6, 3)))
    product = T.mul(a, b)  # read only by segment_sum, which keeps its ids
    summed = T.segment_sum(product, np.array([0, 0, 1, 1, 2, 2]), 3)
    projected = T.matmul(summed, T.constant(rng.normal(size=(3, 2))))  # its rule keeps the constant
    loss = T.sum_all(projected)  # keeps a shape
    refs = [weakref.ref(t.values) for t in (product, summed, projected)]
    del product, summed, projected
    assert [ref() is None for ref in refs] == [True, True, True]

    T.backward(loss)
    first = a.grad.copy(), b.grad.copy()
    T.backward(loss)
    np.testing.assert_array_equal(a.grad, 2.0 * first[0])
    np.testing.assert_array_equal(b.grad, 2.0 * first[1])


def test_attention_products_are_freed_before_backward(monkeypatch):
    # The training batch of tests/test_model_bounds.py: 32 molecules of 8-24 atoms.
    mols = Generator(stream(7, "bounds:train_b32"), 8, 24).take(32)
    params = init_params(stream(7, "init"))
    products, attending = [], []
    made, attention = T._make, model._segment_attention

    def spy(values, op, inputs, backward_rule, bound):
        t = made(values, op, inputs, backward_rule, bound)
        if op == "mul" and attending:
            products.append(weakref.ref(t.values))
        return t

    def spied_attention(*args):
        attending.append(True)
        try:
            return attention(*args)
        finally:
            attending.pop()

    monkeypatch.setattr(T, "_make", spy)
    monkeypatch.setattr(model, "_segment_attention", spied_attention)
    logits = forward(params, collate([featurize(m.smiles) for m in mols]))
    loss = T.cross_entropy(logits, np.array([m.label for m in mols]))
    assert len(products) == 4  # scores and weighted values, in the token and the cross attention
    assert [ref() is None for ref in products] == [True] * 4
    T.backward(loss)
    assert all(p.grad is not None for p in params.values())
