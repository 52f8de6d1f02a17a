"""Malformed array input at the package boundary raises ``DataError``.

Tensor values, ``gather_rows`` indices, segment ids, ``cross_entropy``
labels and ``model.collate``'s features matrices and bonds are all read by
``errors._array``.  Ragged nesting, strings, bytes, ``None``, complex
numbers and object arrays raise :class:`~molfuse.errors.DataError` there,
under warnings as errors, and never numpy's raw ``ValueError`` or a
``TypeError``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfuse import model
from molfuse import tensor as T
from molfuse.errors import DataError
from molfuse.smiles import MolecularGraph, featurize

_ETHANE = featurize("CC")
_ROWS = T.constant(np.ones((3, 2)))

# Where each reader takes caller input: one call per slot, with every other
# argument valid.
SLOTS = {
    "tensor values": T.constant,
    "assigned values": lambda bad: setattr(T.parameter([1.0]), "values", bad),
    "gather_rows indices": lambda bad: T.gather_rows(_ROWS, bad),
    "segment_sum ids": lambda bad: T.segment_sum(_ROWS, bad, 2),
    "segment_softmax ids": lambda bad: T.segment_softmax(_ROWS, bad, 2),
    "cross_entropy labels": lambda bad: T.cross_entropy(_ROWS, bad),
    "collate features": lambda bad: model.collate([_ETHANE, MolecularGraph(bad, (), "CC")]),
    "collate bond": lambda bad: model.collate([_ETHANE, MolecularGraph(_ETHANE.features, [bad], "CC")]),
}

_numbers = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))


@st.composite
def ragged(draw):
    """A nesting numpy cannot make rectangular: two rows of unequal length,
    or a number beside a sequence."""
    first, second = draw(st.lists(_numbers, max_size=4)), draw(st.lists(_numbers, max_size=4))
    if len(first) == len(second):
        return draw(st.permutations([first, draw(_numbers)]))
    return [first, second]


def _one_or_more(elements):
    return st.one_of(elements, st.lists(elements, min_size=1, max_size=4))


MALFORMED = st.one_of(
    ragged(),
    _one_or_more(st.text(max_size=4)),
    _one_or_more(st.binary(max_size=4)),
    _one_or_more(st.none()),
    _one_or_more(st.complex_numbers(allow_nan=False, allow_infinity=False)),
    st.lists(_numbers, min_size=1, max_size=4).map(lambda xs: np.array(xs, dtype=object)),
)


@pytest.mark.parametrize("slot", SLOTS)
@settings(max_examples=60, deadline=None)
@given(bad=MALFORMED)
def test_malformed_input_raises_data_error(slot, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError):
            SLOTS[slot](bad)


@pytest.mark.parametrize(
    "slot, name",
    [
        ("tensor values", "tensor values"),
        ("gather_rows indices", "gather_rows indices"),
        ("segment_sum ids", "segment ids"),
        ("cross_entropy labels", "cross_entropy labels"),
        ("collate features", "collate features of molecule 1"),
        ("collate bond", "collate bonds"),
    ],
)
def test_ragged_input_names_the_argument(slot, name):
    with pytest.raises(DataError, match=f"^{name} must be a rectangular array: setting an array element"):
        SLOTS[slot]([[1, 2], [3]])


def test_ragged_values_keep_the_old_values():
    leaf = T.parameter([1.0, 2.0])
    before = leaf.values
    with pytest.raises(DataError, match=r"^tensor values must be a rectangular array: "):
        leaf.values = [[1.0, 2.0], [3.0]]
    assert leaf.values is before and leaf._max >= 2.0


def test_nesting_deeper_than_numpy_holds_raises_data_error():
    deep = [0.0]
    for _ in range(70):
        deep = [deep]
    with pytest.raises(DataError, match=r"^tensor values must be a rectangular array: .*maximum number of dimension"):
        T.constant(deep)

