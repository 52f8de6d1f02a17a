"""Named seeded streams: which seeds are accepted, and that streams stay fixed."""

import math

import numpy as np
import pytest

from molfuse.errors import ParameterError
from molfuse.rng import stream


@pytest.mark.parametrize("seed", [1.7, True, -1, math.nan], ids=["float", "bool", "negative", "nan"])
def test_a_seed_that_is_not_a_non_negative_integer_raises_parameter_error(seed):
    with pytest.raises(ParameterError, match=rf"^seed must be a non-negative integer, got {seed!r} \("):
        stream(seed, "x")


def test_numpy_integer_seeds_give_the_int_seeds_stream():
    expected = stream(7, "init").bytes(64)
    for seed in (np.int64(7), np.uint8(7), np.int32(7)):
        assert stream(seed, "init").bytes(64) == expected


def test_streams_are_pinned():
    assert stream(7, "init").integers(0, 2**62, size=3).tolist() == [
        2697392570009394289,
        3973523351530020523,
        3561013653431118612,
    ]
    assert stream(0, "shuffle").integers(0, 2**62, size=2).tolist() == [3697843734208111488, 4068309977524084975]
