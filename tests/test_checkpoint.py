"""Checkpoint round trips must be bit-exact."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molfuse import tensor as T
from molfuse.checkpoint import load_arrays, load_into, save_params
from molfuse.errors import DataError, NumericError
from molfuse.rng import stream


@pytest.fixture
def params():
    rng = stream(21, "ckpt")
    return {
        "gat.0.W": T.parameter(rng.normal(size=(9, 16))),
        "gat.0.Wa": T.parameter(rng.normal(size=(32, 1))),
        "head.bias": T.parameter(rng.normal(size=3)),
        "scalar": T.parameter(rng.normal()),
    }


def test_round_trip_bit_exact(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    loaded = load_arrays(path)
    assert list(loaded) == list(params)
    for name, p in params.items():
        assert loaded[name].shape == p.shape
        assert np.array_equal(loaded[name], p.values)
        assert loaded[name].tobytes() == p.values.tobytes()


def test_resave_reproduces_file_bytes(tmp_path, params):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_params(a, params)
    reloaded = {name: T.parameter(arr) for name, arr in load_arrays(a).items()}
    save_params(b, reloaded)
    assert a.read_bytes() == b.read_bytes()


def test_load_into_replaces_values(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    fresh = {name: T.parameter(np.zeros(p.shape)) for name, p in params.items()}
    load_into(path, fresh)
    for name in params:
        assert np.array_equal(fresh[name].values, params[name].values)


def test_load_into_rejects_name_mismatch(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    wrong = {"other": T.parameter(np.zeros(2))}
    with pytest.raises(DataError):
        load_into(path, wrong)


def test_truncated_file_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DataError):
        load_arrays(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint\nend\n")
    with pytest.raises(DataError):
        load_arrays(path)


@pytest.mark.parametrize(
    "body, line",
    [
        (b"param a\n", 3),
        (b"param a 2xq\n", 3),
        (b"param a 3x\n", 3),
        (b"param \xff 2\n", 3),
        (b"param a -1\n", 3),
        (b"param a 1\nparam a 1\n", 4),
        (b"param a " + b"x".join([b"1"] * 33) + b"\n", 3),
        (b"param a 2x", 3),  # the terminator glued to a parameter line
    ],
    ids=["field-count", "letter-dim", "empty-dim", "not-utf8", "negative-dim", "duplicate",
         "too-many-dims", "glued-end"],
)
def test_malformed_header_line_names_its_line(tmp_path, body, line):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"molfuse-checkpoint 1\ndtype float64 little-endian\n" + body + b"end\n" + bytes(16))
    with pytest.raises(DataError, match=f"line {line}:"):
        load_arrays(path)


def _valid_checkpoint(path) -> bytes:
    rng = stream(22, "ckpt-fuzz")
    save_params(path, {"w": T.parameter(rng.normal(size=(2, 3))), "b": T.parameter(rng.normal())})
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    cut=st.integers(0, 120),
    flips=st.lists(st.tuples(st.integers(0, 119), st.integers(1, 255)), max_size=3),
)
def test_corrupted_checkpoint_loads_or_raises_data_error(tmp_path_factory, cut, flips):
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    blob = bytearray(_valid_checkpoint(path))
    for at, mask in flips:
        blob[at % len(blob)] ^= mask
    path.write_bytes(bytes(blob[: len(blob) - cut]))
    try:
        load_arrays(path)
    except DataError:
        pass


def test_non_finite_checkpoint_caught_by_first_op(tmp_path, params):
    # load_into assigns values without a check; the first op that reads them must raise.
    bad = params["gat.0.W"]
    bad.values = bad.values.copy()
    bad.values[2, 5] = np.nan
    path = tmp_path / "nan.ckpt"
    save_params(path, params)
    fresh = {name: T.parameter(np.zeros(p.shape)) for name, p in params.items()}
    load_into(path, fresh)
    with pytest.raises(NumericError):
        T.gather_rows(fresh["gat.0.W"], [2])
