"""Checkpoint round trips must be bit-exact."""

import os
import re
import stat

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


# The fixture's first and last parameters; a mismatch on either must leave
# every parameter as it was.
@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("gat.0.W", (16, 9), r"shape mismatch for 'gat\.0\.W': \(9, 16\) vs \(16, 9\)"),
        ("scalar", (1,), r"shape mismatch for 'scalar': \(\) vs \(1,\)"),
    ],
    ids=["first", "last"],
)
def test_load_into_rejects_shape_mismatch(tmp_path, params, name, shape, message):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    wrong = {n: T.parameter(np.zeros(p.shape)) for n, p in params.items()}
    wrong[name] = T.parameter(np.zeros(shape))
    before = {n: p.values for n, p in wrong.items()}
    with pytest.raises(DataError, match=message):
        load_into(path, wrong)
    for n, p in wrong.items():
        assert p.values is before[n]


def test_trailing_bytes_rejected(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    path.write_bytes(path.read_bytes() + bytes(3))
    with pytest.raises(DataError, match="3 trailing bytes after last parameter"):
        load_arrays(path)


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


def test_non_finite_checkpoint_caught_by_first_op(params):
    # Tensor.values may be reassigned unchecked; the first op that reads a NaN must raise.
    bad = params["gat.0.W"]
    bad.values = bad.values.copy()
    bad.values[2, 5] = np.nan
    with pytest.raises(NumericError):
        T.gather_rows(bad, [2])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_non_finite_value_names_its_parameter(tmp_path, params, value):
    path = tmp_path / "bad.ckpt"
    save_params(path, params)
    blob = bytearray(path.read_bytes())
    # head.bias[1] follows the header, gat.0.W (9x16), gat.0.Wa (32) and head.bias[0].
    at = blob.index(b"end\n") + 4 + (9 * 16 + 32 + 1) * 8
    blob[at : at + 8] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="parameter 'head.bias'"):
        load_arrays(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_save_rejects_non_finite_value(tmp_path, params, value):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    before = path.read_bytes()
    bad = params["head.bias"]
    bad.values = bad.values.copy()  # direct assignment skips the construction check
    bad.values[1] = value
    with pytest.raises(NumericError, match="parameter 'head.bias'"):
        save_params(path, params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.parametrize(
    "name, shape",
    [
        pytest.param("", (2,), id="empty"),
        pytest.param("a\ud800", (2,), id="lone-surrogate"),
        pytest.param("two words", (2,), id="whitespace"),
        pytest.param("deep", (1,) * 33, id="33-dims", marks=pytest.mark.skipif(
            np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1.x arrays have at most 32 dims")),
    ],
)
def test_save_rejects_header_that_would_not_load(tmp_path, name, shape):
    with pytest.raises(DataError, match=re.escape(repr(name))):
        save_params(tmp_path / "model.ckpt", {"ok": T.parameter(1.0), name: T.parameter(np.ones(shape))})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "symlink"), reason="no os.symlink")
def test_save_through_symlink_writes_target(tmp_path, params):
    real, link = tmp_path / "real.ckpt", tmp_path / "link.ckpt"
    save_params(real, {"w": T.parameter(np.zeros(2))})
    try:
        os.symlink(real, link)
    except OSError as exc:  # e.g. Windows without the symlink privilege
        pytest.skip(f"cannot create a symlink: {exc}")
    save_params(link, params)
    assert link.is_symlink()
    assert list(load_arrays(real)) == list(params)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.ckpt", "real.ckpt"]


class _UnreadableValues:
    """A parameter whose values fail to read after the header is written."""

    shape = (2,)

    @property
    def values(self):
        raise OSError("device lost")


def test_failed_save_keeps_old_file(tmp_path, params):
    path = tmp_path / "model.ckpt"
    save_params(path, params)
    before = path.read_bytes()
    with pytest.raises(OSError, match="device lost"):
        save_params(path, {**params, "late": _UnreadableValues()})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
def test_resave_keeps_file_mode(tmp_path, params):
    path, fresh = tmp_path / "model.ckpt", tmp_path / "fresh.ckpt"
    save_params(path, params)
    os.chmod(path, 0o600)
    save_params(path, params)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    save_params(fresh, params)
    fresh.with_name("plain").touch()
    assert fresh.stat().st_mode == fresh.with_name("plain").stat().st_mode
