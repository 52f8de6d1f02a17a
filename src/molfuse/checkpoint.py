"""Checkpoint files: text header followed by flat little-endian float64 arrays.

Layout::

    molfuse-checkpoint 1
    dtype float64 little-endian
    param <name> <d0>x<d1>x...
    ...
    end
    <raw bytes, one flat array per param line, in header order>

Round-trips are bit-exact: saving and reloading reproduces every array and
re-saving reproduces the file bytes.  A save writes a temporary file beside
the target and renames it over the target, so a failed save leaves any
earlier file as it was; the replacement keeps that file's permission bits.
A symlinked target is written through, and the link stays.  A save refuses
a NaN or infinite value with :class:`NumericError` naming its parameter, and
a name or shape whose header line would not load back with
:class:`DataError`.  Every malformed file raises
:class:`DataError`; a fault in a header line names its line number, and a
NaN or infinite value names its parameter.
"""

from __future__ import annotations

import math
import os
import re
import stat
import threading
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .tensor import Tensor, _all_finite

MAGIC = "molfuse-checkpoint 1"
DTYPE_LINE = "dtype float64 little-endian"
# A name is a run of non-space characters UTF-8 can encode (no lone
# surrogates); numpy 1.x arrays have at most 32 dims.
_PARAM_LINE = re.compile(r"param ([^\s\ud800-\udfff]+) (scalar|[0-9]+(?:x[0-9]+){0,31})")


def save_params(path: str | Path, params: dict[str, Tensor]) -> None:
    lines = [MAGIC, DTYPE_LINE]
    for name, p in params.items():
        dims = "x".join(str(d) for d in p.shape) if p.shape else "scalar"
        line = f"param {name} {dims}"
        if _PARAM_LINE.fullmatch(line) is None:
            raise DataError(f"parameter {name!r} of shape {p.shape} has no header line that loads back")
        lines.append(line)
    lines.append("end")
    header = ("\n".join(lines) + "\n").encode("utf-8")
    # Through a symlink, write to its target and leave the link in place.
    path = Path(path).resolve()
    # One temporary name per process and thread, so concurrent saves never share one.
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for name, p in params.items():
                values = np.ascontiguousarray(p.values, dtype="<f8")
                if not _all_finite(values):
                    raise NumericError(f"non-finite value in parameter {name!r}")
                fh.write(values.tobytes())
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:  # a new file keeps the default mode
            pass
        else:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint back into plain arrays keyed by parameter name."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        head_end = blob.index(b"end\n") + len(b"end\n")
    except ValueError:
        raise DataError(f"{path}: missing checkpoint header terminator")
    header: list[str] = []
    for number, raw in enumerate(blob[:head_end].split(b"\n")[:-1], start=1):
        try:
            header.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise DataError(f"{path}: line {number}: header is not UTF-8") from None
    if header[0] != MAGIC:
        raise DataError(f"{path}: not a molfuse checkpoint (bad magic)")
    if header[1] != DTYPE_LINE:
        raise DataError(f"{path}: line 2: unsupported dtype line {header[1]!r}")
    if header[-1] != "end":
        raise DataError(f"{path}: line {len(header)}: header does not end with 'end'")
    shapes: dict[str, tuple[int, ...]] = {}
    for number, line in enumerate(header[2:-1], start=3):
        match = _PARAM_LINE.fullmatch(line)
        if match is None:
            raise DataError(f"{path}: line {number}: malformed header line {line!r}")
        name, dims = match.groups()
        if name in shapes:
            raise DataError(f"{path}: line {number}: duplicate parameter {name!r}")
        shapes[name] = () if dims == "scalar" else tuple(int(d) for d in dims.split("x"))
    out: dict[str, np.ndarray] = {}
    offset = head_end
    for name, shape in shapes.items():
        nbytes = math.prod(shape) * 8
        chunk = blob[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise DataError(f"{path}: truncated data for parameter {name!r}")
        values = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        if not _all_finite(values):
            raise DataError(f"{path}: non-finite value in parameter {name!r}")
        out[name] = values
        offset += nbytes
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes after last parameter")
    return out


def load_into(path: str | Path, params: dict[str, Tensor]) -> None:
    """Load a checkpoint into an existing parameter collection, checking shapes.

    All or nothing: every name and shape is checked before the first
    assignment, so a ``DataError`` leaves every parameter as it was.
    """
    arrays = load_arrays(path)
    if set(arrays) != set(params):
        missing = set(params) - set(arrays)
        extra = set(arrays) - set(params)
        raise DataError(f"{path}: parameter names differ (missing {sorted(missing)}, extra {sorted(extra)})")
    for name, p in params.items():
        if arrays[name].shape != p.shape:
            raise DataError(f"{path}: shape mismatch for {name!r}: {arrays[name].shape} vs {p.shape}")
    for name, p in params.items():
        p.values = arrays[name]
