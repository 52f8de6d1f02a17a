"""Deterministic random streams on the counter-based Philox generator.

Every stochastic operation in the package (weight init, shuffling) takes an
explicit generator, obtained here from a (seed, name) pair.  Streams with
different names are statistically independent and stable across runs and
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ParameterError, _integer


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the named generator for a non-negative integer seed.

    The name is hashed into the Philox key so that e.g. ``stream(7, "init")``
    and ``stream(7, "shuffle")`` never overlap.  The seed is read with
    ``operator.index``, so numpy integers give the same stream as the equal
    ``int``; a ``bool``, a negative or a non-integer seed raises
    :class:`~molfuse.errors.ParameterError`, and so does a name that is not
    a ``str``.
    """
    value = _integer(seed)
    if value is None or value < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r} ({type(seed).__name__})")
    if not isinstance(name, str):
        raise ParameterError(f"stream name must be a str, got {name!r} ({type(name).__name__})")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([value, key])))
