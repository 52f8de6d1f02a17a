"""Deterministic random streams on the counter-based Philox generator.

Every stochastic operation in the package (weight init, shuffling) takes an
explicit generator, obtained here from a (seed, name) pair.  Streams with
different names are statistically independent and stable across runs and
platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the named generator for an integer seed.

    The name is hashed into the Philox key so that e.g. ``stream(7, "init")``
    and ``stream(7, "shuffle")`` never overlap.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), key])))
