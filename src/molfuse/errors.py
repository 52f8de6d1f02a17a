"""Exception types shared across the package, and the integer, real and
array readers behind several of their checks.  ``_array`` is the one reader
of caller arrays: tensor values, index arguments and ``model.collate``'s
features and bonds.

Exit-code contract for the command line (``molfuse.cli``, not written yet):
a :class:`NumericError` exits 1; every other :class:`MolfuseError`, a usage
or data error, exits 2.
"""

import math
import numbers
import operator

import numpy as np


class MolfuseError(Exception):
    """Base class for all package errors."""


class ShapeError(MolfuseError, ValueError):
    """Operands have incompatible or invalid shapes."""


class ParameterError(MolfuseError, ValueError):
    """A hyperparameter or argument lies outside its legal range."""


class NumericError(MolfuseError, ArithmeticError):
    """A computation produced or received non-finite values."""


class DataError(MolfuseError, ValueError):
    """Input data violates a documented contract."""


class SmilesError(MolfuseError, ValueError):
    """SMILES string cannot be parsed.  Carries the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class ValenceError(SmilesError):
    """Bond orders around an atom exceed every admissible valence."""


def _integer(value) -> int | None:
    """``operator.index(value)``, or ``None`` for a ``bool`` or a non-integer."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _real(value) -> float | None:
    """``float(value)``, or ``None`` for a ``bool`` or a non-``numbers.Real``.

    A real beyond the float range, such as ``10**400``, reads as +-inf.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _array(values, name: str, kinds: str) -> np.ndarray:
    """``np.asarray(values)``, else :class:`DataError` naming ``name``: for
    ragged nesting, with numpy's reason, or for a non-empty array whose
    dtype kind is not in ``kinds`` (``"biuf"`` or ``"iu"``)."""
    try:
        arr = np.asarray(values)
    except ValueError as e:
        raise DataError(f"{name} must be a rectangular array: {e}") from None
    if arr.size and arr.dtype.kind not in kinds:
        what = "real numbers" if "f" in kinds else "integers"
        raise DataError(f"{name} must be {what}, got an array of dtype {arr.dtype}")
    return arr
