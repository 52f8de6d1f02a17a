"""Exception types shared across the package.

Exit-code contract for the command line (``molfuse.cli``, not written yet):
a :class:`NumericError` exits 1; every other :class:`MolfuseError`, a usage
or data error, exits 2.
"""


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
