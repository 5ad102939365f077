"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
CLI code can map them onto exit codes without string matching.  They all
derive from GhrvError; ValueError is reserved for plain misuse of a Python
API (wrong container shape, unknown variable index and the like).
"""

from __future__ import annotations


class GhrvError(Exception):
    """Base class for all package errors."""


class FieldError(GhrvError):
    """Unsupported or malformed field description."""


class NotIrreducible(FieldError):
    """A candidate modulus for an extension field failed certification."""


class BoundExceeded(GhrvError):
    """A configured search bound was exhausted."""


class ParseError(GhrvError):
    """Syntax error in a polynomial expression; carries a position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariable(ParseError):
    """Identifier in an expression that is not a ring variable."""


class NotSerializable(GhrvError):
    """Value has no canonical grammar representation."""


class RingMismatch(GhrvError):
    """Operands belong to different rings or fields."""


class BadArity(GhrvError):
    """Hypersurface data with fewer than two x-variables."""


class NotInMaximalIdeal(GhrvError):
    """A coefficient f_i has a nonzero constant term."""


class NotRegularSequence(GhrvError):
    """Monomial coefficients f_1..f_c failed the regular-sequence check."""


class VariableLeak(GhrvError):
    """A polynomial mentions variables it must not (x_i where only y's are allowed)."""


class NotAComplex(GhrvError):
    """Differentials do not compose to zero mod the hypersurface equation."""


class NotHomogeneous(GhrvError):
    """Matrix entries violate the graded degree constraints."""


class NotHomogeneousScalar(GhrvError):
    """Cone scalar whose class mod w is not x-homogeneous."""


class CertificationFailed(GhrvError):
    """Matrix pair does not multiply to w times the identity over P."""


class InvalidComplex(GhrvError):
    """Operation requires a structurally valid (or certified) complex."""


class RankDefect(InvalidComplex):
    """A complex mod w whose ranks over R do not partition its size."""


class UnsupportedField(GhrvError):
    """Operation needs a finite field (or a prime one) and got something else."""


class InternalCheckError(GhrvError):
    """A mathematical self-check failed; indicates a bug, not bad input."""
