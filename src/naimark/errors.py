"""Exception types shared across the package."""


class NaimarkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDimensionError(NaimarkError):
    """Requested dimension is outside the operator family's domain."""


class CatalogMissError(NaimarkError, KeyError):
    """Unknown fiducial or completion-matrix label."""


class InvalidInputError(NaimarkError, ValueError):
    """Input violates a precondition (non-unitary matrix, shape mismatch, ...)."""


class InvalidCircuitError(NaimarkError, ValueError):
    """Malformed gate or gate list (bad wires, missing parameters, ...)."""


class RankDeficientFrameError(NaimarkError):
    """The measurement frame does not span operator space."""


class NumericalFailureError(NaimarkError):
    """A dense linear-algebra step failed (singular system, lost precision)."""


class ParseError(NaimarkError):
    """A file cannot be read or written, or its JSON does not match the expected schema."""
