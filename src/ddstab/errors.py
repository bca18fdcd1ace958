"""Exception types shared across the package."""


class DdstabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(DdstabError):
    """Operands have incompatible shapes."""


class EmptyData(DdstabError):
    """A data container that must hold at least one sample, or one state
    coordinate, is empty."""


class LengthMismatch(DdstabError):
    """Trajectory and input sequences have inconsistent lengths."""


class InvalidParams(DdstabError):
    """A parameter is outside its admissible range."""


class CutoffExceedsTruncation(InvalidParams):
    """The required mode cutoff is larger than the available truncation."""


class IndexOutOfRange(DdstabError):
    """A 1-based sample index points outside the data."""
