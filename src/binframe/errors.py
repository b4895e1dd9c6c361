"""Exception types shared across the package."""

__all__ = [
    "BinFrameError",
    "DimensionError",
    "ShapeError",
    "InvalidInput",
    "NotSpanningError",
    "ExtensionObstruction",
    "NotGramMatrix",
    "UnsupportedSize",
    "ParseError",
]


class BinFrameError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(BinFrameError):
    """Operands have incompatible or invalid dimensions."""


class ShapeError(BinFrameError):
    """A square matrix was required."""


class InvalidInput(BinFrameError):
    """Input violates a mathematical precondition (e.g. not orthonormal)."""


class NotSpanningError(BinFrameError):
    """A vector sequence does not span its ambient space."""


class _Witnessed(BinFrameError):
    """A negative answer carrying its evidence as ``witness``."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ExtensionObstruction(_Witnessed):
    """An orthonormal sequence cannot be extended.

    ``witness`` holds the vector sum that equals the all-ones vector,
    the exact obstruction to extension.
    """


class NotGramMatrix(_Witnessed):
    """A symmetric idempotent matrix is not the Gram matrix of any
    Parseval frame.

    ``witness`` carries the evidence: the tuple of column parities,
    all zero (every column even).
    """


class UnsupportedSize(BinFrameError):
    """Requested size is outside the supported range."""


class ParseError(BinFrameError):
    """A matrix document could not be parsed.

    ``line`` and ``column`` are 1-based positions of the offending input
    when known, else 0.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.line = line
        self.column = column
