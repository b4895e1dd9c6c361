"""Binary Parseval frames over GF(2): construction, verification,
factorization and exhaustive catalogs."""

from .catalog import (
    CirculantGram,
    NonRepeatingPair,
    OrthogonalCatalog,
    enum_cyclic_gram,
    enum_nonrepeating,
    enum_orthogonal,
)
from .equiv import (
    MODE_CONJUGATION,
    MODE_INDEPENDENT,
    CanonicalMatrix,
    canonical_form,
    permutation_equivalent,
    switching_equivalent,
)
from .errors import (
    BinFrameError,
    DimensionError,
    ExtensionObstruction,
    InvalidInput,
    NotGramMatrix,
    NotSpanningError,
    ParseError,
    ShapeError,
    UnsupportedSize,
)
from .frames import Frame, gram, is_orthogonal, is_parseval, reconstruct
from .gf2 import AffineSolutionSet, BinMatrix, BinVector, solve
from .gramfactor import (
    Factorization,
    GramCandidate,
    factor_gram,
    is_gram_of_parseval,
    odd_columns,
)
from .naimark import (
    OrthonormalSequence,
    extend_to_basis,
    has_naimark_complement,
    is_extendable,
    naimark_complement,
)

__version__ = "1.0.0"

__all__ = [
    "AffineSolutionSet",
    "BinFrameError",
    "BinMatrix",
    "BinVector",
    "CanonicalMatrix",
    "CirculantGram",
    "DimensionError",
    "ExtensionObstruction",
    "Factorization",
    "Frame",
    "GramCandidate",
    "InvalidInput",
    "MODE_CONJUGATION",
    "MODE_INDEPENDENT",
    "NonRepeatingPair",
    "NotGramMatrix",
    "NotSpanningError",
    "OrthogonalCatalog",
    "OrthonormalSequence",
    "ParseError",
    "ShapeError",
    "UnsupportedSize",
    "canonical_form",
    "enum_cyclic_gram",
    "enum_nonrepeating",
    "enum_orthogonal",
    "extend_to_basis",
    "factor_gram",
    "gram",
    "has_naimark_complement",
    "is_extendable",
    "is_gram_of_parseval",
    "is_orthogonal",
    "is_parseval",
    "naimark_complement",
    "odd_columns",
    "permutation_equivalent",
    "reconstruct",
    "solve",
    "switching_equivalent",
]
