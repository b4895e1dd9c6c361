"""Frames over GF(2): analysis operators, the reconstruction identity,
Parseval and orthogonality predicates, and Gram matrices.

A frame is an ordered spanning sequence of vectors in GF(2)^n; it is
identified with its k x n analysis matrix whose i-th row is the i-th frame
vector.  The frame is Parseval exactly when the analysis matrix has
orthonormal columns, i.e. ``theta* theta = I``.
"""

from collections.abc import Iterable

from .errors import DimensionError, NotSpanningError, ShapeError
from .gf2 import BinMatrix, BinVector, _Record

__all__ = [
    "Frame",
    "is_parseval",
    "reconstruct",
    "gram",
    "is_orthogonal",
]


class Frame(_Record):
    """A sequence of k vectors spanning GF(2)^n, held as its k x n
    analysis matrix, whose row i is vector i.

    Construction validates the spanning condition (NotSpanningError); a
    non-spanning sequence is not a frame at all.
    """

    __slots__ = ("analysis",)

    def __post_init__(self):
        if self.analysis.rank() != self.analysis.cols:
            raise NotSpanningError(f"vectors do not span GF(2)^{self.analysis.cols}")

    @classmethod
    def from_vectors(cls, vectors: Iterable[BinVector | Iterable[int]]) -> "Frame":
        return cls(BinMatrix.from_rows(vectors))


def is_parseval(theta: BinMatrix) -> bool:
    """True iff ``theta* theta = I``, i.e. the columns are orthonormal."""
    return theta.transpose() @ theta == BinMatrix.identity(theta.cols)


def reconstruct(x: BinVector, f: Frame) -> BinVector:
    """Evaluate the expansion ``sum_j (x, f_j) f_j``.

    Equals ``x`` for every ``x`` precisely when the frame is Parseval; the
    raw sum is still returned for non-Parseval frames so that failures of
    the identity can be witnessed.
    """
    n = f.analysis.cols
    if x.n != n:
        raise DimensionError(f"x has dimension {x.n}, frame lives in GF(2)^{n}")
    acc = 0
    xb = x.bits
    for v in f.analysis.data:
        if (v & xb).bit_count() & 1:
            acc ^= v
    return BinVector(n, acc)


def gram(theta: BinMatrix) -> BinMatrix:
    """The k x k Gram matrix ``theta theta*`` of pairwise dot products."""
    return theta @ theta.transpose()


def is_orthogonal(u: BinMatrix) -> bool:
    """True iff the square matrix satisfies ``u u* = u* u = I``.

    For square matrices one of the two identities forces the other, so
    this is ``is_parseval`` on a square matrix.
    """
    if not u.is_square:
        raise ShapeError(f"orthogonality needs a square matrix, got shape {u.shape}")
    return is_parseval(u)
