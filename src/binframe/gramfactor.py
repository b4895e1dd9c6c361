"""Factoring symmetric idempotent matrices as Gram matrices.

A symmetric idempotent binary matrix is the Gram matrix of a Parseval
frame exactly when it has at least one odd column (equivalently, a
non-zero diagonal entry).  When it is, ``factor_gram`` produces an
analysis matrix theta with orthonormal columns and ``theta theta* = m``,
built column by column: every column must be an odd vector fixed by m
(equivalently, orthogonal to the kernel of m) and orthogonal to the
columns found so far.  The columns come from the orthonormal-sequence
construction that also extends sequences to bases
(``gf2._orthonormal_fill``), with the kernel of m as extra constraints.
Choices are pinned so the output is deterministic.
"""

from .errors import InvalidInput, NotGramMatrix, ShapeError
from .gf2 import BinMatrix, BinVector, _orthonormal_fill, _Record

__all__ = [
    "GramCandidate",
    "Factorization",
    "odd_columns",
    "is_gram_of_parseval",
    "factor_gram",
]


class GramCandidate(_Record):
    """A k x k matrix validated to be symmetric and idempotent.

    Whether such a matrix actually is a Gram matrix is a separate,
    mathematically meaningful question answered by ``is_gram_of_parseval``.
    """

    __slots__ = ("m",)

    def __post_init__(self):
        if not self.m.is_square:
            raise ShapeError(f"Gram candidate must be square, got shape {self.m.shape}")
        if not self.m.is_symmetric():
            raise InvalidInput("matrix is not symmetric")
        if self.m @ self.m != self.m:
            raise InvalidInput("matrix is not idempotent")

    @property
    def k(self) -> int:
        return self.m.rows


class Factorization(_Record):
    """Analysis matrix theta with orthonormal columns reproducing the Gram."""

    __slots__ = ("theta",)


def odd_columns(m: BinMatrix) -> list[int]:
    """Indices of columns whose entries sum to one, ascending."""
    return [j for j, c in enumerate(m.transpose().data) if c.bit_count() & 1]


def is_gram_of_parseval(cand: GramCandidate) -> bool:
    """True iff the matrix has at least one odd column.

    For a symmetric idempotent matrix this is the same as having a
    non-zero diagonal entry.
    """
    return bool(odd_columns(cand.m))


def factor_gram(cand: GramCandidate) -> Factorization:
    """Factor ``m = theta theta*`` with ``theta* theta = I``.

    ``theta`` has ``rank(m)`` columns, each an odd vector fixed by ``m``.
    The first column is the lowest-index odd column of ``m`` whenever that
    choice leaves the remaining systems consistent (it almost always
    does); otherwise the seed is picked like every later column, as the
    first admissible solution of the corresponding linear system.  Both
    identities are checked before the result is returned.  Raises
    NotGramMatrix, carrying the column parities, when every column is
    even.
    """
    m = cand.m
    k = m.rows
    # m is symmetric, so bit i of m ones is the parity of column i
    target = m.mul_vec(BinVector.ones(k)).bits
    if not target:
        raise NotGramMatrix(
            "all columns even; not the Gram matrix of a Parseval frame",
            witness=(0,) * k,
        )
    # The rows of I + m span ker m, and as m is idempotent, GF(2)^k is
    # range m + ker m, so the fill's columns run out at rank m.  For a
    # non-empty orthonormal set W in range(m), the all-ones vector lies in
    # span(ker m, W) iff sum(W) = m ones (dot with each w in W), and then
    # no further column can be found; so m ones is the sum to avoid while
    # columns remain.  The seed is the lowest-index odd column, read as
    # the equal row; when it equals m ones it is the first solution
    # anyway if rank m = 1, and must be avoided otherwise.
    seed = m.data[(target & -target).bit_length() - 1]
    start = [seed] if seed != target else []
    columns = _orthonormal_fill(k, (m + BinMatrix.identity(k)).data, start, target)
    n = len(columns)

    theta_star = BinMatrix(k, columns)
    theta = theta_star.transpose()
    if theta_star @ theta != BinMatrix.identity(n) or theta @ theta_star != m:
        raise RuntimeError("factorization failed its check theta* theta = I, theta theta* = m")
    return Factorization(theta)
