"""Orthonormal extension and Naimark complements.

An orthonormal sequence in GF(2)^k extends to an orthonormal basis exactly
when its vector sum differs from the all-ones vector; the extension is
built by ``gf2._orthonormal_fill``, the construction that also factors
Gram matrices (``gramfactor``).  A Parseval frame's Naimark complement is
the extension of its analysis matrix's orthonormal columns, the new vectors
being the complement's columns, so it exists exactly when the columns' sum
is not all-ones, that is, when some frame vector is even.
"""

from .errors import DimensionError, ExtensionObstruction, InvalidInput
from .gf2 import BinMatrix, BinVector, _orthonormal_fill, _Record

__all__ = [
    "OrthonormalSequence",
    "is_extendable",
    "extend_to_basis",
    "has_naimark_complement",
    "naimark_complement",
]


class OrthonormalSequence(_Record):
    """Vectors in GF(2)^``dim`` with (v_i, v_j) = delta_{i,j}.

    Orthonormality over GF(2) forces linear independence, so at most
    ``dim`` vectors fit.  The sequence may be empty; ``dim`` then supplies
    the ambient dimension.
    """

    __slots__ = ("dim", "vecs")

    def __post_init__(self):
        dim, vecs = self.dim, self.vecs
        if dim < 1:
            raise DimensionError(f"ambient dimension must be positive, got {dim}")
        for i, v in enumerate(vecs):
            if v.n != dim:
                raise DimensionError(f"vector {i} has dimension {v.n}, expected {dim}")
        if vecs:
            # with the vectors as the rows of V, row i of V V* holds (v_i, v_j)
            # in bit j; the first defect is reported in the order i = 0, 1, ...:
            # (v_i, v_i), then (v_i, v_j) for j < i
            vmat = BinMatrix(dim, (v.bits for v in vecs))
            for i, row in enumerate((vmat @ vmat.transpose()).data):
                if not (row >> i) & 1:
                    raise InvalidInput(f"vector {i} is even, (v,v) = 0 != 1")
                if below := row & ((1 << i) - 1):
                    j = (below & -below).bit_length() - 1
                    raise InvalidInput(f"vectors {j} and {i} are not orthogonal")

    def __len__(self) -> int:
        return len(self.vecs)

    def vector_sum(self) -> BinVector:
        bits = 0
        for v in self.vecs:
            bits ^= v.bits
        return BinVector(self.dim, bits)


def is_extendable(seq: OrthonormalSequence) -> bool:
    """Whether the sequence extends to an orthonormal basis of GF(2)^k.

    True iff the vector sum is not the all-ones vector.  Raises
    InvalidInput for a sequence that already has k vectors.
    """
    if len(seq) >= seq.dim:
        raise InvalidInput(f"sequence of {len(seq)} vectors in GF(2)^{seq.dim} is already complete")
    return seq.vector_sum() != BinVector.ones(seq.dim)


def extend_to_basis(seq: OrthonormalSequence) -> OrthonormalSequence:
    """Extend to a full orthonormal basis whose first vectors are ``seq``.

    Each new vector is the first Gray-code-ordered solution of the
    stacked system (current vectors; all-ones row) = (zeros; 1) that keeps
    the running vector sum away from all-ones, which keeps the next system
    consistent.  The completed basis always sums to the all-ones vector.
    Raises ExtensionObstruction, carrying the offending sum, when the
    sequence does not extend.
    """
    k = seq.dim
    if len(seq) == k:
        return seq
    ones = BinVector.ones(k)
    if not is_extendable(seq):
        raise ExtensionObstruction(f"vector sum is the all-ones vector in GF(2)^{k}", witness=ones)
    vecs = _orthonormal_fill(k, (), [v.bits for v in seq.vecs], ones.bits)
    # the constructor re-checks orthonormality, which forces the all-ones
    # sum; a defect there is a broken construction, not a bad input
    try:
        return OrthonormalSequence(k, tuple(BinVector(k, v) for v in vecs))
    except InvalidInput as e:
        raise RuntimeError(f"extension failed its check: {e}") from e


def _parseval_columns(theta: BinMatrix) -> OrthonormalSequence:
    """Theta's columns, refused unless orthonormal (Parseval) and fewer than k."""
    k = theta.rows
    try:
        seq = OrthonormalSequence(k, theta.transpose().row_vectors())
    except InvalidInput:
        raise InvalidInput("matrix is not the analysis matrix of a Parseval frame") from None
    if len(seq) >= k:
        raise InvalidInput(f"a ({k},{k})-frame leaves no room for a complement")
    return seq


def has_naimark_complement(theta: BinMatrix) -> bool:
    """Whether a Parseval analysis matrix has a complementary one.

    True iff theta's columns extend to an orthonormal basis, that is, iff
    their sum, ``theta.mul_vec`` of the all-ones vector, is not all-ones,
    equivalently iff some row (frame vector) is even.  Parsevality is
    validated rather than assumed; a square theta leaves no room for a
    complement and is rejected.
    """
    return is_extendable(_parseval_columns(theta))


def naimark_complement(theta: BinMatrix) -> BinMatrix:
    """A k x (k-n) Parseval matrix psi with gram(theta) + gram(psi) = I.

    The columns of theta are extended to an orthonormal basis of GF(2)^k
    and the new vectors become the columns of psi, making the block
    (theta | psi) orthogonal, so gram(theta) + gram(psi) = I.  Only a
    verified psi is returned: ``extend_to_basis`` re-checks the whole
    basis.  Raises ExtensionObstruction when every frame vector is odd.
    """
    seq = _parseval_columns(theta)
    try:
        basis = extend_to_basis(seq)
    except ExtensionObstruction as e:
        raise ExtensionObstruction("every frame vector is odd; no complement exists", witness=e.witness) from None
    return BinMatrix.from_rows(basis.vecs[len(seq) :]).transpose()
