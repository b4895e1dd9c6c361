"""Orthonormal extension and Naimark complements.

An orthonormal sequence in GF(2)^k extends to an orthonormal basis exactly
when its vector sum differs from the all-ones vector.  The extension is
built one vector at a time by ``_orthonormal_fill``, the construction that
also factors Gram matrices (``gramfactor``): each new vector solves the
stacked system (constraints; vectors so far; all-ones row) x = (0; 0; 1).
The solution set is read off once, as a particular solution and one null
vector per free column, and each vector found cuts it down by one
orthogonality equation instead of the system being solved again.  A
Parseval frame has a complementary Parseval frame exactly when at least
one frame vector is even, and the complement falls out of extending the
analysis matrix's columns to an orthonormal basis.
"""

from collections.abc import Sequence

from .errors import DimensionError, ExtensionObstruction, InvalidInput
from .frames import is_parseval
from .gf2 import BinMatrix, BinVector, _impose, _Record, _solutions

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
            vmat = BinMatrix(dim, tuple(v.bits for v in vecs))
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


def _orthonormal_fill(k: int, constraints: Sequence[int], start: Sequence[int], target: int) -> list[int]:
    """Extend the orthonormal vectors ``start`` in GF(2)^k by odd vectors,
    each orthogonal to the others and to every row of ``constraints``,
    until no further vector fits.

    Each new vector is the first Gray-code-ordered solution of the stacked
    system (constraints; vectors so far; all-ones row) x = (0; 0; 1),
    except that while room remains (two or more vectors still to come) the
    unique solution that makes the running sum equal ``target`` is
    skipped: it alone would leave the next system inconsistent.  The
    solution set is read off once, from one echelon of the constraints,
    the all-ones row and ``start``; each vector x found then cuts it down
    by the equation (x, y) = 0, which takes one dimension, and the last
    vector takes the particular solution.  The reduced solution set is
    unique, like the reduced echelon form, so this picks the vectors that
    solving each system afresh would.
    """
    part, nulls = _solutions([*constraints, ((1 << k) - 1) | (1 << k), *start], k)
    found = list(start)
    n = len(found) + (part is not None) + len(nulls)
    total = 0
    for v in found:
        total ^= v
    for s in range(len(found), n):
        if part is None:
            raise RuntimeError(f"no admissible vector {s + 1} of {n} in GF(2)^{k}")
        # the first Gray-code member, or the second (nulls holds n - s - 1
        # vectors) when the first would make the running sum the target
        x = part if s == n - 1 or total ^ part != target else part ^ nulls[0]
        found.append(x)
        part, nulls = _impose(part, nulls, x)
        total ^= x
    return found


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


def has_naimark_complement(theta: BinMatrix) -> bool:
    """Whether a Parseval analysis matrix has a complementary one.

    True iff some row (frame vector) is even, equivalently iff
    ``theta @ ones != ones``.  Parsevality is validated rather than
    assumed; a square theta leaves no room for a complement and is
    rejected.
    """
    if not is_parseval(theta):
        raise InvalidInput("matrix is not the analysis matrix of a Parseval frame")
    k, n = theta.shape
    if n >= k:
        raise InvalidInput(f"a ({k},{k})-frame leaves no room for a complement")
    return theta.mul_vec(BinVector.ones(n)) != BinVector.ones(k)


def naimark_complement(theta: BinMatrix) -> BinMatrix:
    """A k x (k-n) Parseval matrix psi with gram(theta) + gram(psi) = I.

    The columns of theta are extended to an orthonormal basis of GF(2)^k
    and the new vectors become the columns of psi, making the block
    (theta | psi) orthogonal.  Only a verified psi is returned: the
    extension is re-checked to be orthonormal, and a square matrix with
    orthonormal columns is orthogonal, so gram(theta) + gram(psi) = I.
    Raises ExtensionObstruction when every frame vector is odd.
    """
    k, n = theta.shape
    if not has_naimark_complement(theta):
        # the check has just found theta @ ones == ones
        raise ExtensionObstruction(
            "every frame vector is odd; no complement exists", witness=BinVector.ones(k)
        )
    # is_parseval has found the columns orthonormal, and an even frame
    # vector keeps their sum off all-ones, so only the new vectors are
    # re-checked, against every column v_j of the block (theta | psi):
    # bit j of row i of psi* (theta | psi) is (psi_i, v_j), 1 iff j = n + i
    vecs = _orthonormal_fill(k, (), theta.transpose().data, (1 << k) - 1)
    psi_star = BinMatrix(k, tuple(vecs[n:]))
    psi = psi_star.transpose()
    block = BinMatrix(k, tuple(t | p << n for t, p in zip(theta.data, psi.data)))
    if (psi_star @ block).data != tuple(1 << j for j in range(n, k)):
        raise RuntimeError("complement failed its check: the extended basis is not orthonormal")
    return psi
