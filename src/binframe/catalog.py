"""Exhaustive catalogs: binary orthogonal matrices up to row relabeling,
circulant Gram matrices of cyclic Parseval frames, and the
repetition-free factorizations of the latter.

Orthogonal matrices are searched column by column over odd vectors in
ascending integer order; the result is capped at k <= 6, the range whose
class counts have been verified.  Circulant Gram candidates are
pre-filtered by the symmetry and odd-weight constraints on the first row
(which shrink 2^k candidates to about 2^(k/2)) before the quadratic
idempotency check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import UnsupportedSize
from .gf2 import BinMatrix, BinVector
from .gramfactor import GramCandidate, factor_gram

__all__ = [
    "OrthogonalCatalog",
    "CirculantGram",
    "NonRepeatingPair",
    "enum_orthogonal",
    "enum_cyclic_gram",
    "enum_nonrepeating",
]

ORTHOGONAL_MAX_K = 6


@dataclass(frozen=True, slots=True)
class OrthogonalCatalog:
    """One representative per catalog class of orthogonal k x k matrices
    (see ``enum_orthogonal`` for the class relation); representatives
    carry ascending columns."""

    k: int
    classes: tuple[BinMatrix, ...]

    def column_sets(self) -> list[tuple[int, ...]]:
        return [tuple(c.bits for c in m.col_vectors()) for m in self.classes]


@dataclass(frozen=True, slots=True)
class CirculantGram:
    """A circulant symmetric idempotent matrix with all columns odd,
    identified by its first row."""

    k: int
    first_row: BinVector
    rank: int

    def matrix(self) -> BinMatrix:
        return BinMatrix.circulant(self.first_row)


@dataclass(frozen=True, slots=True)
class NonRepeatingPair:
    """A circulant Gram of rank n < k whose rows are pairwise distinct,
    together with an analysis matrix factoring it."""

    gram: CirculantGram
    theta: BinMatrix


def _relabel_columns(cols: tuple[int, ...], perm: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Apply a coordinate permutation to every column, keeping positions."""
    out = []
    for c in cols:
        moved = 0
        while c:
            low = c & -c
            moved |= 1 << perm[low.bit_length() - 1]
            c ^= low
        out.append(moved)
    return tuple(out)


def _sorted_orbit(cols: tuple[int, ...], k: int) -> set[tuple[int, ...]]:
    """All ascending column tuples reachable by relabeling coordinates.

    Only relabelings that leave the column list ascending are kept: the
    catalog treats the ascending-column matrix as the object, so a
    relabeling identifies two entries exactly when it carries one onto the
    other in place.
    """
    orbit = set()
    for perm in itertools.permutations(range(k)):
        moved = _relabel_columns(cols, perm, k)
        if all(moved[i] < moved[i + 1] for i in range(k - 1)):
            orbit.add(moved)
    return orbit


def enum_orthogonal(k: int) -> OrthogonalCatalog:
    """Catalog of orthogonal k x k matrices, one entry per class.

    Entries are matrices with ascending column integers; two are
    identified when a coordinate relabeling (row permutation) carries one
    onto the other with the ascending order preserved in place.  That
    partition is finer than full permutation equivalence, which would
    merge some of its classes for k >= 5; its class counts for
    k = 3, 4, 5, 6 are 1, 2, 4, 14.  Each class is represented by its
    largest ascending tuple and classes are listed in ascending order.
    Supported for 1 <= k <= 6 only: beyond that the counts cannot be
    cross-checked and the orbit search grows factorially.
    """
    if not 1 <= k <= ORTHOGONAL_MAX_K:
        raise UnsupportedSize(f"orthogonal catalog supports 1 <= k <= {ORTHOGONAL_MAX_K}, got {k}")
    odd = [v for v in range(1, 1 << k) if v.bit_count() & 1]
    found: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        if len(chosen) == k:
            found.append(tuple(chosen))
            return
        # not enough candidates left to finish the set
        for idx in range(start, len(odd) - (k - len(chosen)) + 1):
            v = odd[idx]
            if all(((v & c).bit_count() & 1) == 0 for c in chosen):
                chosen.append(v)
                extend(chosen, idx + 1)
                chosen.pop()

    extend([], 0)

    seen: set[tuple[int, ...]] = set()
    reps: list[tuple[int, ...]] = []
    for cols in found:
        if cols in seen:
            continue
        orbit = _sorted_orbit(cols, k)
        seen |= orbit
        reps.append(max(orbit))
    reps.sort()
    return OrthogonalCatalog(
        k, tuple(BinMatrix.from_cols([BinVector(k, c) for c in cols]) for cols in reps)
    )


def _rotl(bits: int, by: int, k: int) -> int:
    by %= k
    if by == 0:
        return bits
    return ((bits << by) | (bits >> (k - by))) & ((1 << k) - 1)


def _cyclic_candidates(k: int) -> list[int]:
    """First rows surviving the symmetry and odd-weight pre-filters.

    Symmetry of the circulant forces c_i = c_{(k-i) mod k}, odd columns
    force odd weight, and both together force c_0 = 1 and (for even k) a
    zero at position k/2.
    """
    if k == 1:
        return [1]
    pairs = [(i, k - i) for i in range(1, (k + 1) // 2)]
    out = []
    for mask in range(1 << len(pairs)):
        c = 1
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                c |= (1 << i) | (1 << j)
        out.append(c)
    return out


def _is_idempotent_circulant(c: int, k: int) -> bool:
    """Whether the circulant with first row ``c`` squares to itself,
    via the cyclic self-convolution of the first row."""
    acc = 0
    rest = c
    while rest:
        low = rest & -rest
        acc ^= _rotl(c, low.bit_length() - 1, k)
        rest ^= low
    return acc == c


def enum_cyclic_gram(k: int) -> list[CirculantGram]:
    """Exhaustive list of circulant Gram matrices of cyclic Parseval
    frames of size k, sorted by the integer encoding of the first row.

    A first row qualifies iff its circulant is symmetric, idempotent and
    has only odd columns.
    """
    if k < 1:
        raise UnsupportedSize(f"size must be positive, got {k}")
    survivors = sorted(c for c in _cyclic_candidates(k) if _is_idempotent_circulant(c, k))
    out = []
    for c in survivors:
        row = BinVector(k, c)
        out.append(CirculantGram(k, row, BinMatrix.circulant(row).rank()))
    return out


def enum_nonrepeating(k: int) -> list[NonRepeatingPair]:
    """Circulant Grams of rank n < k with pairwise distinct rows, each
    paired with an analysis matrix factoring it.

    Distinct Gram rows decide inclusion: for a spanning frame, rows i and
    j of the Gram coincide exactly when frame vectors i and j do.
    """
    pairs = []
    for cg in enum_cyclic_gram(k):
        if cg.rank >= k:
            continue
        matrix = cg.matrix()
        if len(set(matrix.data)) != k:
            continue
        pairs.append(NonRepeatingPair(cg, factor_gram(GramCandidate(matrix)).theta))
    return pairs
