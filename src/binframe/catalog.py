"""Exhaustive catalogs: binary orthogonal matrices up to row relabeling,
circulant Gram matrices of cyclic Parseval frames, and the
repetition-free factorizations of the latter.

Orthogonal matrices are searched column by column over odd vectors in
ascending integer order and grouped by row multiset; the result is
capped at k <= 6, the range whose class counts have been verified.
Circulant Grams are built, not searched.  A circulant is idempotent iff
its first row c(x) is an idempotent of GF(2)[x]/(x^k - 1); as
c(x)^2 = c(x^2), for odd k these are the rows constant on the
2-cyclotomic cosets mod k, and for k = 2^a m, m odd, the lifts
c(x^(2^a)) of those for m.  Symmetry adds constancy under negation, odd
columns odd weight.
"""

import math

from .errors import UnsupportedSize
from .gf2 import BinMatrix, BinVector, _Record

__all__ = [
    "OrthogonalCatalog",
    "CirculantGram",
    "NonRepeatingPair",
    "enum_orthogonal",
    "enum_cyclic_gram",
    "enum_nonrepeating",
]

ORTHOGONAL_MAX_K = 6
# Each rank is a gcd of degree-k polynomials on packed ints, costing up
# to about k^2, so a cyclic catalog is refused when entries x k^2 exceeds
# this, and so is every k above its square root, 92681.  The slowest
# admitted catalog, k = 257, takes 1.1 s (Python 3.11.7, one core of a
# 2-vCPU Xeon host whose speed swings by ~40%: 0.9-1.5 s, median of 5).
# No k <= 256 has more than 2^16 entries, so no admitted catalog has
# more either.
CYCLIC_MAX_WORK = 2**33
# Factoring one entry costs up to about k^3; the repetition-free catalog
# is refused when entries to factor x k^3 exceeds this (k = 127, just
# under it, takes 2.1 s on the same host: 1.4-2.2 s, median of 5; k = 129,
# the first size refused, took 4.0 s with the cap lifted: 3.6-4.5 s,
# median of 5).
NONREPEATING_MAX_WORK = 2**30


class OrthogonalCatalog(_Record):
    """One representative per catalog class of orthogonal k x k matrices:
    a class is a row multiset (see ``enum_orthogonal``), represented by
    its largest ascending column tuple."""

    __slots__ = ("k", "classes")

    def column_sets(self) -> list[tuple[int, ...]]:
        return [m.transpose().data for m in self.classes]


class CirculantGram(_Record):
    """A circulant symmetric idempotent matrix with all columns odd,
    identified by its first row."""

    __slots__ = ("k", "first_row", "rank")

    def matrix(self) -> BinMatrix:
        return BinMatrix.circulant(self.first_row)


class NonRepeatingPair(_Record):
    """A circulant Gram of rank n < k whose rows are pairwise distinct,
    together with an analysis matrix factoring it."""

    __slots__ = ("gram", "theta")


def enum_orthogonal(k: int) -> OrthogonalCatalog:
    """Catalog of orthogonal k x k matrices, one entry per class.

    Entries are matrices with ascending column integers; two are
    identified when a coordinate relabeling (row permutation) carries one
    onto the other with the ascending order preserved in place.  A
    relabeling moves rows only, so the class key is the row multiset.
    That partition is finer than full permutation equivalence, which would
    merge some of its classes for k >= 5; its class counts for
    k = 3, 4, 5, 6 are 1, 2, 4, 14.  Each class is represented by its
    largest ascending tuple and classes are listed in ascending order.
    Supported for 1 <= k <= 6 only, the range whose counts are verified.
    """
    if not 1 <= k <= ORTHOGONAL_MAX_K:
        raise UnsupportedSize(f"orthogonal catalog supports 1 <= k <= {ORTHOGONAL_MAX_K}, got {k}")
    found: list[tuple[int, ...]] = []

    def extend(chosen: tuple[int, ...], candidates: list[int]) -> None:
        # candidates: the odd vectors after chosen[-1] orthogonal to all of
        # chosen, ascending; none is left at length k, as k orthonormal
        # vectors are a basis and no odd vector is orthogonal to a basis
        if len(chosen) == k:
            found.append(chosen)
        for i, v in enumerate(candidates):
            extend((*chosen, v), [w for w in candidates[i + 1 :] if not (v & w).bit_count() & 1])

    extend((), [v for v in range(1, 1 << k) if v.bit_count() & 1])
    # found ascends, so the last tuple kept per row multiset is its largest
    reps = {tuple(sorted(BinMatrix(k, cols).transpose().data)): cols for cols in found}
    return OrthogonalCatalog(k, tuple(BinMatrix(k, cols).transpose() for cols in sorted(reps.values())))


def _coset_orbits(m: int) -> list[set[int]]:
    """Orbits of Z_m (m odd) under t -> 2t and t -> -t, {0} first: each is
    a 2-cyclotomic coset joined with its negative."""
    seen: set[int] = set()
    orbits = []
    for t in range(m):
        if t not in seen:
            coset = [t]
            while (u := 2 * coset[-1] % m) != t:
                coset.append(u)
            orbits.append({*coset, *(-u % m for u in coset)})
            seen |= orbits[-1]
    return orbits


def _gcd_degree(a: int, b: int) -> int:
    """Degree of gcd(a(x), b(x)) over GF(2), polynomials packed in ints
    (bit i is the coefficient of x^i); at least one must be non-zero."""
    while b:
        while a.bit_length() >= b.bit_length():
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a.bit_length() - 1


def _aperiodic(c: int, k: int) -> bool:
    """Whether no proper rotation fixes the row ``c``, i.e. whether the
    rows of its k x k circulant are pairwise distinct.  A rotation by d,
    0 < d < k, fixes the string s exactly when s occurs at position d of
    s + s."""
    s = format(c, f"0{k}b")
    return s not in (s + s)[1:-1]


def _cyclic_rows(k: int) -> list[int]:
    """The first rows of ``enum_cyclic_gram(k)``, ascending, or
    ``UnsupportedSize`` when the catalog is over its limits."""
    if k < 1:
        raise UnsupportedSize(f"size must be positive, got {k}")
    if k * k > CYCLIC_MAX_WORK:
        raise UnsupportedSize(f"the cyclic catalog is limited to k <= {math.isqrt(CYCLIC_MAX_WORK)}, got k={k}")
    a = (k & -k).bit_length() - 1
    _, *orbits = _coset_orbits(k >> a)
    count = 1 << len(orbits)
    if count * k * k > CYCLIC_MAX_WORK:
        raise UnsupportedSize(
            f"the cyclic catalog for k={k} has {count} entries, and entries x k^2 is over the limit {CYCLIC_MAX_WORK}"
        )
    rows = [1]
    for orbit in orbits:
        mask = sum(1 << (t << a) for t in orbit)
        rows += [c | mask for c in rows]
    return sorted(rows)


def _circulant_gram(k: int, c: int) -> CirculantGram:
    return CirculantGram(k, BinVector(k, c), k - _gcd_degree((1 << k) | 1, c))


def enum_cyclic_gram(k: int) -> list[CirculantGram]:
    """Exhaustive list of circulant Gram matrices of cyclic Parseval
    frames of size k, sorted by the integer encoding of the first row.

    A first row qualifies iff its circulant is symmetric, idempotent and
    has only odd columns.  For k = 2^a m with m odd these rows are the
    unions of orbits of Z_m under t -> 2t and t -> -t that contain 0, with
    position t lifted to t 2^a (MacWilliams and Sloane, The Theory of
    Error-Correcting Codes, ch. 8): 2^(orbits - 1) rows, refused with
    ``UnsupportedSize`` when entries x k^2 exceeds ``CYCLIC_MAX_WORK``.
    Each rank is k - deg gcd(c(x), x^k - 1).
    """
    return [_circulant_gram(k, c) for c in _cyclic_rows(k)]


def enum_nonrepeating(k: int) -> list[NonRepeatingPair]:
    """Circulant Grams of rank n < k with pairwise distinct rows, each
    paired with an analysis matrix factoring it.

    Distinct Gram rows decide inclusion: for a spanning frame, rows i and
    j of the Gram coincide exactly when frame vectors i and j do.  The
    entries are counted before any is factored, and refused with
    ``UnsupportedSize`` when entries x k^3 exceeds ``NONREPEATING_MAX_WORK``.
    """
    # the identity is the only idempotent of full rank, so rank < k iff c != 1
    rows = [c for c in _cyclic_rows(k) if c != 1 and _aperiodic(c, k)]
    if len(rows) * k**3 > NONREPEATING_MAX_WORK:
        raise UnsupportedSize(
            f"the repetition-free catalog for k={k} has {len(rows)} entries to factor, "
            f"and entries x k^3 is over the limit {NONREPEATING_MAX_WORK}"
        )
    from .gramfactor import GramCandidate, factor_gram

    pairs = []
    for c in rows:
        cg = _circulant_gram(k, c)
        pairs.append(NonRepeatingPair(cg, factor_gram(GramCandidate(cg.matrix())).theta))
    return pairs
