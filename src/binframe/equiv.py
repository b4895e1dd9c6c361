"""Switching and permutation equivalence via canonical forms.

Matrices are compared as row-major big-endian bit strings (entry (0,0) is
the most significant bit) and the canonical form of a matrix is the
smallest member of its orbit in that order.  Two orbits are used:
independent row and column permutations, and simultaneous (conjugation)
permutations.  Switching equivalence of frames reduces to conjugation
equivalence of their Gram matrices.

The search is brute force over permutations with cheap invariant screens;
it is intended for the small sizes this package enumerates, not as a
general graph-isomorphism replacement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DimensionError, InvalidInput, ShapeError, UnsupportedSize
from .frames import Frame, gram
from .gf2 import BinMatrix

__all__ = [
    "MODE_INDEPENDENT",
    "MODE_CONJUGATION",
    "CanonicalMatrix",
    "canonical_form",
    "permutation_equivalent",
    "switching_equivalent",
]

MODE_INDEPENDENT = "independent-row-col"
MODE_CONJUGATION = "conjugation"
CANON_MAX = 10


@dataclass(frozen=True, slots=True)
class CanonicalMatrix:
    """Minimal orbit member plus the permutations that produce it.

    ``matrix[i][j] == original[row_perm[i]][col_perm[j]]``.
    """

    matrix: BinMatrix
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]


def _bigendian_key(row_bits: int, order: tuple[int, ...]) -> int:
    """Read the given columns of a packed row, leftmost first."""
    key = 0
    for j in order:
        key = (key << 1) | ((row_bits >> j) & 1)
    return key


def _key_to_row(key: int, cols: int) -> int:
    bits = 0
    for j in range(cols):
        bits |= ((key >> (cols - 1 - j)) & 1) << j
    return bits


def _canon_independent(a: BinMatrix) -> CanonicalMatrix:
    if a.cols > CANON_MAX:
        raise UnsupportedSize(f"canonical form supports at most {CANON_MAX} columns, got {a.cols}")
    best_keys: tuple[int, ...] | None = None
    best_rows: tuple[int, ...] = ()
    best_cols: tuple[int, ...] = ()
    indices = range(a.rows)
    for col_order in itertools.permutations(range(a.cols)):
        keyed = sorted((_bigendian_key(a.data[i], col_order), i) for i in indices)
        keys = tuple(key for key, _ in keyed)
        if best_keys is None or keys < best_keys:
            best_keys = keys
            best_rows = tuple(i for _, i in keyed)
            best_cols = col_order
    assert best_keys is not None
    matrix = BinMatrix(a.cols, tuple(_key_to_row(key, a.cols) for key in best_keys))
    return CanonicalMatrix(matrix, best_rows, best_cols)


def _canon_conjugation(a: BinMatrix) -> CanonicalMatrix:
    k = a.rows
    if k > CANON_MAX:
        raise UnsupportedSize(f"conjugation canonical form supports k <= {CANON_MAX}, got {k}")
    best_keys: tuple[int, ...] | None = None
    best_perm: tuple[int, ...] = ()
    for perm in itertools.permutations(range(k)):
        keys = tuple(_bigendian_key(a.data[i], perm) for i in perm)
        if best_keys is None or keys < best_keys:
            best_keys = keys
            best_perm = perm
    assert best_keys is not None
    matrix = BinMatrix(k, tuple(_key_to_row(key, k) for key in best_keys))
    return CanonicalMatrix(matrix, best_perm, best_perm)


def canonical_form(a: BinMatrix, mode: str = MODE_INDEPENDENT) -> CanonicalMatrix:
    """Minimal orbit element under the fixed matrix order.

    ``independent-row-col`` searches over all row and column permutations;
    ``conjugation`` over single permutations applied to rows and columns
    simultaneously (square matrices only).  More than ``CANON_MAX``
    permuted indices raise ``UnsupportedSize``.
    """
    if mode == MODE_INDEPENDENT:
        return _canon_independent(a)
    if mode == MODE_CONJUGATION:
        if not a.is_square:
            raise ShapeError(f"conjugation mode needs a square matrix, got {a.shape}")
        return _canon_conjugation(a)
    raise InvalidInput(f"unknown canonicalization mode {mode!r}")


def _weight_profiles(a: BinMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows = tuple(sorted(r.bit_count() for r in a.data))
    cols = tuple(sorted(c.bit_count() for c in a.transpose().data))
    return rows, cols


def permutation_equivalent(a: BinMatrix, b: BinMatrix) -> bool:
    """Whether independent row and column permutations map ``a`` to ``b``."""
    if a.shape != b.shape:
        raise DimensionError(f"shapes {a.shape} and {b.shape} differ")
    if _weight_profiles(a) != _weight_profiles(b):
        return False
    return _canon_independent(a).matrix == _canon_independent(b).matrix


def switching_equivalent(f: Frame, g: Frame) -> bool:
    """Whether two frames agree up to an orthogonal map plus reindexing.

    Decided on Gram matrices: the frames are switching equivalent iff the
    Gram matrices are conjugate under a permutation matrix.
    """
    if (f.k, f.n) != (g.k, g.n):
        raise DimensionError(f"frame shapes ({f.k},{f.n}) and ({g.k},{g.n}) differ")
    gf = gram(f.analysis)
    gg = gram(g.analysis)
    if _weight_profiles(gf) != _weight_profiles(gg):
        return False
    return _canon_conjugation(gf).matrix == _canon_conjugation(gg).matrix
