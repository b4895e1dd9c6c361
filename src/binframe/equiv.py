"""Switching and permutation equivalence via canonical forms.

Matrices are compared as row-major big-endian bit strings (entry (0,0) is
the most significant bit) and the canonical form of a matrix is the
smallest member of its orbit in that order.  Two orbits are used: a row
permutation with an independent column permutation, and one permutation
applied to both (conjugation).  Switching equivalence of frames reduces
to conjugation equivalence of their Gram matrices.

Both orbits are searched by individualization and refinement with
automorphism pruning, after McKay & Piperno, "Practical graph isomorphism,
II", J. Symb. Comput. 60 (2014).  A node of the search is an ordered
partition: the indices placed so far, then cells of indices that hold a
known range of positions in an order still open.  The index at the next
position comes from the first cell, and every later cell is split by that
index's row, zeros first, which fixes that row of the key.  The search
enters only the children whose row key is least and drops any prefix
already worse than the best leaf.  Two leaves with equal keys give an
automorphism; a child in the orbit of an earlier sibling, under the
automorphisms found so far that fix the prefix, is skipped, since its
subtree is the image of one already searched.  Children are tried in
increasing index order, so the first optimal leaf is the lexicographically
first optimal permutation.  Independent mode searches the bipartite double
[[0, A], [Aᵀ, 0]] with the rows before the columns and equal rows merged.
Each public call has ``SEARCH_BUDGET`` steps for all of its searches, a
step being one row key digit worked out or one generator applied to an
orbit member, and raises ``UnsupportedSize`` once they are spent.
"""

from collections.abc import Sequence

from .errors import InvalidInput, ShapeError, UnsupportedSize
from .frames import Frame, gram
from .gf2 import BinMatrix, _Record

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
SEARCH_BUDGET = 2**24


class CanonicalMatrix(_Record):
    """Minimal orbit member plus the row and column permutation that
    produce it.

    ``matrix[i][j] == original[row_perm[i]][col_perm[j]]``.
    """

    __slots__ = ("matrix", "row_perm", "col_perm")


def _permuted(a: BinMatrix, row_perm: Sequence[int], col_perm: Sequence[int]) -> BinMatrix:
    """The matrix whose entry (i, j) is entry (row_perm[i], col_perm[j]) of ``a``."""
    columns = BinMatrix(a.cols, tuple(a.data[i] for i in row_perm)).transpose().data
    return BinMatrix(len(row_perm), tuple(columns[j] for j in col_perm)).transpose()


# automorphisms as (image of each index, mask of the indices moved)
_Generators = list[tuple[list[int], int]]


def _members(mask: int):
    """Set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spend(budget: list[int], steps: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise UnsupportedSize(f"canonical form is over its search budget of {SEARCH_BUDGET} steps")


def _orbit_min(v: int, gens: _Generators, fixed: int, budget: list[int]) -> int:
    """Least index in the orbit of ``v`` under the generators that move
    nothing in the mask ``fixed``."""
    usable = [g for g, support in gens if not support & fixed]
    seen, todo = 1 << v, [v]
    while todo:
        x = todo.pop()
        for g in usable:
            y = g[x]
            if not (seen >> y) & 1:
                seen |= 1 << y
                todo.append(y)
    _spend(budget, seen.bit_count() * len(usable))
    return (seen & -seen).bit_length() - 1


def _search(
    adj: list[int], cells: list[int], budget: list[int], labels: list[int] | None = None
) -> tuple[list[int], list[int], _Generators]:
    """Least key over the orderings of the indices that ``cells`` allow.

    ``adj[v]`` is row ``v`` of a square matrix (bit ``u`` is entry
    (v, u)); ``cells`` are disjoint index masks covering every index, in
    position order.  An ordering is a permutation ``perm`` listing the
    indices of each cell in that cell's range of positions; its key is
    the list of row keys, row ``p``'s being the bits of ``adj[perm[p]]``
    at ``perm[0], perm[1], ...`` read as a big-endian number and followed
    by ``labels[perm[p]]`` as its least significant digit.
    Returns the least key, the first ordering in increasing lexicographic
    order that reaches it, and the automorphisms found (each with the mask
    of the indices it moves), which generate every label-preserving
    automorphism that maps each cell onto itself.  ``budget`` holds the
    steps left, which the search spends.
    """
    n = len(adj)
    labels = labels or [0] * n
    label_bits = max(labels).bit_length()
    keys = [0] * n
    best_keys: list[int] = []
    best_perm: list[int] = []
    gens: _Generators = []

    def refine(cells: list[int], w: int) -> list[int]:
        """Take ``w`` out of the first cell and split every cell by its
        row, zeros first."""
        row = adj[w]
        out = []
        for cell in (cells[0] ^ (1 << w), *cells[1:]):
            for part in (cell & ~row, cell & row):
                if part:
                    out.append(part)
        return out

    def visit(prefix: list[int], cells: list[int], fixed: int) -> int:
        """Search below a node; return the depth to resume at, which the
        callers above that depth pass on."""
        start = len(prefix)
        try:
            while True:  # walk down while a single child has the least key
                d = len(prefix)
                if d == n:
                    if not best_perm or keys < best_keys:
                        best_keys[:] = keys
                        best_perm[:] = prefix
                        return n
                    gen = [0] * n
                    for u, v in zip(best_perm, prefix):
                        gen[u] = v
                    gens.append((gen, sum(1 << u for u in range(n) if gen[u] != u)))
                    # this subtree is the image of the one holding the best leaf
                    return next(p for p in range(n) if prefix[p] != best_perm[p])
                first, later = cells[0], cells[1:]
                keyed = []
                steps = first.bit_count() * len(cells)
                for w in _members(first):
                    row = adj[w]
                    key = 0
                    if row & fixed:  # else its bits at the placed indices are all 0
                        steps += d
                        for v in prefix:
                            key = (key << 1) | ((row >> v) & 1)
                    key = (key << 1) | ((row >> w) & 1)
                    for cell in (first ^ (1 << w), *later):
                        if cell:
                            key = (key << cell.bit_count()) | ((1 << (row & cell).bit_count()) - 1)
                    keyed.append(((key << label_bits) | labels[w], w))
                _spend(budget, steps)
                least = min(keyed)[0]
                if best_perm and keys[:d] == best_keys[:d] and least > best_keys[d]:
                    return n
                keys[d] = least
                tied = [w for key, w in keyed if key == least]
                if len(tied) > 1:
                    break
                prefix.append(tied[0])
                cells = refine(cells, tied[0])
                fixed |= 1 << tied[0]
            for i, w in enumerate(tied):
                if i and _orbit_min(w, gens, fixed, budget) < w:
                    continue
                prefix.append(w)
                resume = visit(prefix, refine(cells, w), fixed | (1 << w))
                prefix.pop()
                if resume < d:
                    return resume
            return n
        finally:
            del prefix[start:]

    visit([], [cell for cell in cells if cell], 0)
    return best_keys, best_perm, gens


def _search_double(a: BinMatrix, fixed_cols: list[int], budget: list[int]) -> tuple[list[int], list[int], _Generators]:
    """``_search`` on the bipartite double of ``a`` with equal rows merged.

    Index ``i < r``, for ``r`` distinct rows, is the ``i``-th of them,
    labelled by how few times it occurs; index ``r + j`` is column ``j``.
    The columns in ``fixed_cols`` take the first column positions, in that
    order.  A row that occurs more often sorts first among equal keys, as
    its copies do in the full matrix.
    """
    counts: dict[int, int] = {}
    for row in a.data:
        counts[row] = counts.get(row, 0) + 1
    rows = tuple(counts)
    r = len(rows)
    adj = [row << r for row in rows] + list(BinMatrix(a.cols, rows).transpose().data)
    labels = [a.rows - counts[row] for row in rows] + [0] * a.cols
    rest = (1 << a.cols) - 1
    for j in fixed_cols:
        rest &= ~(1 << j)
    return _search(adj, [(1 << r) - 1, *(1 << (r + j) for j in fixed_cols), rest << r], budget, labels)


def _canon_independent(a: BinMatrix, budget: list[int]) -> CanonicalMatrix:
    """The canonical matrix, with the lexicographically first optimal
    column order and the rows sorted by (key, index) under it."""
    r = len(set(a.data))
    col_bits = ((1 << a.cols) - 1) << r
    chosen: list[int] = []
    _, perm, gens = _search_double(a, chosen, budget)
    # The optimal column orders that start with ``chosen`` are the images
    # of ``perm``'s under the automorphisms that fix ``chosen``, and the
    # search's generators generate those: the least column in the orbit
    # of ``perm``'s next one is the least that can follow.  Fix it and
    # search again, until no generator moves a column.
    while any(support & col_bits for _, support in gens):
        chosen.append(_orbit_min(perm[r + len(chosen)], gens, 0, budget) - r)
        _, perm, gens = _search_double(a, chosen, budget)
    col_perm = tuple(v - r for v in perm[r:])
    # rows of equal length sort as bit strings as they do as big-endian keys
    rows = _permuted(a, range(a.rows), col_perm)
    text = rows.to_bitstring_rows()
    row_perm = tuple(sorted(range(a.rows), key=text.__getitem__))
    return CanonicalMatrix(BinMatrix(a.cols, tuple(rows.data[i] for i in row_perm)), row_perm, col_perm)


def canonical_form(a: BinMatrix, mode: str = MODE_INDEPENDENT) -> CanonicalMatrix:
    """Minimal orbit element under the fixed matrix order.

    ``independent-row-col`` searches over every row permutation paired
    with every column permutation; ``conjugation`` over one permutation
    applied to rows and columns simultaneously (square matrices only).
    Raises ``UnsupportedSize`` when the search spends ``SEARCH_BUDGET``.
    """
    if mode == MODE_INDEPENDENT:
        return _canon_independent(a, [SEARCH_BUDGET])
    if mode == MODE_CONJUGATION:
        if not a.is_square:
            raise ShapeError(f"conjugation mode needs a square matrix, got {a.shape}")
        perm = tuple(_search(list(a.data), [(1 << a.rows) - 1], [SEARCH_BUDGET])[1])
        return CanonicalMatrix(_permuted(a, perm, perm), perm, perm)
    raise InvalidInput(f"unknown canonicalization mode {mode!r}")


def _weight_profiles(a: BinMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rows = tuple(sorted(r.bit_count() for r in a.data))
    cols = tuple(sorted(c.bit_count() for c in a.transpose().data))
    return rows, cols


def permutation_equivalent(a: BinMatrix, b: BinMatrix) -> bool:
    """Whether a row permutation and an independent column permutation
    map ``a`` to ``b``; matrices of different shapes differ in their
    weight profiles."""
    if _weight_profiles(a) != _weight_profiles(b):
        return False
    budget = [SEARCH_BUDGET]
    return _search_double(a, [], budget)[0] == _search_double(b, [], budget)[0]


def switching_equivalent(f: Frame, g: Frame) -> bool:
    """Whether two frames agree up to an orthogonal map plus reindexing.

    Decided on Gram matrices: the frames are switching equivalent iff the
    Gram matrices are conjugate under a permutation matrix.  A Gram
    matrix is symmetric, so its least key, which holds every entry on and
    below the diagonal, fixes its canonical matrix.
    """
    gf, gg = gram(f.analysis), gram(g.analysis)
    if f.analysis.cols != g.analysis.cols or _weight_profiles(gf) != _weight_profiles(gg):
        return False
    budget = [SEARCH_BUDGET]
    return _search(list(gf.data), [(1 << gf.rows) - 1], budget)[0] == _search(list(gg.data), [(1 << gg.rows) - 1], budget)[0]
