"""Brute-force reference implementations used to cross-check the library.

Everything here works on raw ints (bit i = entry i) and stays deliberately
independent of the package's algorithms: membership in these results is
decided by definitions, not by the code under test.  ``build_parser`` is
the command line declared with argparse, the reference for the CLI's own
parser.
"""

from __future__ import annotations

import argparse
import itertools


def popcount_parity(x: int) -> int:
    return x.bit_count() & 1


def int_dot(a: int, b: int) -> int:
    return (a & b).bit_count() & 1


def all_orthonormal_tuples(k: int, n: int) -> list[tuple[int, ...]]:
    """Every ordered tuple of n pairwise-orthonormal vectors in GF(2)^k."""
    out: list[tuple[int, ...]] = []

    def extend(chosen: list[int]) -> None:
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        for v in range(1, 1 << k):
            if popcount_parity(v) != 1:
                continue
            if any(int_dot(v, c) for c in chosen) or v in chosen:
                continue
            chosen.append(v)
            extend(chosen)
            chosen.pop()

    extend([])
    return out


def all_orthonormal_sets(k: int, n: int) -> list[tuple[int, ...]]:
    """Ascending tuples of n pairwise-orthonormal vectors in GF(2)^k."""
    out: list[tuple[int, ...]] = []

    def extend(chosen: list[int], start: int) -> None:
        if len(chosen) == n:
            out.append(tuple(chosen))
            return
        for v in range(start, 1 << k):
            if popcount_parity(v) != 1:
                continue
            if any(int_dot(v, c) for c in chosen):
                continue
            chosen.append(v)
            extend(chosen, v + 1)
            chosen.pop()

    extend([], 1)
    return out


def sorted_relabel_orbit(cols: tuple[int, ...], k: int) -> set[tuple[int, ...]]:
    """Every ascending column tuple that some coordinate relabeling carries
    ``cols`` onto in place, by trying all k! relabelings."""
    orbit = set()
    for perm in itertools.permutations(range(k)):
        moved = tuple(sum(((c >> i) & 1) << perm[i] for i in range(k)) for c in cols)
        if all(a < b for a, b in zip(moved, moved[1:])):
            orbit.add(moved)
    return orbit


def gram_of_columns(cols: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Rows of theta theta* where theta has the given columns."""
    rows = []
    for i in range(k):
        row_i = 0
        for j, c in enumerate(cols):
            if (c >> i) & 1:
                row_i |= 1 << j
        rows.append(row_i)
    out = []
    for i in range(k):
        bits = 0
        for j in range(k):
            bits |= int_dot(rows[i], rows[j]) << j
        out.append(bits)
    return tuple(out)


def matrix_rows_of_columns(cols: tuple[int, ...], k: int) -> tuple[int, ...]:
    rows = []
    for i in range(k):
        bits = 0
        for j, c in enumerate(cols):
            bits |= ((c >> i) & 1) << j
        rows.append(bits)
    return tuple(rows)


def complement_exists_brute(theta_cols: tuple[int, ...], k: int) -> bool:
    """Whether any k x (k-n) binary matrix psi has gram(theta)+gram(psi)=I.

    Scans every candidate psi; no structure beyond the definition is used.
    """
    n = len(theta_cols)
    target = gram_of_columns(theta_cols, k)
    identity = tuple(1 << i for i in range(k))
    m = k - n
    for assignment in range(1 << (k * m)):
        psi_cols = tuple((assignment >> (j * k)) & ((1 << k) - 1) for j in range(m))
        g = gram_of_columns(psi_cols, k)
        if all((target[i] ^ g[i]) == identity[i] for i in range(k)):
            return True
    return False


def factorization_exists_full_brute(m_rows: tuple[int, ...], k: int, n: int) -> bool:
    """Whether any k x n binary matrix theta satisfies theta theta* = m and
    theta* theta = I, by scanning all 2^(k*n) candidates."""
    identity_n = tuple(1 << i for i in range(n))
    for assignment in range(1 << (k * n)):
        cols = tuple((assignment >> (j * k)) & ((1 << k) - 1) for j in range(n))
        ok = True
        for a in range(n):
            for b in range(a, n):
                if int_dot(cols[a], cols[b]) != (1 if a == b else 0):
                    ok = False
                    break
            if not ok:
                break
        if ok and gram_of_columns(cols, k) == m_rows:
            return True
    return False


def factorization_exists_pruned(m_rows: tuple[int, ...], k: int, n: int) -> bool:
    """Same question as the full scan, pruned to orthonormal column sets.

    Still definition-driven: columns are built up in ascending order with
    the orthonormality conditions checked pairwise, and the Gram equation
    checked at the leaves.
    """
    for cols in all_orthonormal_sets(k, n):
        if gram_of_columns(cols, k) == m_rows:
            return True
    return False


def all_symmetric_idempotent(k: int) -> list[tuple[int, ...]]:
    """Rows of every symmetric idempotent k x k matrix over GF(2)."""
    positions = [(i, j) for i in range(k) for j in range(i, k)]
    out = []
    for mask in range(1 << len(positions)):
        rows = [0] * k
        for b, (i, j) in enumerate(positions):
            if (mask >> b) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        square = []
        for i in range(k):
            bits = 0
            for j in range(k):
                col_j = 0
                for r in range(k):
                    col_j |= ((rows[r] >> j) & 1) << r
                bits |= int_dot(rows[i], col_j) << j
            square.append(bits)
        if tuple(square) == tuple(rows):
            out.append(tuple(rows))
    return out


def rank_int_rows(rows: tuple[int, ...]) -> int:
    work = list(rows)
    r = 0
    for col in range(max(x.bit_length() for x in work) if any(work) else 0):
        piv = None
        for i in range(r, len(work)):
            if (work[i] >> col) & 1:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> col) & 1:
                work[i] ^= work[r]
        r += 1
    return r


def int_product_rows(a_rows: tuple[int, ...], b_rows: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of A B: row i is the XOR of the rows of B that row i of A selects."""
    out = []
    for row in a_rows:
        acc = 0
        for r, b in enumerate(b_rows):
            if (row >> r) & 1:
                acc ^= b
        out.append(acc)
    return tuple(out)


def circulant_int_rows(c: int, k: int) -> tuple[int, ...]:
    """Rows of the circulant C[i][j] = c[(j - i) mod k]: row i is c rotated
    i places towards higher indices."""
    mask = (1 << k) - 1
    return tuple(((c << i) | (c >> (k - i))) & mask for i in range(k))


def symmetric_circulant_first_rows(k: int) -> list[int]:
    """Every first row with c_i = c_{(k-i) mod k}, ascending, built from its
    k//2 + 1 free bits c_0 .. c_{k//2}."""
    out = []
    for free in range(1 << (k // 2 + 1)):
        c = 0
        for i in range(k // 2 + 1):
            if (free >> i) & 1:
                c |= (1 << i) | (1 << ((k - i) % k))
        out.append(c)
    return sorted(out)


def scan_cyclic_grams(k: int) -> list[tuple[int, int]]:
    """(first row, rank) of every symmetric idempotent circulant with odd
    columns, ascending by first row, by a scan of about 2^(k/2) rows.

    Symmetry forces c_i = c_{(k-i) mod k}, so the row is fixed by the pairs
    {i, k-i} it contains; odd weight then forces c_0 = 1 and, for even k,
    c_{k/2} = 0.  A candidate is kept when its cyclic self-convolution,
    row 0 of C C, equals it; the rank is taken on the k x k circulant.
    """
    mask = (1 << k) - 1
    pairs = [(i, k - i) for i in range(1, (k + 1) // 2)]
    out = []
    for free in range(1 << len(pairs)):
        c = 1
        for b, (i, j) in enumerate(pairs):
            if (free >> b) & 1:
                c |= (1 << i) | (1 << j)
        square = 0
        rest = c
        while rest:
            low = rest & -rest
            shift = low.bit_length() - 1
            square ^= ((c << shift) | (c >> (k - shift))) & mask
            rest ^= low
        if square == c:
            out.append((c, rank_int_rows(circulant_int_rows(c, k))))
    return sorted(out)


def repetition_free_cyclic_grams(k: int) -> list[tuple[int, int, str]]:
    """(k, rank, first row) of every circulant C that is symmetric, has all
    columns odd, satisfies C C = C, has rank below k and pairwise distinct
    rows; sorted by the integer encoding of the first row.  Each condition
    is checked on the k x k matrix itself."""
    out = []
    for c in symmetric_circulant_first_rows(k):
        rows = circulant_int_rows(c, k)
        cols = matrix_rows_of_columns(rows, k)  # the transpose, column j as an int
        if cols != rows or not all(popcount_parity(col) for col in cols):
            continue
        if int_product_rows(rows, rows) != rows:
            continue
        rank = rank_int_rows(rows)
        if rank >= k or len(set(rows)) != k:
            continue
        out.append((k, rank, "".join(str((c >> i) & 1) for i in range(k))))
    return out


def perm_equivalent_brute(a_rows: tuple[int, ...], b_rows: tuple[int, ...], cols: int) -> bool:
    """Independent row/column permutation equivalence by exhaustion."""
    b_col_multiset = sorted(
        tuple((r >> j) & 1 for r in b_rows) for j in range(cols)
    )
    for rp in itertools.permutations(range(len(a_rows))):
        rows = [a_rows[i] for i in rp]
        a_cols = sorted(tuple((r >> j) & 1 for r in rows) for j in range(cols))
        if a_cols == b_col_multiset:
            return True
    return False


def conjugation_equivalent_brute(a_rows: tuple[int, ...], b_rows: tuple[int, ...]) -> bool:
    """Simultaneous permutation equivalence P a P* = b by exhaustion."""
    k = len(a_rows)
    for perm in itertools.permutations(range(k)):
        ok = True
        for i in range(k):
            row = 0
            for j in range(k):
                row |= ((a_rows[perm[i]] >> perm[j]) & 1) << j
            if row != b_rows[i]:
                ok = False
                break
        if ok:
            return True
    return False


def permute_int_rows(
    rows: tuple[int, ...], row_perm: tuple[int, ...], col_perm: tuple[int, ...]
) -> tuple[int, ...]:
    """Rows of m with m[i][j] = rows[row_perm[i]][col_perm[j]]."""
    out = []
    for i in row_perm:
        bits = 0
        for j, cj in enumerate(col_perm):
            bits |= ((rows[i] >> cj) & 1) << j
        out.append(bits)
    return tuple(out)


def _bigendian(row: int, order: tuple[int, ...]) -> int:
    key = 0
    for j in order:
        key = (key << 1) | ((row >> j) & 1)
    return key


def brute_canonical_form(
    rows: tuple[int, ...], cols: int, conjugation: bool
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Least orbit member in row-major big-endian order, by trying every
    permutation, with the certificate ``(matrix, row_perm, col_perm)``.

    Conjugation mode tries every k! simultaneous permutation and keeps the
    first optimal one in ``itertools.permutations`` order.  Independent
    mode tries every column order, sorts the rows by (key, index) under
    it, and keeps the first column order reaching the least sorted keys.
    """
    best = None
    if conjugation:
        for perm in itertools.permutations(range(len(rows))):
            keys = []
            for i in perm:
                keys.append(_bigendian(rows[i], perm))
                if best is not None and keys > best[0][: len(keys)]:
                    break  # already worse: the rest cannot make it smaller
            else:
                if best is None or keys < best[0]:
                    best = (keys, perm, perm)
    else:
        for col_perm in itertools.permutations(range(cols)):
            keyed = sorted((_bigendian(row, col_perm), i) for i, row in enumerate(rows))
            keys = [key for key, _ in keyed]
            if best is None or keys < best[0]:
                best = (keys, tuple(i for _, i in keyed), col_perm)
    _, row_perm, col_perm = best
    return permute_int_rows(rows, row_perm, col_perm), row_perm, col_perm


# -- the construction as it was first written: Gauss-Jordan solved afresh
# at every step.  The package now grows one echelon instead; these keep
# the old path as the reference its outputs must match bit for bit.


def gauss_jordan_solve(
    rows: list[int], cols: int, rhs: list[int]
) -> tuple[int | None, list[int], int]:
    """(particular solution or None, null basis, rank) of ``rows x = rhs``.

    Gauss-Jordan elimination pivoting on the lowest column, then the lowest
    row; the particular solution sets every free variable to 0, and the null
    basis has one vector per free column, in ascending column order.
    """
    work, b = list(rows), list(rhs)
    pivots: list[int] = []
    for col in range(cols):
        r0 = len(pivots)
        found = next((r for r in range(r0, len(work)) if (work[r] >> col) & 1), None)
        if found is None:
            continue
        work[r0], work[found] = work[found], work[r0]
        b[r0], b[found] = b[found], b[r0]
        for r in range(len(work)):
            if r != r0 and (work[r] >> col) & 1:
                work[r] ^= work[r0]
                b[r] ^= b[r0]
        pivots.append(col)
    if any(b[len(pivots):]):
        return None, [], len(pivots)
    particular = 0
    for r, c in enumerate(pivots):
        particular |= b[r] << c
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = 1 << free
        for r, c in enumerate(pivots):
            if (work[r] >> free) & 1:
                vec |= 1 << c
        basis.append(vec)
    return particular, basis, len(pivots)


def gray_code_members(particular: int, basis: list[int]):
    """Members of particular + span(basis), flipping one basis vector per
    step in reflected-Gray-code order."""
    current = particular
    yield current
    for t in range(1, 1 << len(basis)):
        current ^= basis[(t & -t).bit_length() - 1]
        yield current


def _in_span(target: int, rows: list[int]) -> bool:
    return rank_int_rows(tuple(rows) + (target,)) == rank_int_rows(tuple(rows))


def _solve_step(constraints: list[int], found: list[int], k: int, keep) -> int | None:
    """First Gray-code solution of (constraints; found; all-ones) x =
    (0; 0; 1) that ``keep`` accepts, solving the stacked system afresh."""
    rows = constraints + found + [(1 << k) - 1]
    particular, basis, _ = gauss_jordan_solve(rows, k, [0] * (len(rows) - 1) + [1])
    if particular is None:
        return None
    return next((x for x in gray_code_members(particular, basis) if keep(x)), None)


def reference_extend_to_basis(vecs: list[int], k: int) -> list[int]:
    """Extend an orthonormal sequence whose sum is not all-ones to a basis:
    each new vector is the first solution whose addition keeps the running
    sum off the all-ones vector while at least one more vector must follow."""
    ones = (1 << k) - 1
    found = list(vecs)
    total = 0
    for v in found:
        total ^= v
    for s in range(len(found), k):
        avoid = total ^ ones if s <= k - 2 else None
        x = _solve_step([], found, k, lambda x: x != avoid)
        found.append(x)
        total ^= x
    return found


def reference_factor_gram(m_rows: tuple[int, ...], k: int) -> list[int]:
    """Columns of theta with theta* theta = I and theta theta* = m for a
    symmetric idempotent m with an odd column.

    The kernel rows are the greedily independent rows of I + m.  The seed
    is the lowest odd column of m unless all-ones then lies in the span of
    the kernel and the seed; every other column is the first solution that,
    while at least one more column must follow, keeps all-ones out of the
    span of the kernel and the columns found so far.
    """
    ones = (1 << k) - 1
    m_cols = matrix_rows_of_columns(m_rows, k)
    odd = [j for j in range(k) if popcount_parity(m_cols[j])]
    n = rank_int_rows(m_rows)
    kernel: list[int] = []
    for i in range(k):
        row = m_rows[i] ^ (1 << i)
        if row and not _in_span(row, kernel):
            kernel.append(row)
    seed = m_cols[odd[0]]
    columns: list[int] = []
    if n == 1 or not _in_span(ones, kernel + [seed]):
        columns.append(seed)
    for s in range(len(columns), n):
        spanned = kernel + columns
        if s <= n - 2:
            keep = lambda x: not _in_span(ones, spanned + [x])  # noqa: E731
        else:
            keep = lambda x: True  # noqa: E731
        columns.append(_solve_step(kernel, columns, k, keep))
    return columns


def echelon_add(rows: dict[int, int], row: int) -> None:
    """One Gauss-Jordan step on a fully reduced echelon held as pivot bit
    -> row (pivot = lowest set bit, cleared from every other row): reduce
    ``row`` by the stored rows and, if anything is left, clear its pivot
    from them and store it."""
    for pivot, r in rows.items():
        if row & pivot:
            row ^= r
    if row:
        low = row & -row
        for pivot, r in rows.items():
            if r & low:
                rows[pivot] = r ^ row
        rows[low] = row


def incremental_echelon(rows: list[int]) -> list[int]:
    """The rows of the fully reduced echelon of ``rows``, added one at a
    time, in ascending pivot order."""
    stored: dict[int, int] = {}
    for row in rows:
        echelon_add(stored, row)
    return [stored[pivot] for pivot in sorted(stored)]


def reference_incremental_fill(
    k: int, constraints: list[int], start: list[int], n: int, target: int
) -> list[int]:
    """The orthonormal fill as an echelon grown by each vector found:
    extend ``start`` to ``n`` vectors, each the first Gray-code solution of
    (constraints; vectors so far; all-ones) x = (0; 0; 1), skipping while
    room remains the one solution that makes the running sum ``target``.

    The echelon is kept fully reduced (pivot = lowest set bit, cleared
    from every other row) and each step reads only its first two members:
    the particular solution and the one that adds the lowest free
    column's null vector.  Raises RuntimeError when no vector fits.
    """
    rows: dict[int, int] = {}  # pivot bit -> row, right-hand side in bit k

    def first_two() -> tuple[int, ...]:
        pivots = sum(rows)
        if pivots >> k:
            return ()
        free = ((1 << k) - 1) & ~pivots
        bit = free & -free
        part, null = 0, bit
        for pivot, r in rows.items():
            if (r >> k) & 1:
                part |= pivot
            if r & bit:
                null |= pivot
        return (part, part ^ null) if bit else (part,)

    for row in constraints + [((1 << k) - 1) | (1 << k)] + start:
        echelon_add(rows, row)
    found = list(start)
    total = 0
    for v in found:
        total ^= v
    for s in range(len(found), n):
        for x in first_two():
            if s > n - 2 or total ^ x != target:
                break
        else:
            raise RuntimeError(f"no admissible vector {s + 1} of {n} in GF(2)^{k}")
        found.append(x)
        echelon_add(rows, x)
        total ^= x
    return found


def random_orthonormal_sequence(rng, k: int, r: int) -> list[int]:
    """Up to r pairwise orthonormal vectors in GF(2)^k, each drawn uniformly
    from the odd vectors orthogonal to the ones before it; shorter when the
    vectors drawn sum to all-ones and nothing more fits."""
    ones = (1 << k) - 1
    found: list[int] = []
    while len(found) < r:
        particular, basis, _ = gauss_jordan_solve(found + [ones], k, [0] * len(found) + [1])
        if particular is None:
            break
        for b in basis:
            if rng.getrandbits(1):
                particular ^= b
        found.append(particular)
    return found


def random_orthogonal_rows(rng, k: int) -> list[int]:
    """Rows of a random k x k orthogonal matrix: a random permutation
    matrix times k reflections I + m m* with m even, each orthogonal
    because m* m = 0.  Cheap at any k, unlike drawing vector by vector."""
    rows = [1 << i for i in range(k)]
    rng.shuffle(rows)
    for _ in range(k):
        m = rng.getrandbits(k)
        if m.bit_count() & 1:
            m ^= 1 << rng.randrange(k)
        # right-multiplying by I + m m* adds m to every row with odd (r, m)
        rows = [r ^ m if int_dot(r, m) else r for r in rows]
    return rows


def orthonormal_defect(vecs: list[int]) -> str | None:
    """The first failure of (v_i, v_j) = delta_ij, checked pair by pair in
    the order i = 0, 1, ...: (v_i, v_i) first, then j = 0, ..., i - 1."""
    for i, v in enumerate(vecs):
        if not popcount_parity(v):
            return f"vector {i} is even, (v,v) = 0 != 1"
        for j in range(i):
            if int_dot(v, vecs[j]):
                return f"vectors {j} and {i} are not orthogonal"
    return None


class ArgparseUsageError(Exception):
    """An argv the argparse reference parser refuses; the message is argparse's."""


class _RefusingParser(argparse.ArgumentParser):
    def error(self, message):
        raise ArgparseUsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The ``binframe`` command line as argparse declares it: the reference
    for the CLI's own table-driven parser.  Its ``error`` raises
    ``ArgparseUsageError``; ``-h`` prints help and raises ``SystemExit(0)``."""
    common = _RefusingParser(add_help=False)
    common.add_argument("--format", choices=("dense", "cols-int", "json"), default="dense")
    common.add_argument("--output", metavar="PATH", default=None)
    common.add_argument("--quiet", action="store_true")

    parser = _RefusingParser(prog="binframe")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common])
    p.add_argument("property", choices=("parseval", "orthogonal", "gram"))
    p.add_argument("file")

    for name in ("gram", "factor", "complement", "extend"):
        sub.add_parser(name, parents=[common]).add_argument("file")

    p = sub.add_parser("reconstruct", parents=[common])
    p.add_argument("file")
    p.add_argument("--x", required=True, metavar="BITS")

    p = sub.add_parser("enum", parents=[common])
    p.add_argument("kind", choices=("orthogonal", "cyclic"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nonrepeating", action="store_true")

    p = sub.add_parser("equiv", parents=[common])
    p.add_argument("relation", choices=("switching", "perm"))
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("canon", parents=[common])
    p.add_argument("file")
    p.add_argument("--mode", choices=("independent-row-col", "conjugation"), default="independent-row-col")

    return parser
