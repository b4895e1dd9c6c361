"""Seeded benchmark inputs, built with ``random.Random(seed)`` and the
int-row code in ``bits`` only.

Every positive input derives from a random orthogonal matrix U, the
product of a random permutation and reflections I + m m^T with m of even
weight (each is orthogonal because m^T m = 0).  Theta is the first n
columns of U and M = Theta Theta^T.  Negative and inequivalent inputs come
from the same generator, so a seed fixes every byte the program reads.
"""

from __future__ import annotations

import random

from bits import gram, identity, matmul, transpose


def orthogonal(rng: random.Random, k: int) -> list[int]:
    rows = identity(k)
    rng.shuffle(rows)
    for _ in range(k):
        m = rng.getrandbits(k)
        if m.bit_count() & 1:
            m ^= 1 << rng.randrange(k)
        # right-multiplying by I + m m^T adds m to every row with odd (r, m)
        rows = [r ^ m if (r & m).bit_count() & 1 else r for r in rows]
    return rows


def first_columns(rows: list[int], n: int) -> list[int]:
    mask = (1 << n) - 1
    return [r & mask for r in rows]


def parseval(rng: random.Random, k: int, n: int, need_even_row: bool = False, need_odd_row: bool = False) -> list[int]:
    """A k x n analysis matrix with orthonormal columns.

    ``need_even_row`` asks for a frame with a Naimark complement,
    ``need_odd_row`` for one whose Gram matrix has an odd column.
    """
    while True:
        theta = first_columns(orthogonal(rng, k), n)
        parities = {r.bit_count() & 1 for r in theta}
        if (not need_even_row or 0 in parities) and (not need_odd_row or 1 in parities):
            return theta


def all_even_gram(rng: random.Random, k: int, block: int) -> list[int]:
    """A symmetric idempotent k x k matrix with every column even.

    J + I on an odd-sized block (zero elsewhere) is idempotent with zero
    diagonal; conjugating by an orthogonal U keeps both properties, since
    U^T 1 = 1 and so (U M U^T) 1 = U M 1 = 0.
    """
    assert block % 2 == 1 and block <= k
    ones = (1 << block) - 1
    m = [ones ^ (1 << i) for i in range(block)] + [0] * (k - block)
    u = orthogonal(rng, k)
    return matmul(matmul(u, m), transpose(u, k))


def all_odd_frame(rng: random.Random, k: int, n: int) -> list[int]:
    """A k x n Parseval analysis matrix whose rows are all odd.

    Column j of the base matrix is the all-ones vector on its own
    odd-sized block of rows, so every row has one entry.  Left
    multiplication by an orthogonal U and right multiplication by an
    orthogonal Q keep the columns orthonormal and the rows odd.
    """
    sizes = [1] * n
    for _ in range((k - n) // 2):
        sizes[rng.randrange(n)] += 2
    assert sum(sizes) == k, "k - n must be even"
    base = [1 << j for j, size in enumerate(sizes) for _ in range(size)]
    return matmul(orthogonal(rng, k), matmul(base, orthogonal(rng, n)))


def permute_rows(rng: random.Random, rows: list[int]) -> list[int]:
    out = list(rows)
    rng.shuffle(out)
    return out


def permute_cols(rng: random.Random, rows: list[int], cols: int) -> list[int]:
    return transpose(permute_rows(rng, transpose(rows, cols)), len(rows))


def switching_image(rng: random.Random, theta: list[int], n: int) -> list[int]:
    """P Theta Q: a switching-equivalent frame (row reindexing P, orthogonal Q)."""
    return permute_rows(rng, matmul(theta, orthogonal(rng, n)))


def _profile(m: list[int], k: int) -> tuple:
    """A conjugation invariant finer than the row-weight profile: each
    row's weight with the sorted weights of its neighbours."""
    w = [r.bit_count() for r in m]
    return tuple(sorted((w[i], tuple(sorted(w[j] for j in range(k) if (m[i] >> j) & 1))) for i in range(k)))


def inequivalent_pair(rng: random.Random, k: int, n: int) -> tuple[list[int], list[int]]:
    """Two Parseval frames that are not switching equivalent although
    their Grams share the row-weight profile, so the program must run its
    full permutation search.  The finer invariant in ``_profile`` proves
    the inequivalence."""
    seen: dict[tuple, dict[tuple, list[int]]] = {}
    for _ in range(100_000):
        theta = parseval(rng, k, n)
        g = gram(theta, n)
        by_fine = seen.setdefault(tuple(sorted(r.bit_count() for r in g)), {})
        fine = _profile(g, k)
        by_fine.setdefault(fine, theta)
        for other_fine, other in by_fine.items():
            if other_fine != fine:
                return other, theta
    raise ValueError(f"no inequivalent ({k},{n}) pair with equal weight profiles found")


def random_matrix(rng: random.Random, rows: int, cols: int) -> list[int]:
    return [rng.getrandbits(cols) for _ in range(rows)]
