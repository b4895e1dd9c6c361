"""Gram matrix recognition and factorization."""

import itertools
import random

import pytest

from binframe import (
    BinMatrix,
    BinVector,
    GramCandidate,
    InvalidInput,
    NotGramMatrix,
    ShapeError,
    enum_cyclic_gram,
    enum_orthogonal,
    factor_gram,
    gram,
    is_gram_of_parseval,
    is_parseval,
    odd_columns,
)
from oracles import (
    all_symmetric_idempotent,
    factorization_exists_full_brute,
    gram_of_columns,
    int_dot,
    int_product_rows,
    matrix_rows_of_columns,
    random_orthogonal_rows,
    random_orthonormal_sequence,
    rank_int_rows,
    reference_factor_gram,
    reference_incremental_fill,
)


def vec(*bits):
    return BinVector.from_bits(bits)


def hollow_ones(k):
    """All ones off the diagonal, zeros on it."""
    return BinMatrix.all_ones(k, k) + BinMatrix.identity(k)


def test_candidate_validation():
    with pytest.raises(ShapeError):
        GramCandidate(BinMatrix.zeros(2, 3))
    with pytest.raises(InvalidInput):
        GramCandidate(BinMatrix.from_rows([vec(0, 1), vec(0, 0)]))
    with pytest.raises(InvalidInput):
        GramCandidate(BinMatrix.from_rows([vec(0, 1), vec(1, 0)]))


def test_odd_columns_examples():
    assert odd_columns(BinMatrix.identity(3)) == [0, 1, 2]
    assert odd_columns(hollow_ones(3)) == []
    assert odd_columns(BinMatrix.all_ones(3, 3)) == [0, 1, 2]


def test_is_gram_examples():
    assert is_gram_of_parseval(GramCandidate(BinMatrix.identity(4)))
    assert not is_gram_of_parseval(GramCandidate(hollow_ones(3)))
    assert is_gram_of_parseval(GramCandidate(BinMatrix.all_ones(3, 3)))


def test_odd_column_iff_nonzero_diagonal():
    """For symmetric idempotents the two characterizations coincide."""
    for k in (1, 2, 3, 4):
        for rows in all_symmetric_idempotent(k):
            m = BinMatrix(k, rows)
            has_diag = any((rows[i] >> i) & 1 for i in range(k))
            assert bool(odd_columns(m)) == has_diag


def test_factor_identity():
    assert factor_gram(GramCandidate(BinMatrix.identity(5))).theta == BinMatrix.identity(5)


def test_factor_all_ones():
    f = factor_gram(GramCandidate(BinMatrix.all_ones(3, 3)))
    assert f.theta == BinMatrix.all_ones(3, 1)


def test_factor_cyclic_gram():
    c = BinMatrix.circulant(vec(1, 1, 1, 0, 1, 1, 0, 1, 1))
    f = factor_gram(GramCandidate(c))
    assert f.theta.shape == (9, 7)
    assert is_parseval(f.theta)
    assert gram(f.theta) == c


def test_factor_rejects_even_matrix():
    with pytest.raises(NotGramMatrix) as err:
        factor_gram(GramCandidate(hollow_ones(5)))
    assert err.value.witness == (0,) * 5


def test_factor_handles_seed_needing_fallback():
    """A lone odd column that cannot start any orthonormal factorization:
    the seed must be chosen elsewhere in the fixed-point space."""
    m = BinMatrix.from_rows([vec(1, 0, 0, 0), vec(0, 0, 1, 1), vec(0, 1, 0, 1), vec(0, 1, 1, 0)])
    f = factor_gram(GramCandidate(m))
    assert gram(f.theta) == m
    assert is_parseval(f.theta)
    # e_0 is the only odd column yet cannot be a column of any factor
    assert odd_columns(m) == [0]
    assert all(col.bits != 1 for col in f.theta.col_vectors())


def test_factor_columns_are_fixed_points():
    for m in (BinMatrix.all_ones(3, 3), BinMatrix.circulant(vec(1, 0, 1, 0, 1, 0))):
        theta = factor_gram(GramCandidate(m)).theta
        for col in theta.col_vectors():
            assert m.mul_vec(col) == col


def test_factor_round_trip_over_catalog_selections():
    """Factoring gram(theta) recovers a Parseval frame with the same Gram
    for every column selection of every cataloged orthogonal matrix."""
    for k in range(2, 7):
        for u in enum_orthogonal(k).classes:
            cols = u.col_vectors()
            for n in range(1, k + 1):
                for pick in itertools.combinations(range(k), n):
                    theta = BinMatrix.from_cols([cols[i] for i in pick])
                    g = gram(theta)
                    out = factor_gram(GramCandidate(g)).theta
                    assert gram(out) == g
                    assert is_parseval(out)


def test_factor_exhaustive_small_sizes():
    for k in (1, 2, 3):
        for rows in all_symmetric_idempotent(k):
            m = BinMatrix(k, rows)
            cand = GramCandidate(m)
            if is_gram_of_parseval(cand):
                theta = factor_gram(cand).theta
                assert gram(theta) == m
                assert is_parseval(theta)
                assert theta.cols == m.rank()
            else:
                with pytest.raises(NotGramMatrix):
                    factor_gram(cand)


def test_even_matrices_have_no_factorization_at_all():
    """Full scan over all k x n candidates confirms the rejection is not an
    algorithmic artifact (k <= 4)."""
    for k in (2, 3, 4):
        for rows in all_symmetric_idempotent(k):
            m = BinMatrix(k, rows)
            if odd_columns(m) or not any(rows):
                continue
            n = rank_int_rows(rows)
            assert not factorization_exists_full_brute(rows, k, n)


def test_factor_sampled_circulants():
    import random

    from binframe import enum_cyclic_gram

    rng = random.Random(31)
    for k in rng.sample(range(6, 21), 6):
        for cg in enum_cyclic_gram(k):
            theta = factor_gram(GramCandidate(cg.matrix())).theta
            assert theta.cols == cg.rank
            assert is_parseval(theta)
            assert gram(theta) == cg.matrix()


@pytest.mark.parametrize("inner", [3, 5, 7])
def test_factor_fallback_family(inner):
    """diag(1, hollow ones) has exactly one odd column which can never seed
    the factorization; the fallback seed must kick in for every odd size."""
    k = inner + 1
    rows = [1] + [((1 << inner) - 1 ^ (1 << i)) << 1 for i in range(inner)]
    m = BinMatrix(k, tuple(rows))
    cand = GramCandidate(m)
    assert odd_columns(m) == [0]
    f = factor_gram(cand)
    assert gram(f.theta) == m
    assert is_parseval(f.theta)
    assert f.theta.cols == m.rank()


def test_factor_random_large_parseval_grams():
    """Round-trip through random Parseval frames up to k = 20."""
    import random

    from binframe import BinVector as V
    from binframe import OrthonormalSequence, extend_to_basis

    rng = random.Random(61)
    for _ in range(12):
        k = rng.randint(8, 20)
        bits = rng.getrandbits(k)
        if bits.bit_count() % 2 == 0:
            bits ^= 1 << rng.randrange(k)
        if bits == (1 << k) - 1:
            continue
        basis = extend_to_basis(OrthonormalSequence(k, (V(k, bits),))).vecs
        n = rng.randint(1, k)
        theta = BinMatrix.from_cols(list(basis[:n]))
        g = gram(theta)
        out = factor_gram(GramCandidate(g)).theta
        assert gram(out) == g
        assert is_parseval(out)
        assert out.cols == n


def _theta_cols(m: BinMatrix) -> list[int]:
    return [c.bits for c in factor_gram(GramCandidate(m)).theta.col_vectors()]


def test_factor_matches_per_step_reference_on_cyclic_grams():
    """Every cyclic Gram for k <= 28 factors into exactly the columns of
    the construction that re-solves the stacked system at every step."""
    for k in range(1, 29):
        for cg in enum_cyclic_gram(k):
            m = cg.matrix()
            assert _theta_cols(m) == reference_factor_gram(m.data, k), cg.first_row


def test_factor_matches_per_step_reference_on_random_grams():
    """Grams of random Parseval frames, plus the fallback-seed family."""
    import random

    rng = random.Random(71)
    cases = []
    for _ in range(40):
        k = rng.randint(2, 24)
        cols = random_orthonormal_sequence(rng, k, rng.randint(1, k))
        cases.append((k, gram_of_columns(tuple(cols), k)))
    for inner in (3, 5, 7, 9):
        rows = (1,) + tuple(((1 << inner) - 1 ^ (1 << i)) << 1 for i in range(inner))
        cases.append((inner + 1, rows))
    for k, rows in cases:
        assert _theta_cols(BinMatrix(k, rows)) == reference_factor_gram(rows, k), rows


def test_factor_matches_per_step_reference_at_larger_k():
    """Random Parseval Grams at k = 48..64 factor into exactly the columns
    of the per-step reference."""
    rng = random.Random(307)
    for k in (48, 53, 57, 60, 64):
        n = rng.randint(k // 4, 3 * k // 4)
        cols = tuple(r & ((1 << n) - 1) for r in random_orthogonal_rows(rng, k))
        m = gram_of_columns(matrix_rows_of_columns(cols, n), k)
        assert _theta_cols(BinMatrix(k, m)) == reference_factor_gram(m, k), (k, n)


def test_factor_at_k512_meets_definitions():
    """theta* theta = I and theta theta* = m at k = 512, by int-only code."""
    rng = random.Random(311)
    k, n = 512, 256
    theta_in = [r & ((1 << n) - 1) for r in random_orthogonal_rows(rng, k)]
    m = int_product_rows(tuple(theta_in), matrix_rows_of_columns(tuple(theta_in), n))
    theta = factor_gram(GramCandidate(BinMatrix(k, m))).theta
    assert theta.shape == (k, n)
    cols = matrix_rows_of_columns(theta.data, n)
    assert all(int_dot(cols[a], cols[b]) == (a == b) for a in range(n) for b in range(n))
    assert int_product_rows(theta.data, cols) == m


def test_factor_matches_incremental_reference_at_k1024():
    """At k = 1024 the columns of theta are the vectors of the incremental
    echelon holding the kernel rows of I + m, seeded as factor_gram seeds."""
    rng = random.Random(1031)
    k, n = 1024, 512
    theta_in = [r & ((1 << n) - 1) for r in random_orthogonal_rows(rng, k)]
    m = int_product_rows(tuple(theta_in), matrix_rows_of_columns(tuple(theta_in), n))
    target = sum((r.bit_count() & 1) << i for i, r in enumerate(m))
    seed = m[(target & -target).bit_length() - 1]
    kernel = [r ^ (1 << i) for i, r in enumerate(m)]
    start = [seed] if n == 1 or seed != target else []
    expected = reference_incremental_fill(k, kernel, start, n, target)
    assert _theta_cols(BinMatrix(k, m)) == expected
