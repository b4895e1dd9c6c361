"""Core GF(2) arithmetic: vectors, matrices, elimination, solution sets."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binframe import (
    AffineSolutionSet,
    BinMatrix,
    BinVector,
    DimensionError,
    solve,
)
from binframe.gf2 import _echelon, _impose, _solutions
from oracles import gauss_jordan_solve, incremental_echelon, int_product_rows, matrix_rows_of_columns


def vec(*bits):
    return BinVector.from_bits(bits)


def rand_matrix(rng, rows, cols):
    return BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


matrices = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 8).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r).map(
            lambda rows: BinMatrix(c, tuple(rows))
        )
    )
)


# -- vectors ----------------------------------------------------------------


def test_dot_examples():
    assert vec(1, 0, 1).dot(vec(1, 1, 1)) == 0
    assert vec(1, 1, 1).dot(vec(1, 1, 1)) == 1


def test_dot_canonical_basis_is_orthonormal():
    for i in range(4):
        for j in range(4):
            expected = 1 if i == j else 0
            assert BinVector.basis(4, i).dot(BinVector.basis(4, j)) == expected


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionError):
        vec(1, 0).dot(vec(1, 0, 1))
    with pytest.raises(DimensionError, match="^cannot add vectors of dimension 2 and 3$"):
        vec(1, 0) + vec(1, 0, 1)


@pytest.mark.parametrize(
    "bits,expected",
    [((1, 0, 1, 1), 1), ((0, 0, 0, 0), 0), ((1, 1, 0, 0), 0)],
)
def test_parity_examples(bits, expected):
    assert vec(*bits).parity() == expected


def test_parity_is_dot_with_all_ones():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 40)
        v = BinVector(n, rng.getrandbits(n))
        assert v.parity() == v.dot(BinVector.ones(n))


@given(st.integers(1, 24), st.data())
def test_parity_additive(n, data):
    u = BinVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    v = BinVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert (u + v).parity() == u.parity() ^ v.parity()


def test_vector_self_cancellation():
    v = vec(1, 0, 1, 1, 0)
    assert v + v == BinVector(5, 0)


def test_zero_dimension_rejected():
    with pytest.raises(DimensionError):
        BinVector(0, 0)
    with pytest.raises(DimensionError):
        BinMatrix(0, (0,))
    for build in (BinMatrix.from_rows, BinMatrix.from_cols):
        with pytest.raises(DimensionError, match="^at least one vector is needed$"):
            build([])


def test_stray_bits_rejected():
    with pytest.raises(ValueError):
        BinVector(3, 8)
    with pytest.raises(ValueError):
        BinMatrix(2, (4,))


# -- matrices ---------------------------------------------------------------


def test_mat_mul_identity():
    rng = random.Random(5)
    a = rand_matrix(rng, 3, 3)
    assert BinMatrix.identity(3) @ a == a
    assert a @ BinMatrix.identity(3) == a


def test_mat_mul_all_ones():
    # each entry of J3*J3 is 3 mod 2 = 1
    j3 = BinMatrix.all_ones(3, 3)
    assert j3 @ j3 == j3


def test_mat_mul_hollow_all_ones_is_idempotent():
    a = BinMatrix.all_ones(3, 3) + BinMatrix.identity(3)
    assert a @ a == a
    assert a.is_symmetric()


def test_mat_mul_dimension_mismatch():
    with pytest.raises(DimensionError):
        BinMatrix(3, (0,) * 2) @ BinMatrix(3, (0,) * 2)
    with pytest.raises(DimensionError, match=r"^cannot add shapes \(2, 3\) and \(3, 3\)$"):
        BinMatrix(3, (0,) * 2) + BinMatrix.identity(3)
    with pytest.raises(DimensionError, match=r"^cannot apply shape \(2, 3\) to dimension 2$"):
        BinMatrix(3, (0,) * 2).mul_vec(vec(1, 0))


def test_rank_examples():
    assert BinMatrix.identity(6).rank() == 6
    assert BinMatrix.all_ones(3, 3).rank() == 1
    c = BinMatrix.circulant(vec(1, 1, 1, 0, 1, 1, 0, 1, 1))
    assert c.rank() == 7


def test_rank_transpose_agrees():
    rng = random.Random(7)
    for _ in range(30):
        a = rand_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        assert a.rank() == a.transpose().rank()


@given(matrices, matrices)
@settings(max_examples=60)
def test_transpose_of_product(a, b):
    if a.cols != b.rows:
        b = BinMatrix(b.cols, tuple(b.data[i % b.rows] for i in range(a.cols)))
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_transpose_of_product_large_random():
    rng = random.Random(13)
    for _ in range(10):
        m, inner, n = (rng.randint(1, 64) for _ in range(3))
        a = rand_matrix(rng, m, inner)
        b = rand_matrix(rng, inner, n)
        assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_transpose_involution():
    rng = random.Random(3)
    a = rand_matrix(rng, 5, 9)
    assert a.transpose().transpose() == a


def test_multiplication_associates_and_distributes():
    rng = random.Random(17)
    for _ in range(20):
        a = rand_matrix(rng, 4, 5)
        b = rand_matrix(rng, 5, 6)
        c = rand_matrix(rng, 6, 3)
        assert (a @ b) @ c == a @ (b @ c)
        b2 = rand_matrix(rng, 5, 6)
        assert a @ (b + b2) == (a @ b) + (a @ b2)


def test_circulant_and_shift():
    s = BinMatrix.circulant(BinVector.basis(3, 2))
    assert s.mul_vec(BinVector.basis(3, 0)) == BinVector.basis(3, 1)
    s5 = BinMatrix.circulant(BinVector.basis(5, 4))
    p = BinMatrix.identity(5)
    for _ in range(5):
        p = s5 @ p
    assert p == BinMatrix.identity(5)
    assert BinMatrix.circulant(BinVector.basis(1, 0)) == BinMatrix(1, (1,))


def test_circulant_layout():
    c = BinMatrix.circulant(vec(1, 1, 0, 1))
    assert c.row(0) == vec(1, 1, 0, 1)
    assert c.row(1) == vec(1, 1, 1, 0)
    assert c.row(2) == vec(0, 1, 1, 1)
    assert c.row(3) == vec(1, 0, 1, 1)
    assert [c[1, j] for j in range(4)] == [1, 1, 1, 0]
    assert (c.row(2)[0], c.row(2)[3], str(c.row(2))) == (0, 1, "0111")
    for i, j in ((4, 0), (0, 4), (-1, 0)):
        with pytest.raises(IndexError):
            c[i, j]
    for i in (4, -1):
        with pytest.raises(IndexError):
            c.row(0)[i]


def test_from_cols_matches_col_accessor():
    rng = random.Random(23)
    a = rand_matrix(rng, 6, 4)
    rebuilt = BinMatrix.from_cols([a.col_vectors()[j] for j in range(4)])
    assert rebuilt == a


# -- linear solve -----------------------------------------------------------


def test_solve_identity():
    b = vec(1, 0, 1)
    sols = solve(BinMatrix.identity(3), b)
    assert sols.is_consistent
    assert list(sols) == [b]
    assert sols.nullbasis == ()


def test_solve_underdetermined():
    sols = solve(BinMatrix.from_rows([vec(1, 1)]), vec(1))
    assert sols.particular == vec(1, 0)
    assert sols.nullbasis == (vec(1, 1),)
    assert len(sols) == 2
    assert set(s.bits for s in sols) == {0b01, 0b10}


def test_solve_inconsistent():
    # the all-ones row cannot be both 0 and 1
    a = BinMatrix.from_rows([vec(1, 1, 1), vec(1, 1, 1)])
    sols = solve(a, vec(0, 1))
    assert not sols.is_consistent
    assert len(sols) == 0
    assert list(sols) == []


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionError):
        solve(BinMatrix.identity(3), vec(1, 0))


def test_solve_exhaustive_cross_check():
    """Every member satisfies the system; counts match 2^(cols - rank)."""
    rng = random.Random(41)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 12)
        a = rand_matrix(rng, rows, cols)
        b = BinVector(rows, rng.getrandbits(rows))
        sols = solve(a, b)
        brute = {
            x for x in range(1 << cols)
            if all(((a.data[i] & x).bit_count() & 1) == ((b.bits >> i) & 1) for i in range(rows))
        }
        members = [s.bits for s in sols]
        assert len(members) == len(set(members))
        assert set(members) == brute
        if sols.is_consistent:
            assert len(sols) == 1 << (cols - a.rank())


def test_solution_iteration_is_gray_coded():
    """Consecutive members differ by exactly one null-basis vector."""
    a = BinMatrix.from_rows([vec(1, 1, 0, 0, 1)])
    sols = solve(a, vec(1))
    members = list(sols)
    assert members[0] == sols.particular
    basis_bits = {v.bits for v in sols.nullbasis}
    for prev, cur in zip(members, members[1:]):
        assert prev.bits ^ cur.bits in basis_bits


def test_affine_set_is_plain_data():
    s = AffineSolutionSet(3, BinVector(3, 1), (BinVector(3, 6),))
    assert s.is_consistent
    assert len(s) == 2


@st.composite
def systems(draw):
    """(a, b) with up to 14 rows and columns; rows mix a few generators so
    rank deficits are common, and b is half the time in the column space."""
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    gens = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=1, max_size=rows))
    data = []
    for _ in range(rows):
        pick = draw(st.integers(0, (1 << len(gens)) - 1))
        r = 0
        for i, g in enumerate(gens):
            if (pick >> i) & 1:
                r ^= g
        data.append(r)
    a = BinMatrix(cols, tuple(data))
    if draw(st.booleans()):
        b = a.mul_vec(BinVector(cols, draw(st.integers(0, (1 << cols) - 1))))
    else:
        b = BinVector(rows, draw(st.integers(0, (1 << rows) - 1)))
    return a, b


@given(systems())
@settings(max_examples=300)
def test_solve_and_rank_match_gauss_jordan(system):
    """The incremental echelon reads off the same particular solution, the
    same null basis in the same order, and the same rank as Gauss-Jordan
    elimination of the whole system."""
    a, b = system
    particular, basis, rank = gauss_jordan_solve(list(a.data), a.cols, list(b))
    sols = solve(a, b)
    assert a.rank() == rank
    if particular is None:
        assert not sols.is_consistent
        assert sols.nullbasis == ()
    else:
        assert sols.particular == BinVector(a.cols, particular)
        assert [v.bits for v in sols.nullbasis] == basis


# -- word-parallel kernels against int-only definitions ----------------------

# inner dimensions (rows of the right factor) on both sides of each 8-row table
KERNEL_SIZES = (1, 2, 7, 8, 9, 16, 17, 31, 33, 63, 64, 65, 100, 130)


def _random_rows(rng, rows, cols, density):
    return tuple(sum(1 << j for j in range(cols) if rng.random() < density) for _ in range(rows))


def test_matmul_matches_int_product_on_random_shapes():
    """Four Russians products equal the row-by-row XOR definition for 1 x N,
    N x 1, inner sizes that are not multiples of 8 and k up to 130."""
    rng = random.Random(101)
    shapes = [(1, c, s) for c in KERNEL_SIZES for s in (1, 5, 130)]
    shapes += [(r, c, 1) for r in KERNEL_SIZES for c in (1, 9, 65)]
    shapes += [(k, k, k) for k in KERNEL_SIZES]
    shapes += [(rng.randint(1, 130), rng.choice(KERNEL_SIZES), rng.randint(1, 130)) for _ in range(40)]
    for r, c, s in shapes:
        for density in (0.05, 0.5, 0.95):
            a = _random_rows(rng, r, c, density)
            b = _random_rows(rng, c, s, rng.choice((0.05, 0.5, 0.95)))
            assert (BinMatrix(c, a) @ BinMatrix(s, b)).data == int_product_rows(a, b), (r, c, s)


def test_transpose_matches_int_definition():
    """The strided bit-string transpose equals the entrywise definition,
    across shapes and densities, small and large."""
    rng = random.Random(103)
    shapes = [(r, c) for r in KERNEL_SIZES for c in KERNEL_SIZES]
    shapes += [(1, 1500), (1500, 1), (32, 32), (33, 32), (32, 33), (200, 7)]
    for r, c in shapes:
        for density in (0.0, 0.02, 0.1, 0.5, 1.0):
            rows = _random_rows(rng, r, c, density)
            expected = matrix_rows_of_columns(rows, c)  # the matrix whose columns are these rows
            assert BinMatrix(c, rows).transpose().data == expected, (r, c, density)


@st.composite
def echelon_systems(draw):
    """(rows, cols): stacked equations with the right-hand side in bit
    ``cols``; consistent and inconsistent systems, and full column rank."""
    cols = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(("random", "consistent", "no free column")))
    if kind == "no free column":
        x = draw(st.integers(0, (1 << cols) - 1))
        rows = [(1 << j) | (((x >> j) & 1) << cols) for j in range(cols)]
        extra = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=4))
        rows += [e | (((e & x).bit_count() & 1) << cols) for e in extra]
    elif kind == "consistent":
        x = draw(st.integers(0, (1 << cols) - 1))
        eqs = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=14))
        rows = [e | (((e & x).bit_count() & 1) << cols) for e in eqs]
    else:
        rows = draw(st.lists(st.integers(0, (1 << (cols + 1)) - 1), max_size=14))
    return draw(st.permutations(rows)), cols


@given(echelon_systems(), st.data())
@settings(max_examples=400)
def test_imposing_an_equation_equals_adding_its_row(system, data):
    """Cutting the reduced solution set by (x, y) = 0 gives the solution
    set of the echelon that also holds the row x: the same particular
    solution and null basis, empty when the cut leaves nothing."""
    rows, cols = system
    x = data.draw(st.integers(0, (1 << cols) - 1))
    part, nulls = _solutions(rows, cols)
    assert _impose(part, nulls, x) == _solutions(rows + [x], cols)


# -- the blocked echelon build against the row-by-row one ---------------------


def _echelon_rows(rows):
    return sorted(_echelon(rows), key=lambda r: r & -r)


@st.composite
def echelon_inputs(draw):
    """(rows, cols): rows of ``cols`` coefficient bits and a right-hand
    side in bit ``cols``, with zero rows, repeated rows and sums of
    earlier rows mixed in, at widths on both sides of a multiple of 8."""
    cols = draw(st.integers(1, 40))
    rows = draw(st.lists(st.integers(0, (1 << (cols + 1)) - 1), max_size=24))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("zero", "repeat", "sum")))
        if kind == "zero" or not rows:
            rows.append(0)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(draw(st.sampled_from(rows)) ^ draw(st.sampled_from(rows)))
    return draw(st.permutations(rows)), cols


@given(echelon_inputs())
@settings(max_examples=500)
def test_blocked_echelon_matches_row_by_row_build(system):
    """The reduced echelon form is unique, so the blocked build stores the
    rows the per-row Gauss-Jordan build does, and reads the same solution
    set off them."""
    rows, cols = system
    expected = incremental_echelon(rows)
    assert _echelon_rows(rows) == expected
    assert len(_echelon(rows)) == len(expected)
    pivots = sum(r & -r for r in expected)
    if pivots >> cols:
        assert _solutions(rows, cols) == (None, [])
    else:
        particular, basis, _ = gauss_jordan_solve([r & ((1 << cols) - 1) for r in rows], cols, [(r >> cols) & 1 for r in rows])
        assert _solutions(rows, cols) == (particular, basis)


@pytest.mark.parametrize("k", [1024, 2048])
def test_blocked_echelon_matches_row_by_row_build_at_scale(k):
    """k rows of rank about k/2, with a right-hand side bit at k, as in
    the fill's kernel systems."""
    rng = random.Random(k)
    half = [rng.getrandbits(k + 1) for _ in range(k // 2)]
    rows = half + [a ^ b for a, b in zip(half, half[1:])] + [0]
    rng.shuffle(rows)
    assert _echelon_rows(rows) == incremental_echelon(rows)
