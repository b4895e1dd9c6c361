"""Frame semantics: analysis matrices, Parseval predicate, reconstruction."""

from pathlib import Path

import pytest

from binframe import (
    BinMatrix,
    BinVector,
    DimensionError,
    Frame,
    NotSpanningError,
    ShapeError,
    gram,
    is_orthogonal,
    is_parseval,
    reconstruct,
)
from binframe.formats import parse_matrix, parse_vector

DATA = Path(__file__).parent / "data"


def vec(*bits):
    return BinVector.from_bits(bits)


def cols_matrix(k, ints):
    return BinMatrix.from_cols([BinVector(k, c) for c in ints])


def test_analysis_of_canonical_basis():
    f = Frame.from_vectors([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    assert f.analysis == BinMatrix.identity(3)


def test_analysis_of_repeated_ones():
    f = Frame.from_vectors([vec(1), vec(1), vec(1)])
    assert f.analysis == BinMatrix.all_ones(3, 1)


def test_analysis_rows_in_order():
    rows = [vec(1, 1, 1, 0), vec(1, 1, 0, 1), vec(1, 0, 1, 1), vec(0, 1, 1, 1)]
    f = Frame.from_vectors(rows)
    theta = f.analysis
    assert theta.row_vectors() == tuple(rows)


def test_ragged_vectors_rejected():
    with pytest.raises(DimensionError):
        Frame.from_vectors([vec(1, 0), vec(1)])


def test_non_spanning_rejected():
    with pytest.raises(NotSpanningError):
        Frame.from_vectors([vec(1, 0), vec(1, 0)])


def test_is_parseval_examples():
    assert is_parseval(BinMatrix.identity(4))
    assert is_parseval(BinMatrix.all_ones(3, 1))
    assert not is_parseval(BinMatrix.all_ones(2, 1))


def test_reconstruct_with_basis_is_identity():
    f = Frame.from_vectors([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)])
    for x in range(8):
        v = BinVector(3, x)
        assert reconstruct(v, f) == v


def test_reconstruct_repeated_ones():
    f = Frame.from_vectors([vec(1), vec(1), vec(1)])
    assert reconstruct(vec(1), f) == vec(1)


def test_reconstruct_witnesses_non_parseval():
    f = Frame.from_vectors([vec(1, 0), vec(1, 1)])
    assert not is_parseval(f.analysis)
    assert reconstruct(vec(0, 1), f) == vec(1, 1)


def test_reconstruct_dimension_mismatch():
    f = Frame.from_vectors([vec(1, 0), vec(0, 1)])
    with pytest.raises(DimensionError):
        reconstruct(vec(1, 0, 1), f)


def test_gram_examples():
    assert gram(BinMatrix.identity(5)) == BinMatrix.identity(5)
    assert gram(BinMatrix.all_ones(3, 1)) == BinMatrix.all_ones(3, 3)


def test_gram_of_catalog_factorization_is_circulant():
    lines = (DATA / "nonrepeating" / "k09_n7.txt").read_text().splitlines()
    theta = parse_matrix("\n".join(lines[1:]), "dense")
    assert gram(theta) == BinMatrix.circulant(parse_vector(lines[0]))


def test_is_orthogonal_examples():
    perm = BinMatrix.from_rows([vec(0, 1, 0), vec(0, 0, 1), vec(1, 0, 0)])
    assert is_orthogonal(perm)
    assert is_orthogonal(cols_matrix(4, [7, 11, 13, 14]))
    assert not is_orthogonal(BinMatrix.all_ones(3, 3))
    with pytest.raises(ShapeError):
        is_orthogonal(BinMatrix(3, (0,) * 2))


def parseval_samples():
    yield cols_matrix(4, [7, 11])
    yield cols_matrix(4, [7, 11, 13, 14])
    yield BinMatrix.all_ones(3, 1)
    yield BinMatrix.from_cols([BinVector(5, 4), BinVector(5, 11), BinVector(5, 19)])
    yield BinMatrix.identity(6)


@pytest.mark.parametrize("theta", list(parseval_samples()))
def test_parseval_reconstruction_exhaustive(theta):
    assert is_parseval(theta)
    f = Frame(theta)
    for x in range(1 << theta.cols):
        v = BinVector(theta.cols, x)
        assert reconstruct(v, f) == v


@pytest.mark.parametrize("theta", list(parseval_samples()))
def test_parseval_isometry_exhaustive(theta):
    n = theta.cols
    for x in range(1 << n):
        vx = BinVector(n, x)
        ix = theta.mul_vec(vx)
        for y in range(1 << n):
            vy = BinVector(n, y)
            assert ix.dot(theta.mul_vec(vy)) == vx.dot(vy)


@pytest.mark.parametrize("theta", list(parseval_samples()))
def test_gram_projects_parseval_analysis(theta):
    g = gram(theta)
    assert g == g.transpose()
    assert g @ g == g
    assert g @ theta == theta


def test_gram_always_symmetric():
    import random

    rng = random.Random(29)
    for _ in range(25):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        a = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        g = gram(a)
        assert g == g.transpose()
