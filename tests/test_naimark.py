"""Orthonormal extension and Naimark complement behavior."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binframe import (
    BinMatrix,
    BinVector,
    ExtensionObstruction,
    InvalidInput,
    OrthonormalSequence,
    extend_to_basis,
    gram,
    has_naimark_complement,
    is_extendable,
    is_orthogonal,
    is_parseval,
    naimark_complement,
)
from binframe.gf2 import _orthonormal_fill
from oracles import (
    all_orthonormal_sets,
    complement_exists_brute,
    int_dot,
    matrix_rows_of_columns,
    orthonormal_defect,
    random_orthogonal_rows,
    random_orthonormal_sequence,
    reference_extend_to_basis,
    reference_incremental_fill,
)


def vec(*bits):
    return BinVector.from_bits(bits)


def cols_matrix(k, ints):
    return BinMatrix.from_rows([BinVector(k, c) for c in ints]).transpose()


def seq(k, *vectors):
    return OrthonormalSequence(k, tuple(BinVector(k, v) for v in vectors))


# -- sequence validation ----------------------------------------------------


def test_even_vector_rejected():
    with pytest.raises(InvalidInput):
        seq(3, 0b011)


def test_non_orthogonal_pair_rejected():
    with pytest.raises(InvalidInput):
        seq(3, 0b001, 0b111)


def test_empty_sequence_needs_dimension():
    assert len(OrthonormalSequence(4, ())) == 0


# -- extendability ----------------------------------------------------------


def test_is_extendable_examples():
    assert is_extendable(seq(3, 0b001))
    assert not is_extendable(seq(3, 0b111))
    assert is_extendable(seq(3, 0b001, 0b010))


def test_is_extendable_rejects_complete_sequence():
    with pytest.raises(InvalidInput):
        is_extendable(seq(2, 0b01, 0b10))


def test_obstruction_by_brute_force():
    # no odd vector in GF(2)^3 is orthogonal to (1,1,1)
    iota = 0b111
    candidates = [
        v for v in range(8)
        if (v.bit_count() & 1) and ((v & iota).bit_count() & 1) == 0
    ]
    assert candidates == []


def test_extend_empty_gives_canonical_basis():
    ext = extend_to_basis(OrthonormalSequence(3, ()))
    assert ext.vecs == tuple(BinVector.basis(3, i) for i in range(3))


def test_extend_preserves_prefix_and_invariants():
    theta = cols_matrix(4, [7, 11])
    start = OrthonormalSequence(4, theta.transpose().row_vectors())
    ext = extend_to_basis(start)
    assert ext.vecs[:2] == start.vecs
    assert len(ext) == 4
    assert ext.vector_sum() == BinVector.ones(4)


def test_extend_obstruction_carries_witness():
    with pytest.raises(ExtensionObstruction) as err:
        extend_to_basis(seq(3, 0b111))
    assert err.value.witness == BinVector.ones(3)


def test_extend_full_sequence_is_identity_operation():
    s = seq(2, 0b01, 0b10)
    assert extend_to_basis(s) is s


def test_extension_exhaustive_small_dimensions():
    """All orthonormal seeds with k <= 5 either extend correctly or are
    exactly the obstructed ones."""
    for k in range(2, 6):
        ones = BinVector.ones(k)
        for r in range(0, k + 1):
            for cols in all_orthonormal_sets(k, r):
                s = OrthonormalSequence(k, tuple(BinVector(k, c) for c in cols))
                obstructed = s.vector_sum() == ones and r < k
                if obstructed:
                    with pytest.raises(ExtensionObstruction):
                        extend_to_basis(s)
                    continue
                ext = extend_to_basis(s)
                assert ext.vecs[:r] == s.vecs
                assert len(ext) == k
                assert ext.vector_sum() == ones
                # re-validating through the constructor checks orthonormality
                OrthonormalSequence(k, ext.vecs)


def test_extension_randomized_large_dimensions():
    rng = random.Random(97)
    for _ in range(15):
        k = rng.randint(6, 20)
        bits = rng.getrandbits(k)
        if bits.bit_count() % 2 == 0:
            bits ^= 1 << rng.randrange(k)
        if bits == (1 << k) - 1:
            continue
        s = OrthonormalSequence(k, (BinVector(k, bits),))
        ext = extend_to_basis(s)
        assert len(ext) == k
        assert ext.vector_sum() == BinVector.ones(k)
        OrthonormalSequence(k, ext.vecs)


def test_extend_matches_per_step_reference_on_random_prefixes():
    """Random orthonormal prefixes extend to exactly the basis of the
    construction that re-solves the stacked system at every step."""
    rng = random.Random(53)
    checked = 0
    for _ in range(120):
        k = rng.randint(1, 24)
        prefix = random_orthonormal_sequence(rng, k, rng.randint(0, k))
        s = OrthonormalSequence(k, tuple(BinVector(k, v) for v in prefix))
        if len(prefix) < k and s.vector_sum() == BinVector.ones(k):
            with pytest.raises(ExtensionObstruction):
                extend_to_basis(s)
            continue
        ext = extend_to_basis(s)
        assert [v.bits for v in ext.vecs] == reference_extend_to_basis(prefix, k)
        checked += 1
    assert checked >= 100


# -- complements ------------------------------------------------------------


def test_has_complement_examples():
    assert not has_naimark_complement(BinMatrix.all_ones(3, 1))
    first_two = BinMatrix.from_rows([BinVector(4, 1), BinVector(4, 2)]).transpose()
    assert has_naimark_complement(first_two)
    assert has_naimark_complement(cols_matrix(4, [7, 11]))


def test_has_complement_matches_row_parity_form():
    theta = cols_matrix(4, [7, 11])
    even_row = any(r.bit_count() % 2 == 0 for r in theta.data)
    column_sum = theta.mul_vec(BinVector.ones(2))
    assert has_naimark_complement(theta) == even_row == (column_sum != BinVector.ones(4))


NOT_PARSEVAL = "matrix is not the analysis matrix of a Parseval frame"


@pytest.mark.parametrize(
    "theta,error,message",
    [
        (BinMatrix.all_ones(2, 1), InvalidInput, NOT_PARSEVAL),
        (BinMatrix(3, [5, 6]), InvalidInput, NOT_PARSEVAL),
        (BinMatrix.identity(3), InvalidInput, "a (3,3)-frame leaves no room for a complement"),
        (BinMatrix.all_ones(3, 1), ExtensionObstruction, "every frame vector is odd; no complement exists"),
    ],
    ids=["not-parseval", "wide", "square", "all-odd"],
)
@pytest.mark.parametrize("fn", [has_naimark_complement, naimark_complement], ids=["has", "complement"])
def test_has_complement_validates_input(fn, theta, error, message):
    """The Parseval check comes before the room check, so a k x n theta
    with n > k is refused as not Parseval; an all-odd theta has no
    complement, which the predicate answers and the construction raises
    with the all-ones witness."""
    if fn is has_naimark_complement and error is ExtensionObstruction:
        assert has_naimark_complement(theta) is False
        return
    with pytest.raises(error) as err:
        fn(theta)
    assert str(err.value) == message
    if error is ExtensionObstruction:
        assert err.value.witness == BinVector.ones(3)


def test_complement_of_identity_columns():
    theta = BinMatrix.from_rows([BinVector(3, 1)]).transpose()
    psi = naimark_complement(theta)
    assert psi == BinMatrix.from_rows([BinVector(3, 2), BinVector(3, 4)]).transpose()
    wide = BinMatrix.from_rows([BinVector(5, 1), BinVector(5, 2)]).transpose()
    rest = naimark_complement(wide)
    assert rest == BinMatrix.from_rows([BinVector(5, 4), BinVector(5, 8), BinVector(5, 16)]).transpose()


def test_complement_of_single_projection():
    theta = BinMatrix.from_rows([BinVector(2, 1)]).transpose()
    psi = naimark_complement(theta)
    assert psi == BinMatrix.from_rows([BinVector(2, 2)]).transpose()
    assert gram(theta) + gram(psi) == BinMatrix.identity(2)


def test_complement_postconditions():
    theta = cols_matrix(4, [7, 11])
    psi = naimark_complement(theta)
    assert psi.shape == (4, 2)
    assert is_parseval(psi)
    assert gram(theta) + gram(psi) == BinMatrix.identity(4)
    block = BinMatrix.from_rows(theta.transpose().row_vectors() + psi.transpose().row_vectors()).transpose()
    assert is_orthogonal(block)


def test_complement_is_symmetric_relation():
    theta = cols_matrix(4, [7, 11, 13])
    psi = naimark_complement(theta)
    assert has_naimark_complement(psi)
    assert gram(psi) + gram(theta) == BinMatrix.identity(4)


def test_complement_obstruction():
    with pytest.raises(ExtensionObstruction) as err:
        naimark_complement(BinMatrix.all_ones(3, 1))
    assert err.value.witness == BinVector.ones(3)


def test_complement_matches_per_step_reference_on_random_frames():
    """The complement's columns are exactly the vectors that the per-step
    construction appends to theta's columns."""
    rng = random.Random(59)
    checked = 0
    for _ in range(120):
        k = rng.randint(2, 24)
        n = rng.randint(1, k - 1)
        cols = random_orthonormal_sequence(rng, k, n)
        theta = cols_matrix(k, cols)
        if not has_naimark_complement(theta):
            with pytest.raises(ExtensionObstruction):
                naimark_complement(theta)
            continue
        psi = naimark_complement(theta)
        assert psi.shape == (k, k - n)
        assert list(psi.transpose().data) == reference_extend_to_basis(cols, k)[n:]
        checked += 1
    assert checked >= 80


def test_has_complement_against_brute_force_small():
    for k in (2, 3):
        for n in range(1, k):
            for cols in all_orthonormal_sets(k, n):
                theta = cols_matrix(k, list(cols))
                assert has_naimark_complement(theta) == complement_exists_brute(cols, k)


# -- large k ----------------------------------------------------------------


def test_orthonormality_messages_at_large_k():
    """The one-product check reports the first defect of the pairwise
    loop, with the same message, at k >= 64."""
    rng = random.Random(211)
    for k in (64, 97, 128):
        basis = random_orthogonal_rows(rng, k)
        cases = []
        for _ in range(12):
            vecs = list(basis[: rng.randint(4, k)])
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(vecs))
                a, b, c = rng.sample(vecs, 3)
                # even: a sum of two basis vectors; odd but not orthogonal: of three
                vecs[i] = a ^ b if rng.getrandbits(1) else a ^ b ^ c
            cases.append(vecs)
        cases.append(list(basis[:10]) + [basis[3] ^ basis[5] ^ basis[7]] + list(basis[20:40]))
        cases.append(list(basis[:50]) + [basis[60] ^ basis[61]] + [basis[0] ^ basis[1] ^ basis[2]])
        for vecs in cases:
            expected = orthonormal_defect(vecs)
            assert expected is not None
            with pytest.raises(InvalidInput) as err:
                OrthonormalSequence(k, tuple(BinVector(k, v) for v in vecs))
            assert str(err.value) == expected


def test_complement_and_extend_at_k512_meet_definitions():
    """At k = 512, checked with int-only code: (theta | psi) has
    orthonormal columns, and extend keeps the given rows and returns an
    orthonormal basis."""
    rng = random.Random(223)
    k, n = 512, 256
    while True:
        basis = random_orthogonal_rows(rng, k)
        theta = [r & ((1 << n) - 1) for r in basis]
        if any(not r.bit_count() & 1 for r in theta):  # an even row: a complement exists
            break
    psi = naimark_complement(BinMatrix(n, tuple(theta)))
    assert psi.shape == (k, k - n)
    block = matrix_rows_of_columns(tuple(t | (p << n) for t, p in zip(theta, psi.data)), k)
    assert all(int_dot(block[a], block[b]) == (a == b) for a in range(k) for b in range(k))

    prefix = random_orthogonal_rows(rng, k)[:300]
    total = 0
    for v in prefix:
        total ^= v
    assert total != (1 << k) - 1
    ext = [v.bits for v in extend_to_basis(OrthonormalSequence(k, tuple(BinVector(k, v) for v in prefix))).vecs]
    assert ext[:300] == prefix and len(ext) == k
    assert all(int_dot(ext[a], ext[b]) == (a == b) for a in range(k) for b in range(k))


# -- the fill against the incremental echelon it replaced --------------------


@given(st.integers(1, 64), st.randoms(use_true_random=False), st.data())
@settings(max_examples=200, deadline=None)
def test_fill_matches_incremental_reference(k, rng, data):
    """Orthonormal columns of a random orthogonal matrix split into
    constraints, start vectors and the rest; the fill with a drawn target
    picks the same vectors as the incremental echelon run to the k - c
    vectors that fit beside c constraints, or both find no admissible
    vector."""
    cols = matrix_rows_of_columns(tuple(random_orthogonal_rows(rng, k)), k)
    c = data.draw(st.integers(0, k - 1))
    s = data.draw(st.integers(0, k - c))
    constraints, start = list(cols[:c]), list(cols[c : c + s])
    total = 0
    for v in start:
        total ^= v
    target = data.draw(st.sampled_from([(1 << k) - 1, total, rng.getrandbits(k)]))
    try:
        expected = reference_incremental_fill(k, constraints, start, k - c, target)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _orthonormal_fill(k, constraints, start, target)
        return
    assert _orthonormal_fill(k, constraints, start, target) == expected


def _fill_or_refusal(fill, *args):
    try:
        return fill(*args)
    except RuntimeError as e:
        return str(e)


def test_fill_matches_incremental_reference_exhaustively_at_small_k():
    """Every k <= 5, every target and every start of at most two
    orthonormal vectors that is a basis or sums to other than all-ones:
    the fill picks the vectors of the incremental echelon, or both refuse
    with the same message."""
    cases = refusals = 0
    for k in range(1, 6):
        ones = (1 << k) - 1
        for n in range(3):
            for start in all_orthonormal_sets(k, n):
                total = 0
                for v in start:
                    total ^= v
                if total == ones and n < k:
                    continue
                for target in range(1 << k):
                    got = _fill_or_refusal(_orthonormal_fill, k, [], list(start), target)
                    expected = _fill_or_refusal(reference_incremental_fill, k, [], list(start), k, target)
                    assert got == expected, (k, start, target)
                    cases += 1
                    refusals += isinstance(got, str)
    assert (cases, refusals) == (2844, 995)
    assert _fill_or_refusal(_orthonormal_fill, 4, [], [7], 0) == "no admissible vector 3 of 4 in GF(2)^4"


def test_complement_and_extension_match_incremental_reference_at_k1024():
    """At k = 1024 the complement of a random Parseval frame and the
    extension of its columns' prefix are the vectors of the incremental
    echelon."""
    rng = random.Random(1024)
    k, n = 1024, 512
    ones = (1 << k) - 1
    while True:
        theta_rows = [r & ((1 << n) - 1) for r in random_orthogonal_rows(rng, k)]
        if any(not r.bit_count() & 1 for r in theta_rows):
            break
    cols = list(matrix_rows_of_columns(tuple(theta_rows), n))
    psi = naimark_complement(BinMatrix(n, tuple(theta_rows)))
    assert list(psi.transpose().data) == reference_incremental_fill(k, [], cols, k, ones)[n:]
    prefix = cols[: n // 2]
    seq = OrthonormalSequence(k, tuple(BinVector(k, v) for v in prefix))
    ext = extend_to_basis(seq)
    assert [v.bits for v in ext.vecs] == reference_incremental_fill(k, [], prefix, k, ones)
