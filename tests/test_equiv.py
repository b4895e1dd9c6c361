"""Canonical forms and the two equivalence relations."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binframe import (
    MODE_CONJUGATION,
    MODE_INDEPENDENT,
    BinMatrix,
    BinVector,
    Frame,
    InvalidInput,
    ShapeError,
    canonical_form,
    enum_cyclic_gram,
    gram,
    permutation_equivalent,
    switching_equivalent,
)
from oracles import (
    brute_canonical_form,
    conjugation_equivalent_brute,
    perm_equivalent_brute,
    permute_int_rows,
)


def vec(*bits):
    return BinVector.from_bits(bits)


def cols_matrix(k, ints):
    return BinMatrix.from_cols([BinVector(k, c) for c in ints])


def test_certificate_reproduces_canonical_matrix():
    rng = random.Random(19)
    for mode in (MODE_INDEPENDENT, MODE_CONJUGATION):
        for _ in range(10):
            k = rng.randint(1, 5)
            m = BinMatrix(k, tuple(rng.getrandbits(k) for _ in range(k)))
            res = canonical_form(m, mode)
            for i in range(k):
                for j in range(k):
                    assert res.matrix[i, j] == m[res.row_perm[i], res.col_perm[j]]


def test_canonical_form_is_idempotent():
    rng = random.Random(37)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        once = canonical_form(m, MODE_INDEPENDENT).matrix
        assert canonical_form(once, MODE_INDEPENDENT).matrix == once


def test_canonical_form_matches_full_exhaustion():
    rng = random.Random(43)
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        expected = BinMatrix(cols, brute_canonical_form(m.data, cols, False)[0])
        assert canonical_form(m, MODE_INDEPENDENT).matrix == expected


def _assert_matches_brute_force(rows, cols, conjugation):
    mode = MODE_CONJUGATION if conjugation else MODE_INDEPENDENT
    got = canonical_form(BinMatrix(cols, tuple(rows)), mode)
    assert (got.matrix.data, got.row_perm, got.col_perm) == brute_canonical_form(tuple(rows), cols, conjugation)


def _structured_squares(k):
    """I, J, J - I, every power of the shift and the cyclic Gram circulants."""
    full = (1 << k) - 1
    out = [BinMatrix.identity(k).data, (full,) * k, tuple(full ^ (1 << i) for i in range(k))]
    power = BinMatrix.identity(k)
    for _ in range(1, k):
        power = power @ BinMatrix.circulant(BinVector.basis(k, k - 1))
        out.append(power.data)
    return out + [cg.matrix().data for cg in enum_cyclic_gram(k)]


def test_canonical_form_matches_brute_force():
    """Matrix and both certificate permutations equal the exhaustive
    search's, tie rules included: every matrix up to 3 x 3, then families
    rich in automorphisms, twin rows and twin columns."""
    for r in range(1, 4):
        for c in range(1, 4):
            for rows in itertools.product(range(1 << c), repeat=r):
                _assert_matches_brute_force(rows, c, False)
                if r == c:
                    _assert_matches_brute_force(rows, c, True)
    blocks = []
    for k in range(1, 9):
        squares = _structured_squares(k)
        blocks += [(k, squares[i]) for i in (0, 1, 3)]  # I, J and the shift
        for rows in squares:
            _assert_matches_brute_force(rows, k, True)
            if k <= 7:
                _assert_matches_brute_force(rows, k, False)
    for (ka, a), (kb, b) in itertools.product(blocks, repeat=2):
        if 3 <= ka + kb <= 6:
            rows = tuple(a) + tuple(row << ka for row in b)
            _assert_matches_brute_force(rows, ka + kb, True)
            _assert_matches_brute_force(rows, ka + kb, False)
    rng = random.Random(61)
    for _ in range(40):
        r, c = rng.randint(2, 8), rng.randint(2, 6)
        base = [rng.getrandbits(c) for _ in range(rng.randint(1, 3))]
        rows = [rng.choice(base) for _ in range(r)]
        j, dup = rng.sample(range(c), 2)
        rows = [row & ~(1 << dup) | ((row >> j) & 1) << dup for row in rows]
        _assert_matches_brute_force(rows, c, False)


@st.composite
def _twinned_matrices(draw):
    """(rows, cols, conjugation), rows drawn from a small pool so that
    twins are common; square ones are often made symmetric like Grams."""
    conjugation = draw(st.booleans())
    r = draw(st.integers(1, 7 if conjugation else 8))
    c = r if conjugation else draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(0, (1 << c) - 1), min_size=1, max_size=r))
    rows = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r))
    if conjugation and draw(st.booleans()):
        rows = [sum(((rows[min(i, j)] >> max(i, j)) & 1) << j for j in range(c)) for i in range(c)]
    return rows, c, conjugation


@given(_twinned_matrices())
@settings(max_examples=80, deadline=None)
def test_canonical_form_matches_brute_force_on_random_matrices(case):
    _assert_matches_brute_force(*case)


def test_identity_canonicalizes_to_antidiagonal():
    # the minimal permutation matrix puts its ones bottom-left to top-right
    expected = BinMatrix(4, brute_canonical_form(BinMatrix.identity(4).data, 4, False)[0])
    got = canonical_form(BinMatrix.identity(4), MODE_INDEPENDENT).matrix
    assert got == expected
    assert got == BinMatrix.from_rows([vec(0, 0, 0, 1), vec(0, 0, 1, 0), vec(0, 1, 0, 0), vec(1, 0, 0, 0)])


def test_all_ones_is_its_own_orbit():
    j = BinMatrix.all_ones(3, 3)
    assert canonical_form(j, MODE_INDEPENDENT).matrix == j
    assert canonical_form(j, MODE_CONJUGATION).matrix == j


def test_conjugation_preserves_cycle_type():
    """A full cycle canonicalizes to the plain shift, never to identity."""
    for k in (3, 4):
        s = BinMatrix.circulant(BinVector.basis(k, k - 1))
        rng = random.Random(k)
        perm = list(range(k))
        rng.shuffle(perm)
        conjugated = BinMatrix(k, permute_int_rows(s.data, perm, perm))
        assert canonical_form(conjugated, MODE_CONJUGATION).matrix == canonical_form(s, MODE_CONJUGATION).matrix
        assert canonical_form(conjugated, MODE_CONJUGATION).matrix != BinMatrix.identity(k)


def test_conjugation_mode_needs_square():
    with pytest.raises(ShapeError):
        canonical_form(BinMatrix(3, (0,) * 2), MODE_CONJUGATION)
    with pytest.raises(InvalidInput, match="^unknown canonicalization mode 'bogus'$"):
        canonical_form(BinMatrix.identity(2), "bogus")


def test_permutation_equivalent_examples():
    m = cols_matrix(4, [7, 11, 13, 14])
    shuffled = BinMatrix(4, permute_int_rows(m.data, (2, 0, 3, 1), (0, 1, 2, 3)))
    assert permutation_equivalent(m, shuffled)
    assert not permutation_equivalent(BinMatrix.identity(4), m)
    rearranged = BinMatrix(4, permute_int_rows(cols_matrix(4, [11, 7, 14, 13]).data, (1, 0, 2, 3), (0, 1, 2, 3)))
    assert permutation_equivalent(m, rearranged)


def test_permutation_equivalent_shape_mismatch():
    """Matrices of different shapes are not equivalent: a "no", not an error."""
    assert not permutation_equivalent(BinMatrix.identity(3), BinMatrix.identity(4))
    assert not permutation_equivalent(BinMatrix(3, (0,) * 2), BinMatrix(2, (0,) * 3))


def test_permutation_equivalent_agrees_with_brute_force():
    rng = random.Random(53)
    for _ in range(12):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        a = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        b = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        assert permutation_equivalent(a, b) == perm_equivalent_brute(a.data, b.data, cols)
        shuffled = BinMatrix(
            cols,
            permute_int_rows(
                a.data,
                tuple(rng.sample(range(rows), rows)),
                tuple(rng.sample(range(cols), cols)),
            ),
        )
        assert permutation_equivalent(a, shuffled)


def test_inequivalent_by_rank_or_weight():
    a = BinMatrix.identity(4)
    b = BinMatrix.all_ones(4, 4)
    assert not permutation_equivalent(a, b)
    assert canonical_form(a, MODE_INDEPENDENT).matrix != canonical_form(b, MODE_INDEPENDENT).matrix


def test_switching_equivalent_reordered_frames():
    f = Frame.from_vectors([vec(1, 0), vec(1, 1), vec(0, 1)])
    g = Frame.from_vectors([vec(0, 1), vec(1, 0), vec(1, 1)])
    assert switching_equivalent(f, g)
    ones = Frame.from_vectors([vec(1), vec(1), vec(1)])
    assert switching_equivalent(ones, ones)


def test_switching_equivalent_shape_mismatch():
    f = Frame.from_vectors([vec(1, 0), vec(0, 1)])
    g = Frame.from_vectors([vec(1)])
    assert not switching_equivalent(f, g)
    three = Frame.from_vectors([vec(1, 0), vec(0, 1), vec(1, 1)])
    assert not switching_equivalent(f, three)


def test_full_width_orthogonal_frames_share_identity_gram():
    """Both full orthogonal matrices have Gram I, hence one switching class."""
    f = Frame(BinMatrix.identity(4))
    g = Frame(cols_matrix(4, [7, 11, 13, 14]))
    assert gram(f.analysis) == BinMatrix.identity(4) == gram(g.analysis)
    assert switching_equivalent(f, g)
    assert conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)


def test_single_column_selections_can_differ():
    # one column from each k=4 catalog class: distinct Gram conjugation orbits
    f = Frame(BinMatrix.from_cols([BinVector(4, 1)]))
    g = Frame(BinMatrix.from_cols([BinVector(4, 7)]))
    assert not switching_equivalent(f, g)
    assert not conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)


def test_switching_equivalent_agrees_with_brute_force():
    rng = random.Random(59)
    frames = []
    for ints in ([1, 2, 4], [7, 11, 13], [1, 6], [7, 11], [3, 5, 6]):
        k = max(v.bit_length() for v in ints)
        m = BinMatrix.from_cols([BinVector(k, v) for v in ints])
        if m.rank() == m.cols:
            frames.append(Frame(m))
    for f in frames:
        for g in frames:
            if f.analysis.shape != g.analysis.shape:
                continue
            expected = conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)
            assert switching_equivalent(f, g) == expected
    shuffled = Frame.from_vectors([frames[0].analysis.row_vectors()[i] for i in rng.sample(range(3), 3)])
    assert switching_equivalent(frames[0], shuffled)


def test_switching_equivalent_matches_canonical_forms_and_brute_force():
    """Least keys against the canonical Gram matrices they replaced and
    against exhaustive conjugation, on every pair of random spanning
    frames of one shape with k <= 6.  Each frame comes with a copy whose
    vectors are reordered, so both answers occur often, and Grams with
    equal row weights that are not conjugate occur too."""
    rng = random.Random(18)
    answers = set()
    for k in range(2, 7):
        for n in range(1, k + 1):
            pool = []
            while len(pool) < 32:
                m = BinMatrix(n, tuple(rng.getrandbits(n) for _ in range(k)))
                if m.rank() == n:
                    pool += [m, BinMatrix(n, tuple(rng.sample(m.data, k)))]
            frames = [Frame(m) for m in pool]
            grams = [gram(m) for m in pool]
            weights = [sorted(r.bit_count() for r in g.data) for g in grams]
            canon = [canonical_form(g, MODE_CONJUGATION).matrix for g in grams]
            for i, f in enumerate(frames):
                for j, g in enumerate(frames):
                    answer = switching_equivalent(f, g)
                    assert answer == (canon[i] == canon[j]), (k, n, i, j)
                    brute = weights[i] == weights[j] and conjugation_equivalent_brute(grams[i].data, grams[j].data)
                    assert answer == brute, (k, n, i, j)
                    answers.add((answer, weights[i] == weights[j]))
    assert answers == {(False, False), (False, True), (True, True)}


def test_switching_oracle_agreement_at_k6():
    from binframe import enum_orthogonal

    classes = enum_orthogonal(6).classes
    picks = [
        Frame(BinMatrix.from_cols(classes[1].col_vectors()[:3])),
        Frame(BinMatrix.from_cols(classes[7].col_vectors()[:3])),
    ]
    for f in picks:
        for g in picks:
            expected = conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)
            assert switching_equivalent(f, g) == expected


def test_switching_classes_agree_on_complement_existence():
    """Exhaustive over Parseval analysis matrices with k <= 4, n < k:
    frames in one switching class answer the complement question alike."""
    from binframe import has_naimark_complement
    from oracles import all_orthonormal_sets

    for k in (2, 3, 4):
        for n in range(1, k):
            by_class = {}
            for cols in all_orthonormal_sets(k, n):
                theta = BinMatrix.from_cols([BinVector(k, c) for c in cols])
                key = canonical_form(gram(theta), MODE_CONJUGATION).matrix.data
                by_class.setdefault(key, set()).add(has_naimark_complement(theta))
            for answers in by_class.values():
                assert len(answers) == 1
