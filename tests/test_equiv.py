"""Canonical forms and the two equivalence relations."""

import itertools
import random

import pytest

from binframe import (
    MODE_CONJUGATION,
    MODE_INDEPENDENT,
    BinMatrix,
    BinVector,
    DimensionError,
    Frame,
    ShapeError,
    canonical_form,
    gram,
    permutation_equivalent,
    switching_equivalent,
)
from oracles import conjugation_equivalent_brute, perm_equivalent_brute


def vec(*bits):
    return BinVector.from_bits(bits)


def cols_matrix(k, ints):
    return BinMatrix.from_cols([BinVector(k, c) for c in ints])


def permute(m, row_perm, col_perm):
    rows = []
    for i in row_perm:
        bits = 0
        for j, cj in enumerate(col_perm):
            bits |= ((m.data[i] >> cj) & 1) << j
        rows.append(bits)
    return BinMatrix(m.cols, tuple(rows))


def brute_min_independent(m):
    """Reference minimum over the full orbit, row-major big-endian order."""
    best = None
    for rp in itertools.permutations(range(m.rows)):
        for cp in itertools.permutations(range(m.cols)):
            cand = permute(m, rp, cp)
            key = tuple(
                tuple(cand.entry(i, j) for j in range(cand.cols)) for i in range(cand.rows)
            )
            if best is None or key < best[0]:
                best = (key, cand)
    return best[1]


def test_certificate_reproduces_canonical_matrix():
    rng = random.Random(19)
    for mode in (MODE_INDEPENDENT, MODE_CONJUGATION):
        for _ in range(10):
            k = rng.randint(1, 5)
            m = BinMatrix(k, tuple(rng.getrandbits(k) for _ in range(k)))
            res = canonical_form(m, mode)
            for i in range(k):
                for j in range(k):
                    assert res.matrix.entry(i, j) == m.entry(res.row_perm[i], res.col_perm[j])


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
        assert canonical_form(m, MODE_INDEPENDENT).matrix == brute_min_independent(m)


def test_identity_canonicalizes_to_antidiagonal():
    # the minimal permutation matrix puts its ones bottom-left to top-right
    expected = brute_min_independent(BinMatrix.identity(4))
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
        s = BinMatrix.shift(k)
        rng = random.Random(k)
        perm = list(range(k))
        rng.shuffle(perm)
        conjugated = permute(s, perm, perm)
        assert canonical_form(conjugated, MODE_CONJUGATION).matrix == canonical_form(s, MODE_CONJUGATION).matrix
        assert canonical_form(conjugated, MODE_CONJUGATION).matrix != BinMatrix.identity(k)


def test_conjugation_mode_needs_square():
    with pytest.raises(ShapeError):
        canonical_form(BinMatrix.zeros(2, 3), MODE_CONJUGATION)


def test_permutation_equivalent_examples():
    m = cols_matrix(4, [7, 11, 13, 14])
    shuffled = permute(m, (2, 0, 3, 1), (0, 1, 2, 3))
    assert permutation_equivalent(m, shuffled)
    assert not permutation_equivalent(BinMatrix.identity(4), m)
    rearranged = permute(cols_matrix(4, [11, 7, 14, 13]), (1, 0, 2, 3), (0, 1, 2, 3))
    assert permutation_equivalent(m, rearranged)


def test_permutation_equivalent_shape_mismatch():
    with pytest.raises(DimensionError):
        permutation_equivalent(BinMatrix.identity(3), BinMatrix.identity(4))


def test_permutation_equivalent_agrees_with_brute_force():
    rng = random.Random(53)
    for _ in range(12):
        rows, cols = rng.randint(2, 4), rng.randint(2, 4)
        a = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        b = BinMatrix(cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        assert permutation_equivalent(a, b) == perm_equivalent_brute(a.data, b.data, cols)
        shuffled = permute(
            a,
            tuple(rng.sample(range(rows), rows)),
            tuple(rng.sample(range(cols), cols)),
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
    with pytest.raises(DimensionError):
        switching_equivalent(f, g)


def test_full_width_orthogonal_frames_share_identity_gram():
    """Both full orthogonal matrices have Gram I, hence one switching class."""
    f = Frame.from_analysis(BinMatrix.identity(4))
    g = Frame.from_analysis(cols_matrix(4, [7, 11, 13, 14]))
    assert gram(f.analysis) == BinMatrix.identity(4) == gram(g.analysis)
    assert switching_equivalent(f, g)
    assert conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)


def test_single_column_selections_can_differ():
    # one column from each k=4 catalog class: distinct Gram conjugation orbits
    f = Frame.from_analysis(BinMatrix.from_cols([BinVector(4, 1)]))
    g = Frame.from_analysis(BinMatrix.from_cols([BinVector(4, 7)]))
    assert not switching_equivalent(f, g)
    assert not conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)


def test_switching_equivalent_agrees_with_brute_force():
    rng = random.Random(59)
    frames = []
    for ints in ([1, 2, 4], [7, 11, 13], [1, 6], [7, 11], [3, 5, 6]):
        k = max(v.bit_length() for v in ints)
        m = BinMatrix.from_cols([BinVector(k, v) for v in ints])
        if m.rank() == m.cols:
            frames.append(Frame.from_analysis(m))
    for f in frames:
        for g in frames:
            if (f.k, f.n) != (g.k, g.n):
                continue
            expected = conjugation_equivalent_brute(gram(f.analysis).data, gram(g.analysis).data)
            assert switching_equivalent(f, g) == expected
    shuffled = Frame.from_vectors([frames[0].vectors[i] for i in rng.sample(range(3), 3)])
    assert switching_equivalent(frames[0], shuffled)


def test_switching_oracle_agreement_at_k6():
    from binframe import enum_orthogonal

    classes = enum_orthogonal(6).classes
    picks = [
        Frame.from_analysis(BinMatrix.from_cols(classes[1].col_vectors()[:3])),
        Frame.from_analysis(BinMatrix.from_cols(classes[7].col_vectors()[:3])),
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
