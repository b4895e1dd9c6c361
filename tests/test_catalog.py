"""Catalog enumeration: orthogonal classes, circulant Grams, factored pairs."""

from pathlib import Path

import pytest

from binframe import (
    BinMatrix,
    BinVector,
    InvalidInput,
    UnsupportedSize,
    enum_cyclic_gram,
    enum_nonrepeating,
    enum_orthogonal,
    gram,
    has_naimark_complement,
    is_orthogonal,
    is_parseval,
    odd_columns,
)
from binframe.catalog import _aperiodic
from oracles import (
    all_orthonormal_sets,
    circulant_int_rows,
    int_dot,
    int_product_rows,
    matrix_rows_of_columns,
    popcount_parity,
    rank_int_rows,
    scan_cyclic_grams,
    sorted_relabel_orbit,
)

DATA = Path(__file__).parent / "data"


def read_reference_classes():
    table = {}
    for line in (DATA / "orthogonal_classes.txt").read_text().splitlines():
        parts = [int(x) for x in line.split()]
        table.setdefault(parts[0], []).append(tuple(parts[1:]))
    return table


def read_reference_cyclic(k):
    path = DATA / "cyclic_grams" / f"k{k:02d}.txt"
    return path.read_text().splitlines()


# -- orthogonal catalog -------------------------------------------------------


def test_orthogonal_counts():
    assert [len(enum_orthogonal(k).classes) for k in range(1, 7)] == [1, 1, 1, 2, 4, 14]


def test_orthogonal_matches_reference_table():
    reference = read_reference_classes()
    for k, rows in reference.items():
        assert enum_orthogonal(k).column_sets() == rows


def test_orthogonal_entries_are_orthogonal_with_ascending_columns():
    for k in range(1, 7):
        for m in enum_orthogonal(k).classes:
            assert is_orthogonal(m)
            ints = [c.bits for c in m.col_vectors()]
            assert ints == sorted(ints)


def test_orthogonal_size_cap():
    with pytest.raises(UnsupportedSize):
        enum_orthogonal(7)
    with pytest.raises(UnsupportedSize):
        enum_orthogonal(0)


def test_orthogonal_catalog_covers_everything_small():
    """Scan all 2^(k*k) matrices: every orthogonal one must be a
    row/column permutation of some catalog entry."""
    for k in (2, 3, 4):
        catalog_orbits = []
        for m in enum_orthogonal(k).classes:
            cols = tuple(c.bits for c in m.col_vectors())
            catalog_orbits.append(sorted_relabel_orbit(cols, k))
        hits = 0
        for assignment in range(1 << (k * k)):
            rows = tuple((assignment >> (k * i)) & ((1 << k) - 1) for i in range(k))
            ok = True
            for i in range(k):
                for j in range(i, k):
                    if int_dot(rows[i], rows[j]) != (1 if i == j else 0):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            hits += 1
            cols = tuple(sorted(
                sum(((rows[i] >> j) & 1) << i for i in range(k)) for j in range(k)
            ))
            assert any(cols in orbit for orbit in catalog_orbits)
        assert hits >= 1


def test_orthogonal_classes_have_disjoint_orbits():
    for k in range(2, 7):
        orbits = []
        for m in enum_orthogonal(k).classes:
            cols = tuple(c.bits for c in m.col_vectors())
            orbits.append(sorted_relabel_orbit(cols, k))
        for i, a in enumerate(orbits):
            for b in orbits[i + 1 :]:
                assert not (a & b)


def test_orthogonal_classes_match_brute_force_orbits():
    """Grouping every ascending orthonormal basis by its relabeling orbit,
    each class represented by its largest tuple, gives the catalog."""
    for k in range(1, 7):
        seen, reps = set(), []
        for cols in all_orthonormal_sets(k, k):
            if cols not in seen:
                orbit = sorted_relabel_orbit(cols, k)
                seen |= orbit
                reps.append(max(orbit))
        assert enum_orthogonal(k).column_sets() == sorted(reps)


# -- circulant Gram catalog ---------------------------------------------------


def test_cyclic_examples():
    assert [g.first_row.to_bitstring() for g in enum_cyclic_gram(4)] == ["1000"]
    assert [g.first_row.to_bitstring() for g in enum_cyclic_gram(6)] == ["100000", "101010"]
    k15 = [g.first_row.to_bitstring() for g in enum_cyclic_gram(15)]
    assert len(k15) == 8
    assert "100101100110100" in k15


def test_cyclic_matches_reference_table():
    for k in range(3, 21):
        got = [g.first_row.to_bitstring() for g in enum_cyclic_gram(k)]
        assert got == read_reference_cyclic(k)


def test_cyclic_entry_invariants():
    for k in range(3, 21):
        s = BinMatrix.shift(k)
        for cg in enum_cyclic_gram(k):
            c = cg.matrix()
            assert c.is_symmetric()
            assert c @ c == c
            assert s @ c @ s.transpose() == c
            assert odd_columns(c) == list(range(k))
            assert cg.rank == c.rank()


def test_cyclic_completeness_brute_force():
    """Definition-level scan over all 2^k first rows for k <= 12."""
    for k in range(3, 13):
        brute = []
        for bits in range(1 << k):
            c = [(bits >> i) & 1 for i in range(k)]
            if any(c[i] != c[(k - i) % k] for i in range(k)):
                continue
            if sum(c) % 2 == 0:
                continue
            conv = [
                sum(c[m] * c[(j - m) % k] for m in range(k)) % 2 for j in range(k)
            ]
            if conv == c:
                brute.append(bits)
        assert [g.first_row.bits for g in enum_cyclic_gram(k)] == sorted(brute)


def test_cyclic_catalog_matches_scan():
    """The coset construction against the old ~2^(k/2) scan: same first
    rows in the same order, same ranks; the gcd rank against the matrix
    rank and the aperiodicity test against distinct matrix rows."""
    for k in range(1, 37):
        catalog = enum_cyclic_gram(k)
        assert [(cg.first_row.bits, cg.rank) for cg in catalog] == scan_cyclic_grams(k)
        for cg in catalog:
            matrix = cg.matrix()
            assert cg.rank == matrix.rank()
            assert _aperiodic(cg.first_row.bits, k) == (len(set(matrix.data)) == k)


def _assert_cyclic_gram_by_definition(cg):
    rows = circulant_int_rows(cg.first_row.bits, cg.k)
    cols = matrix_rows_of_columns(rows, cg.k)
    assert cols == rows
    assert all(popcount_parity(col) for col in cols)
    assert int_product_rows(rows, rows) == rows
    assert rank_int_rows(rows) == cg.rank


def test_cyclic_entries_meet_definitions_beyond_scan_range():
    """Every entry up to k = 36, and at k = 63 and 127 where the scan
    cannot run, is checked on its k x k circulant with int-only code."""
    counts = {}
    for k in [*range(1, 37), 63, 127]:
        catalog = enum_cyclic_gram(k)
        counts[k] = len(catalog)
        rows = [cg.first_row.bits for cg in catalog]
        assert rows == sorted(set(rows))
        for cg in catalog:
            _assert_cyclic_gram_by_definition(cg)
    assert (counts[63], counts[127]) == (128, 512)


def test_cyclic_size_guard():
    # k = 255 has 20 orbits, so 2^19 entries, over the 2^16 limit
    with pytest.raises(UnsupportedSize, match="524288 entries"):
        enum_cyclic_gram(255)
    with pytest.raises(UnsupportedSize):
        enum_nonrepeating(255)


def test_cyclic_rejects_nonpositive_size():
    with pytest.raises(UnsupportedSize):
        enum_cyclic_gram(0)


def test_cyclic_tiny_sizes():
    assert [g.first_row.bits for g in enum_cyclic_gram(1)] == [1]
    two = enum_cyclic_gram(2)
    assert [g.first_row.to_bitstring() for g in two] == ["10"]
    assert two[0].rank == 2


# -- repetition-free pairs ----------------------------------------------------


def test_nonrepeating_examples():
    nine = enum_nonrepeating(9)
    assert len(nine) == 1
    assert nine[0].gram.first_row.to_bitstring() == "111011011"
    assert nine[0].gram.rank == 7
    fifteen = enum_nonrepeating(15)
    assert sorted(p.gram.rank for p in fifteen) == [7, 9, 11, 13]
    assert enum_nonrepeating(4) == []


def test_nonrepeating_prime_and_even_sizes():
    # at prime k every non-constant circulant has distinct rows, so both
    # rank-9 entries at k=17 qualify; k=18 contributes one aperiodic entry
    assert [(p.gram.k, p.gram.rank) for p in enum_nonrepeating(17)] == [(17, 9), (17, 9)]
    assert [(p.gram.k, p.gram.rank) for p in enum_nonrepeating(18)] == [(18, 14)]


def test_nonrepeating_pair_invariants():
    for k in range(3, 21):
        for pair in enum_nonrepeating(k):
            c = pair.gram.matrix()
            theta = pair.theta
            assert theta.shape == (k, pair.gram.rank)
            assert is_parseval(theta)
            assert gram(theta) == c
            assert len(set(theta.data)) == k


def test_nonrepeating_rows_distinct_iff_gram_rows_distinct():
    # the inclusion rule: repeated Gram rows happen exactly at repeated frame vectors
    for k in (9, 12, 15):
        for cg in enum_cyclic_gram(k):
            if cg.rank >= k:
                continue
            from binframe import GramCandidate, factor_gram

            theta = factor_gram(GramCandidate(cg.matrix())).theta
            gram_distinct = len(set(cg.matrix().data)) == k
            frame_distinct = len(set(theta.data)) == k
            assert gram_distinct == frame_distinct


def test_nonrepeating_column_space_is_shift_invariant():
    for k in (9, 15):
        s = BinMatrix.shift(k)
        for pair in enum_nonrepeating(k):
            cols = [c.bits for c in pair.theta.col_vectors()]
            base_rank = rank_int_rows(tuple(cols))
            for c in pair.theta.col_vectors():
                shifted = s.mul_vec(c)
                assert rank_int_rows(tuple(cols + [shifted.bits])) == base_rank


def test_cyclic_frames_have_no_complement():
    for k in range(3, 21):
        for cg in enum_cyclic_gram(k):
            from binframe import GramCandidate, factor_gram

            theta = factor_gram(GramCandidate(cg.matrix())).theta
            if cg.rank == k:
                with pytest.raises(InvalidInput):
                    has_naimark_complement(theta)
            else:
                assert not has_naimark_complement(theta)
            flipped = cg.matrix() + BinMatrix.identity(k)
            assert odd_columns(flipped) == []


# -- shift matrix -------------------------------------------------------------


def test_shift_examples():
    assert BinMatrix.shift(1) == BinMatrix(1, (1,))
    assert BinMatrix.shift(3).mul_vec(BinVector.basis(3, 0)) == BinVector.basis(3, 1)
    p = BinMatrix.identity(5)
    for _ in range(5):
        p = BinMatrix.shift(5) @ p
    assert p == BinMatrix.identity(5)
