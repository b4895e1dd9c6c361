"""Acceptance suite.

One test per criterion; each prints a single pass/fail line so the run
doubles as a report (use ``pytest tests/test_acceptance.py -v -s``).
All comparisons are exact; the only tolerances are the stated wall-clock
budgets, asserted where the criterion names one.
"""

import contextlib
import random
import time
from pathlib import Path

import pytest

from binframe import (
    BinMatrix,
    BinVector,
    Frame,
    GramCandidate,
    InvalidInput,
    NotGramMatrix,
    OrthonormalSequence,
    canonical_form,
    enum_cyclic_gram,
    enum_nonrepeating,
    enum_orthogonal,
    extend_to_basis,
    factor_gram,
    gram,
    has_naimark_complement,
    is_gram_of_parseval,
    is_parseval,
    naimark_complement,
    reconstruct,
)
from binframe.cli import run
from binframe.formats import parse_matrix
from oracles import (
    all_orthonormal_sets,
    all_orthonormal_tuples,
    all_symmetric_idempotent,
    circulant_int_rows,
    complement_exists_brute,
    gram_of_columns,
    matrix_rows_of_columns,
    rank_int_rows,
    repetition_free_cyclic_grams,
    sorted_relabel_orbit,
    symmetric_circulant_first_rows,
)

DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_orthogonal_catalog():
    """Class counts 1/2/4/14 for k=3..6; every reference row matches
    exactly one emitted representative; under 60 s."""
    with criterion(1, "orthogonal matrix catalog"):
        start = time.perf_counter()
        reference = {}
        for line in (DATA / "orthogonal_classes.txt").read_text().splitlines():
            parts = [int(x) for x in line.split()]
            reference.setdefault(parts[0], []).append(tuple(parts[1:]))

        assert {k: len(v) for k, v in reference.items()} == {3: 1, 4: 2, 5: 4, 6: 14}
        for k, rows in reference.items():
            catalog = enum_orthogonal(k)
            assert len(catalog.classes) == len(rows)
            emitted = [m.transpose().data for m in catalog.classes]
            assert emitted == rows
            for ref_cols in rows:
                orbit_hits = [
                    rep for rep in emitted if ref_cols in sorted_relabel_orbit(rep, k)
                ]
                assert len(orbit_hits) == 1
                ref_matrix = BinMatrix.from_rows([BinVector(k, c) for c in ref_cols]).transpose()
                rep_matrix = BinMatrix.from_rows([BinVector(k, c) for c in orbit_hits[0]]).transpose()
                assert (
                    canonical_form(ref_matrix).matrix == canonical_form(rep_matrix).matrix
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_cyclic_catalog_bytes(tmp_path):
    """CLI output for k=3..20 is byte-identical to the transcription;
    counts per k match; under 5 s total."""
    with criterion(2, "circulant Gram catalog, byte-exact"):
        expected_counts = [2, 1, 2, 2, 2, 1, 4, 2, 2, 2, 2, 2, 8, 1, 4, 4, 2, 2]
        start = time.perf_counter()
        for k, count in zip(range(3, 21), expected_counts):
            out = tmp_path / f"k{k:02d}.txt"
            code = run(["enum", "cyclic", "--k", str(k), "--output", str(out)])
            assert code == 0
            golden = (DATA / "cyclic_grams" / f"k{k:02d}.txt").read_bytes()
            got = out.read_bytes()
            assert got == golden, f"k={k} output differs from transcription"
            assert got.count(b"\n") == count
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


REFERENCE_PAIRS = {
    (9, 7): "111011011",
    (15, 7): "111010011001011",
    (15, 9): "100101100110100",
    (15, 11): "111110111101111",
    (15, 13): "111011011011011",
}

# Repetition-free entries for k <= 20 without a transcribed factorization.
# At k=17 each first row is 1 plus one of the two 2-cyclotomic cosets mod
# 17; each coset is closed under negation since -1 = 2^4 (mod 17), so the
# circulant is symmetric and idempotent, and at prime k a non-constant row
# is aperiodic, so all 17 rows differ.  The k=18 row is the (9,7) reference
# row 111011011 with x replaced by x^2: c(x)^2 = c(x) mod x^9 - 1 gives
# c(x^4) = c(x^2) mod x^18 - 1, its 18 rotations differ, and its Gram is a
# permuted direct sum of two (9,7) Grams.
BEYOND_REFERENCE_PAIRS = [
    (17, 9, "10010111001110100"),
    (17, 9, "11101000110001011"),
    (18, 14, "101010001010001010"),
]


def test_criterion_3_nonrepeating_catalog():
    """Every reference repetition-free pair is emitted with the reference
    Gram first row, and every theta (computed and printed alike) satisfies
    the factorization invariants."""
    with criterion(3, "repetition-free cyclic factorizations"):
        emitted = [
            pair for k in range(3, 21) for pair in enum_nonrepeating(k)
        ]
        for pair in emitted:
            k, n = pair.gram.k, pair.gram.rank
            c = BinMatrix.circulant(pair.gram.first_row)
            theta = pair.theta
            assert theta.transpose() @ theta == BinMatrix.identity(n)
            assert theta @ theta.transpose() == c
            assert len(set(theta.data)) == k

        by_shape = {}
        for pair in emitted:
            by_shape.setdefault((pair.gram.k, pair.gram.rank), []).append(pair)
        for (k, n), row in REFERENCE_PAIRS.items():
            matches = [
                p for p in by_shape.get((k, n), ())
                if p.gram.first_row.to_bitstring() == row
            ]
            assert len(matches) == 1, f"reference pair ({k},{n}) missing"
            ref_lines = (DATA / "nonrepeating" / f"k{k:02d}_n{n}.txt").read_text().splitlines()
            assert ref_lines[0] == row
            printed = parse_matrix("\n".join(ref_lines[1:]), "dense")
            c = BinMatrix.circulant(matches[0].gram.first_row)
            assert printed.shape == (k, n)
            assert printed.transpose() @ printed == BinMatrix.identity(n)
            assert printed @ printed.transpose() == c
            assert len(set(printed.data)) == k


def test_criterion_3_exact_pair_set():
    """The criterion's exactness clause: for 3 <= k <= 20 the emitted
    repetition-free catalog is exactly the eight entries that the
    definition-level oracle finds, in order and without duplicates.

    Five of the eight are the REFERENCE_PAIRS shapes, whose factorizations
    are transcribed in tests/data/nonrepeating/.  The other three are
    BEYOND_REFERENCE_PAIRS: two aperiodic rank-9 circulants at k=17 and one
    aperiodic rank-14 circulant at k=18 (derivations beside the constant).
    All three first rows are lines of the golden cyclic_grams catalog.
    """
    with criterion(3, "exact repetition-free catalog, k <= 20"):
        # the oracle builds only symmetric first rows from their free bits;
        # where 2^k is small, a scan of every row backs that shortcut
        for k in range(3, 13):
            full_scan = [
                c for c in range(1 << k)
                if (rows := circulant_int_rows(c, k)) == matrix_rows_of_columns(rows, k)
            ]
            assert symmetric_circulant_first_rows(k) == full_scan, k

        expected = [e for k in range(3, 21) for e in repetition_free_cyclic_grams(k)]
        pinned = [(k, n, row) for (k, n), row in REFERENCE_PAIRS.items()]
        pinned += BEYOND_REFERENCE_PAIRS
        # ordered as enum_cyclic_gram lists: by k, then first row as an integer
        assert expected == sorted(pinned, key=lambda e: (e[0], int(e[2][::-1], 2)))

        for k, _, row in BEYOND_REFERENCE_PAIRS:
            golden = (DATA / "cyclic_grams" / f"k{k:02d}.txt").read_text()
            assert row in golden.splitlines()

        emitted = [
            (pair.gram.k, pair.gram.rank, pair.gram.first_row.to_bitstring())
            for k in range(3, 21)
            for pair in enum_nonrepeating(k)
        ]
        assert emitted == expected


def test_criterion_4_complement_oracle_equivalence():
    """has_naimark_complement agrees with brute-force complement existence
    on every Parseval analysis matrix with k <= 4, n < k."""
    with criterion(4, "even-vector criterion vs brute force"):
        disagreements = 0
        for k in (2, 3, 4):
            for n in range(1, k):
                for cols in all_orthonormal_tuples(k, n):
                    theta = BinMatrix.from_rows([BinVector(k, c) for c in cols]).transpose()
                    assert is_parseval(theta)
                    if has_naimark_complement(theta) != complement_exists_brute(cols, k):
                        disagreements += 1
        assert disagreements == 0


def test_criterion_5_gram_oracle_equivalence():
    """is_gram_of_parseval agrees with brute-force factorization existence
    on every symmetric idempotent with k <= 5; factor_gram output passes
    both invariants whenever a factorization exists; under 120 s."""
    with criterion(5, "odd-column criterion vs brute force"):
        start = time.perf_counter()
        disagreements = 0
        for k in (1, 2, 3, 4, 5):
            sets_by_size = {n: all_orthonormal_sets(k, n) for n in range(1, k + 1)}
            for rows in all_symmetric_idempotent(k):
                if not any(rows):
                    continue  # the zero matrix is not a Gram candidate of interest
                m = BinMatrix(k, rows)
                cand = GramCandidate(m)
                n = rank_int_rows(rows)
                exists = any(
                    gram_of_columns(cols, k) == rows for cols in sets_by_size[n]
                )
                if is_gram_of_parseval(cand) != exists:
                    disagreements += 1
                    continue
                if exists:
                    theta = factor_gram(cand).theta
                    assert theta.cols == n
                    assert theta.transpose() @ theta == BinMatrix.identity(n)
                    assert theta @ theta.transpose() == m
                else:
                    with pytest.raises(NotGramMatrix):
                        factor_gram(cand)
        assert disagreements == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _random_parseval(rng):
    n = rng.randint(1, 12)
    k = n + rng.randint(1, 3)
    while True:
        bits = rng.getrandbits(k)
        if bits.bit_count() % 2 == 0:
            bits ^= 1 << rng.randrange(k)
        if bits != (1 << k) - 1:
            break
    basis = extend_to_basis(OrthonormalSequence(k, (BinVector(k, bits),))).vecs
    picked = rng.sample(range(k), n)
    theta = BinMatrix.from_rows([basis[i] for i in picked]).transpose()
    if rng.random() < 0.5:
        rest = [basis[i] for i in range(k) if i not in set(picked)]
        other = BinMatrix.from_rows(rest).transpose()
        if has_naimark_complement(other):
            theta = naimark_complement(other)
    return theta


def test_criterion_6_reconstruction_identity():
    """1000 random Parseval frames built by extension/complementation;
    the expansion reproduces every vector of the space, exhaustively."""
    with criterion(6, "reconstruction identity, randomized frames"):
        rng = random.Random(0x5EED)
        failures = 0
        for _ in range(1000):
            theta = _random_parseval(rng)
            assert is_parseval(theta)
            frame = Frame(theta)
            n = theta.cols
            for x in range(1 << n):
                v = BinVector(n, x)
                if reconstruct(v, frame) != v:
                    failures += 1
        assert failures == 0


def test_criterion_7_negative_examples():
    """Hollow all-ones matrices (k=3,5,7) are symmetric idempotent yet
    rejected with the all-even witness; the odd all-ones frames have no
    complement; I+G reproduces exactly those matrices."""
    with criterion(7, "odd-dimension negative examples"):
        for k in (3, 5, 7):
            hollow = BinMatrix.all_ones(k, k) + BinMatrix.identity(k)
            cand = GramCandidate(hollow)  # construction proves symmetric idempotent
            assert not is_gram_of_parseval(cand)
            with pytest.raises(NotGramMatrix) as err:
                factor_gram(cand)
            assert err.value.witness == (0,) * k

            ones_frame = BinMatrix.all_ones(k, 1)
            assert is_parseval(ones_frame)
            assert not has_naimark_complement(ones_frame)

            assert gram(ones_frame) + BinMatrix.identity(k) == hollow


def test_criterion_8_cyclic_frames_lack_complements():
    """Every frame factored from every cataloged circulant Gram reports no
    complement, for all 18 sizes; full-rank entries leave no room at all."""
    with criterion(8, "no complements for cyclic frames"):
        exceptions = 0
        for k in range(3, 21):
            for cg in enum_cyclic_gram(k):
                theta = factor_gram(GramCandidate(BinMatrix.circulant(cg.first_row))).theta
                if cg.rank < k:
                    if has_naimark_complement(theta):
                        exceptions += 1
                else:
                    with pytest.raises(InvalidInput):
                        has_naimark_complement(theta)
        assert exceptions == 0
