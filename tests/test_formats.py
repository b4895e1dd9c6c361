"""Wire format round-trips and parse diagnostics."""

import itertools
import json
import random
import re
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binframe import BinMatrix, BinVector, ParseError, UnsupportedSize
from binframe.formats import COLS_INT_MAX_K, parse_matrix, parse_vector, render_matrix

matrices = st.integers(1, 7).flatmap(
    lambda r: st.integers(1, 7).flatmap(
        lambda c: st.lists(st.integers(0, (1 << c) - 1), min_size=r, max_size=r).map(
            lambda rows: BinMatrix(c, tuple(rows))
        )
    )
)


@given(matrices)
def test_dense_round_trip(m):
    assert parse_matrix(render_matrix(m, "dense"), "dense") == m


@given(matrices)
def test_cols_int_round_trip(m):
    assert parse_matrix(render_matrix(m, "cols-int"), "cols-int") == m


@given(matrices)
def test_json_round_trip(m):
    assert parse_matrix(render_matrix(m, "json"), "json") == m


def test_catalog_integer_encoding():
    v = BinVector(4, 13)
    assert tuple(v) == (1, 0, 1, 1)
    assert v.bits == 13
    assert BinVector.from_bits([1, 0, 0, 0]).bits == 1


def test_parse_dense_example():
    m = parse_matrix("101\n011\n110", "dense")
    assert m.to_bitstring_rows() == ["101", "011", "110"]
    spaced = parse_matrix("1 0 1\n0 1 1\n1 1 0\n", "dense")
    assert spaced == m


def test_parse_cols_int_orthogonal_class():
    m = parse_matrix("k=4\n7 11 13 14", "cols-int")
    assert [c.bits for c in m.col_vectors()] == [7, 11, 13, 14]
    assert parse_matrix("k=4\n7 11\n\n  \n13 14\n", "cols-int") == m  # blank lines between columns
    single = parse_matrix("k=4\n13", "cols-int")
    assert single.col_vectors()[0] == BinVector.from_bits([1, 0, 1, 1])


def test_parse_json_document():
    text = json.dumps({"rows": 2, "cols": 3, "data": ["101", "010"]})
    m = parse_matrix(text, "json")
    assert m.shape == (2, 3)
    assert m.to_bitstring_rows() == ["101", "010"]


def test_ragged_dense_rows():
    with pytest.raises(ParseError) as err:
        parse_matrix("101\n01", "dense")
    assert err.value.line == 2


def test_non_binary_character_position():
    with pytest.raises(ParseError) as err:
        parse_matrix("101\n0x1", "dense")
    assert (err.value.line, err.value.column) == (2, 2)


def test_cols_int_value_too_wide():
    with pytest.raises(ParseError) as err:
        parse_matrix("k=3\n8", "cols-int")
    assert err.value.line == 2


def test_cols_int_rejects_non_ascii_digits():
    """Unicode digits pass str.isdigit() but are not column integers."""
    for token in ("\u00b2", "\u0663", "1\u00b2"):
        with pytest.raises(ParseError) as err:
            parse_matrix(f"k=2\n1 {token}\n", "cols-int")
        assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(ParseError) as err:
        parse_matrix("k=\u0663\n1\n", "cols-int")
    assert err.value.line == 1


def test_cols_int_missing_header():
    with pytest.raises(ParseError):
        parse_matrix("7 11", "cols-int")
    with pytest.raises(ParseError, match="^expected header of the form k=K$") as info:
        parse_matrix("\n  \n\t\n", "cols-int")
    assert (info.value.line, info.value.column) == (1, 1)


def test_cols_int_no_values():
    with pytest.raises(ParseError):
        parse_matrix("k=3\n", "cols-int")


def test_empty_dense_document():
    with pytest.raises(ParseError):
        parse_matrix("   \n  ", "dense")


def test_bad_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_matrix("{\n  broken", "json")
    assert err.value.line >= 1


def test_json_field_validation():
    for doc in ("[1, 2]", "3", '"rows"'):
        with pytest.raises(ParseError, match="^expected a JSON object with rows, cols, data$"):
            parse_matrix(doc, "json")
    with pytest.raises(ParseError):
        parse_matrix(json.dumps({"rows": 1, "cols": 2}), "json")
    with pytest.raises(ParseError):
        parse_matrix(json.dumps({"rows": 2, "cols": 2, "data": ["11"]}), "json")
    with pytest.raises(ParseError):
        parse_matrix(json.dumps({"rows": 1, "cols": 2, "data": ["12"]}), "json")
    with pytest.raises(ParseError, match="^row 0 must be a string of 3 0/1 characters$"):  # no whitespace, unlike dense
        parse_matrix(json.dumps({"rows": 1, "cols": 3, "data": ["1 0"]}), "json")
    for rows, cols in ((True, 1), (1, True)):  # bool is an int subclass
        with pytest.raises(ParseError):
            parse_matrix(json.dumps({"rows": rows, "cols": cols, "data": ["1"]}), "json")
    with pytest.raises(ParseError, match="^invalid JSON: "):  # an ignored key past int()'s limit
        parse_matrix('{"rows": 1, "cols": 1, "data": ["1"], "note": ' + "9" * 5000 + "}", "json")
    with pytest.raises(ParseError, match="^invalid JSON: "):  # nested past the recursion limit
        parse_matrix("[" * 100_000, "json")


def test_parse_vector_examples():
    assert parse_vector("1011") == BinVector.from_bits([1, 0, 1, 1])
    assert parse_vector(" 1 0 1 \n") == BinVector.from_bits([1, 0, 1])
    with pytest.raises(ParseError):
        parse_vector("")
    with pytest.raises(ParseError):
        parse_vector("10a")


def test_parse_vector_column_counts_leading_whitespace():
    with pytest.raises(ParseError) as info:
        parse_vector("  1a")
    assert (info.value.line, info.value.column) == (1, 4)
    with pytest.raises(ParseError) as info:
        parse_vector("\t1 0 2")
    assert (info.value.line, info.value.column) == (1, 6)


def test_parse_vector_reports_the_line_of_a_bad_character():
    """A line break starts a new line and the column counts from it."""
    for text, where in (("1\n0a", (2, 2)), ("10\n\n 1\n2", (4, 1)), ("1\r\n0 x", (2, 3))):
        with pytest.raises(ParseError) as info:
            parse_vector(text)
        assert (info.value.line, info.value.column) == where
    assert parse_vector("1\n0\n1") == BinVector.from_bits([1, 0, 1])


# Characters that str.splitlines() breaks a line at and text mode does not.
NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
dense, cols_int, json_ = (partial(parse_matrix, fmt=fmt) for fmt in ("dense", "cols-int", "json"))


def _outcome(parse, text):
    """What ``parse(text)`` returns, or its error with the position."""
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.line, e.column


@pytest.mark.parametrize("sep", NOT_LINE_BREAKS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_other_unicode_breaks_are_whitespace_inside_a_line(sep):
    """Only LF, CR LF and a lone CR end a line.  Any other Unicode line or
    page break neither splits a dense row, a vector or a cols-int header,
    nor moves an error to another line."""
    for parse, text, expected in (
        (dense, f"10{sep}01\n", BinMatrix.from_rows([[1, 0, 0, 1]])),
        (parse_vector, f"1{sep}0", BinVector.from_bits([1, 0])),
        (cols_int, f"k=2{sep}3\n1\n", ("expected header of the form k=K", 1, 1)),
        (dense, f"11{sep}0x", ("invalid character 'x'", 1, 5)),
        (dense, f"01\n11{sep}0x\n", ("invalid character 'x'", 2, 5)),
        (parse_vector, f"1{sep}0x", ("invalid character 'x' in vector", 1, 4)),
        (json_, f'{{"rows": 1,{sep}"cols": 1}}', ("invalid JSON: Expecting property name enclosed in double quotes", 1, 12)),
    ):
        assert _outcome(parse, text) == expected, repr(text)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_cr_lf_and_lone_cr_end_a_line_as_lf(newline):
    """Every format, and a vector, reads CR LF and a lone CR as LF: the same
    matrix, or the same error at the same line and column."""
    for parse, text in (
        (dense, "10\n\n01\n"),
        (dense, "1 0\n0 1\n0x\n"),
        (dense, "10\n011\n"),
        (cols_int, "\nk=2\n1\n2\n"),
        (cols_int, "k=2\n1\n 7\n"),
        (json_, '{"rows": 1,\n"cols": 2,\n"data": ["01"]}\n'),
        (json_, '{"rows": 1,\n"cols": x}'),
        (parse_vector, "1\n0\n1"),
        (parse_vector, "1\n\n 0x"),
    ):
        assert _outcome(parse, text.replace("\n", newline)) == _outcome(parse, text), repr(text)


def test_cols_int_header_limit():
    """A header may declare at most COLS_INT_MAX_K rows."""
    m = parse_matrix(f"k={COLS_INT_MAX_K}\n1 0\n", "cols-int")
    assert (m.rows, m.cols, m.data[0], m.data[-1]) == (COLS_INT_MAX_K, 2, 1, 0)
    with pytest.raises(ParseError, match="^k must be positive, got 0$") as info:
        parse_matrix("\nk=0\n1\n", "cols-int")
    assert (info.value.line, info.value.column) == (2, 1)
    for k in (COLS_INT_MAX_K + 1, 10**9, "9" * 5000):  # 5000 digits are past int()'s limit
        with pytest.raises(ParseError, match=f"k={k} is over the limit of {COLS_INT_MAX_K} rows") as info:
            parse_matrix(f"k={k}\n1\n", "cols-int")
        assert (info.value.line, info.value.column) == (1, 1)


def test_cols_int_round_trip_at_the_limit():
    """A full-width column at k = COLS_INT_MAX_K, 2^k - 1 with 4300 digits,
    reads and writes back; a matrix of one more row is not written (its
    header is refused in test_cols_int_header_limit)."""
    k = COLS_INT_MAX_K
    m = BinMatrix.from_cols([BinVector.ones(k), BinVector(k, 1 << (k - 1))])
    text = render_matrix(m, "cols-int")
    assert parse_matrix(text, "cols-int") == m
    assert len(text.split()[1]) == 4300
    with pytest.raises(UnsupportedSize, match=f"limit of {k} rows"):
        render_matrix(BinMatrix(1, (1,) * (k + 1)), "cols-int")


def test_cols_int_token_longer_than_k_bits():
    """A column with more digits than 2^k - 1, leading zeros included, is
    refused at its position before it is converted."""
    for text, where in (
        ("k=3\n7 07\n", (2, 3)),
        ("k=4\n 0015\n", (2, 2)),
        (f"k={COLS_INT_MAX_K}\n1\n{'9' * 100_000}\n", (3, 1)),
    ):
        with pytest.raises(ParseError, match="digits is too long") as info:
            parse_matrix(text, "cols-int")
        assert (info.value.line, info.value.column) == where
    assert parse_matrix("k=4\n15 09\n", "cols-int").col_vectors()[1].bits == 9


def test_cols_int_header_cases():
    r"""The header is "k", optional whitespace, "=", optional whitespace and
    ASCII digits: exactly what the pattern ^k\s*=\s*([0-9]+)$ accepts on
    the stripped line."""
    identity = BinMatrix.from_rows([[1, 0], [0, 1]])
    for header in ("k=2", "k = 2", "  k\t=\t02  ", "k\u00a0=\u20032", "k=" + "0" * 5000 + "2"):
        assert parse_matrix(f"{header}\n1 2\n", "cols-int") == identity
    former = re.compile(r"^k\s*=\s*([0-9]+)$")
    spaces = ("", " ", "\t", "\u00a0", "\u3000", "\u200b", "x")  # U+200B is no whitespace
    values = ("2", "02", "\u0662", "\u00b2", "+2", "2=3", "2 3", "=2", "")
    for key, before, after, value in itertools.product(("k", "K", "kk"), spaces, spaces, values):
        header = f" {key}{before}={after}{value} "
        try:
            parse_matrix(f"{header}\n1\n", "cols-int")
            accepted = True
        except ParseError as e:
            assert str(e) == "expected header of the form k=K" and (e.line, e.column) == (1, 1)
            accepted = False
        assert accepted == (former.match(header.strip()) is not None), repr(header)


def test_unknown_format():
    with pytest.raises(ParseError):
        parse_matrix("1", "yaml")
    with pytest.raises(ParseError):
        render_matrix(BinMatrix.identity(2), "yaml")


# -- wide rows ----------------------------------------------------------------


def _old_dense_error(text):
    """(message, line, column) of the first invalid character, found one
    character at a time as the dense parser always has."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        for col, ch in enumerate(line, start=1):
            if not ch.isspace() and ch not in "01":
                return f"invalid character {ch!r}", lineno, col
    return None


def test_invalid_character_deep_in_wide_rows():
    rng = random.Random(401)
    rows = ["".join(rng.choice("01") for _ in range(1024)) for _ in range(4)]
    for bad, where in (("x", 1000), ("2", 1023), ("١", 517), ("_", 3), ("+", 0), ("-", 8), ("１", 1021)):
        spaced = [" ".join(r) for r in rows]  # whitespace between entries shifts the column
        spaced[2] = spaced[2][: 2 * where] + bad + spaced[2][2 * where + 1 :]
        for text in ("\n".join(rows[:2] + [rows[2][:where] + bad + rows[2][where + 1 :]] + rows[3:]), "\n\n".join(spaced)):
            expected = _old_dense_error(text)
            with pytest.raises(ParseError) as err:
                parse_matrix(text, "dense")
            assert (str(err.value), err.value.line, err.value.column) == expected

        data = list(rows)
        data[2] = data[2][:where] + bad + data[2][where + 1 :]
        with pytest.raises(ParseError) as err:
            parse_matrix(json.dumps({"rows": 4, "cols": 1024, "data": data}), "json")
        assert (str(err.value), err.value.line, err.value.column) == ("row 2 must be a string of 1024 0/1 characters", 0, 0)


def test_wide_matrix_round_trips_through_every_format():
    rng = random.Random(409)
    m = BinMatrix(1024, tuple(rng.getrandbits(1024) for _ in range(1024)))
    for fmt in ("dense", "cols-int", "json"):
        assert parse_matrix(render_matrix(m, fmt), fmt) == m
    rows = render_matrix(m, "dense").split()
    assert all(int(line[::-1], 2) == r for line, r in zip(rows, m.data))
