"""Text formats for matrices and vectors.

Three interchangeable formats, all round-tripping bit-exactly:

* ``dense`` - one line of 0/1 characters per row, whitespace between
  characters optional.
* ``cols-int`` - a ``k=K`` header (K at most ``COLS_INT_MAX_K``)
  followed by space-separated column integers; a column vector
  (x_1, ..., x_k) encodes as ``sum(x_i * 2**(i-1))``, so (1,0,1,1) is 13.
* ``json`` - an object with ``rows``, ``cols`` and ``data``, a list of
  row strings of exactly ``cols`` 0/1 characters each, with no whitespace.
"""

from .errors import ParseError, UnsupportedSize
from .gf2 import BinMatrix, BinVector

__all__ = [
    "FORMATS",
    "parse_matrix",
    "render_matrix",
    "parse_vector",
]

FORMATS = ("dense", "cols-int", "json")
# The largest k a cols-int header may declare, or a matrix rendered in
# cols-int may have: a few bytes of header would otherwise make the parser
# build k-character rows.  It is the largest k whose all-ones column,
# 2**k - 1, has at most 4300 decimal digits, the default limit on int-string
# conversions since CPython 3.10.7 and 3.11.
COLS_INT_MAX_K = 14284
_NOT_BITS = str.maketrans("", "", "01")  # a row is 0/1 iff translate leaves it empty


def json_line(doc) -> str:
    """One JSON document as a line of text."""
    import json  # imported on first use: dense and cols-int runs never load it

    return json.dumps(doc) + "\n"


def matrix_doc(m: BinMatrix) -> dict:
    """The JSON document of a matrix: ``rows``, ``cols`` and ``data``."""
    return {"rows": m.rows, "cols": m.cols, "data": m.to_bitstring_rows()}


def parse_vector(text: str) -> BinVector:
    """A single dense bit-string such as ``1011`` (whitespace ignored)."""
    entries = "".join(bits for _, bits in _bit_lines(text, " in vector"))
    if not entries:
        raise ParseError("empty vector", line=1, column=1)
    return BinVector(len(entries), _bits(entries))


def _as_lf(text: str) -> str:
    """``text`` with every line ending as LF.  A line ends at LF, CR LF or
    a lone CR, as in text mode, and nowhere else: any other Unicode line
    or page break is whitespace inside its line."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _bit_lines(text: str, what: str = ""):
    """Each line of ``text`` holding entries, numbered from 1, with its 0/1
    characters and no whitespace.  Any other character is a ParseError at
    its line and column, ``what`` ending the message."""
    for lineno, line in enumerate(_as_lf(text).split("\n"), start=1):
        entries = "".join(line.split())
        if entries.translate(_NOT_BITS):
            # only a bad line is walked character by character, for the column
            col = next(col for col, ch in enumerate(line, start=1) if ch not in "01" and not ch.isspace())
            raise ParseError(f"invalid character {line[col - 1]!r}{what}", line=lineno, column=col)
        if entries:
            yield lineno, entries


def _bits(row: str) -> int:
    """The int of a string of 0/1 characters, entry 0 leftmost."""
    return int(row[::-1], 2)


def _parse_dense(text: str) -> BinMatrix:
    rows: list[int] = []
    width = None
    for lineno, entries in _bit_lines(text):
        n = len(entries)
        if width is None:
            width = n
        elif n != width:
            raise ParseError(f"row has {n} entries, expected {width}", line=lineno, column=1)
        rows.append(_bits(entries))
    if not rows:
        raise ParseError("no matrix rows found", line=1, column=1)
    return BinMatrix(width, rows)


def _parse_cols_int(text: str) -> BinMatrix:
    k = None
    header_line = 0
    values: list[int] = []
    for lineno, line in enumerate(_as_lf(text).split("\n"), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if k is None:
            # "k", optional whitespace, "=", optional whitespace, ASCII digits
            key, eq, digits = stripped.partition("=")
            digits = digits.lstrip()
            if not (eq and key.rstrip() == "k" and digits.isascii() and digits.isdigit()):
                raise ParseError("expected header of the form k=K", line=lineno, column=1)
            # compared by length before int() reads it: int() refuses
            # thousands of digits, leading zeros included
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(COLS_INT_MAX_K)) or int(digits) > COLS_INT_MAX_K:
                raise ParseError(f"k={digits} is over the limit of {COLS_INT_MAX_K} rows", line=lineno, column=1)
            k = int(digits)
            header_line = lineno
            if k < 1:
                raise ParseError(f"k must be positive, got {k}", line=lineno, column=1)
            width = len(str((1 << k) - 1))  # digits of the widest column
            continue
        col = 1
        for token in line.split():
            col = line.index(token, col - 1) + 1
            if not (token.isascii() and token.isdigit()):
                raise ParseError(f"invalid integer {token!r}", line=lineno, column=col)
            if len(token) > width:
                raise ParseError(
                    f"integer of {len(token)} digits is too long for k={k} bits", line=lineno, column=col
                )
            value = int(token)
            if value >= (1 << k):
                raise ParseError(
                    f"integer {value} needs more than k={k} bits", line=lineno, column=col
                )
            values.append(value)
    if k is None:
        raise ParseError("expected header of the form k=K", line=1, column=1)
    if not values:
        raise ParseError("no column integers found", line=header_line, column=1)
    return BinMatrix(k, values).transpose()


def _parse_json(text: str) -> BinMatrix:
    import json

    try:
        doc = json.loads(_as_lf(text))
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    except (ValueError, RecursionError) as e:  # an integer over the int-string limit, deep nesting
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object with rows, cols, data")
    try:
        rows = doc["rows"]
        cols = doc["cols"]
        data = doc["data"]
    except KeyError as e:
        raise ParseError(f"missing field {e.args[0]!r}") from e
    if not (type(rows) is int and type(cols) is int and rows > 0 and cols > 0):
        raise ParseError("rows and cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows:
        raise ParseError(f"data must list exactly {rows} row strings")
    for i, rowstr in enumerate(data):
        if not isinstance(rowstr, str) or len(rowstr) != cols or rowstr.translate(_NOT_BITS):
            raise ParseError(f"row {i} must be a string of {cols} 0/1 characters")
    return BinMatrix(cols, map(_bits, data))


def parse_matrix(text: str, fmt: str = "dense") -> BinMatrix:
    if fmt == "dense":
        return _parse_dense(text)
    if fmt == "cols-int":
        return _parse_cols_int(text)
    if fmt == "json":
        return _parse_json(text)
    raise ParseError(f"unknown format {fmt!r}")


def render_matrix(m: BinMatrix, fmt: str = "dense") -> str:
    if fmt == "dense":
        return "\n".join(m.to_bitstring_rows()) + "\n"
    if fmt == "cols-int":
        if m.rows > COLS_INT_MAX_K:
            raise UnsupportedSize(f"k={m.rows} is over the cols-int limit of {COLS_INT_MAX_K} rows")
        ints = " ".join(map(str, m.transpose().data))
        return f"k={m.rows}\n{ints}\n"
    if fmt == "json":
        return json_line(matrix_doc(m))
    raise ParseError(f"unknown format {fmt!r}")
