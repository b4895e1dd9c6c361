"""GF(2) matrices as lists of int rows, independent of binframe.

Entry j of row i is bit j of ``rows[i]``; that is also the order of the
dense text format, whose leftmost character is entry 0.  The benchmark
builds its inputs and checks the program's outputs with this code only,
so a defect in binframe cannot hide itself.
"""

from __future__ import annotations

import json


def identity(n: int) -> list[int]:
    return [1 << i for i in range(n)]


def transpose(rows: list[int], cols: int) -> list[int]:
    out = [0] * cols
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


def matmul(a: list[int], b: list[int]) -> list[int]:
    """Product of a (r x c) and b (c x s): row i is the XOR of the rows of
    b picked by the set bits of a[i]."""
    out = []
    for r in a:
        acc = 0
        while r:
            low = r & -r
            acc ^= b[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def gram(rows: list[int], cols: int) -> list[int]:
    """rows @ rows^T."""
    return matmul(rows, transpose(rows, cols))


def rank(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = r
                break
            r ^= p
    return len(pivots)


def row_text(r: int, cols: int) -> str:
    return format(r, f"0{cols}b")[::-1]


def render(rows: list[int], cols: int, fmt: str = "dense") -> str:
    text = [row_text(r, cols) for r in rows]
    if fmt == "json":
        return json.dumps({"rows": len(rows), "cols": cols, "data": text}) + "\n"
    return "\n".join(text) + "\n"


def parse_bits(line: str) -> int:
    return int(line[::-1], 2)


def parse_dense(text: str) -> tuple[list[int], int]:
    """Rows and column count of a dense document; raises ValueError."""
    lines = [ln for ln in text.split("\n") if ln]
    if not lines:
        raise ValueError("empty matrix")
    cols = len(lines[0])
    if any(len(ln) != cols or set(ln) - {"0", "1"} for ln in lines):
        raise ValueError("ragged or non-binary dense matrix")
    return [parse_bits(ln) for ln in lines], cols


def parse_json_matrix(doc: dict) -> tuple[list[int], int]:
    data = doc["data"]
    if doc["rows"] != len(data) or any(len(s) != doc["cols"] for s in data):
        raise ValueError("json matrix shape does not match its data")
    return [parse_bits(s) for s in data], doc["cols"]
