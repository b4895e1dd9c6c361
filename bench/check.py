"""Output checks by definition, with the benchmark's own int code.

Each check takes the text a job wrote and raises CheckError when the text
is not a correct answer.  A failed check counts the job as failed.
"""

from __future__ import annotations

import json

from bits import gram, identity, matmul, parse_bits, parse_dense, parse_json_matrix, rank, row_text, transpose


class CheckError(Exception):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _matrix(text: str) -> tuple[list[int], int]:
    try:
        return parse_dense(text)
    except ValueError as e:
        raise CheckError(f"unreadable matrix: {e}") from e


def _doc_matrix(doc) -> tuple[list[int], int]:
    try:
        return parse_json_matrix(doc)
    except (ValueError, KeyError, TypeError) as e:
        raise CheckError(f"unreadable json matrix: {e}") from e


def _json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise CheckError(f"unreadable json: {e}") from e
    require(isinstance(doc, dict), "json output is not an object")
    return doc


def _parseval(rows: list[int], k: int, n: int, what: str) -> None:
    require(len(rows) == k, f"{what} has {len(rows)} rows, expected {k}")
    require(gram(transpose(rows, n), k) == identity(n), f"{what}: columns are not orthonormal")


def _circulant(c: int, k: int) -> list[int]:
    full = (1 << k) - 1
    return [((c << i) | (c >> (k - i))) & full if i else c for i in range(k)]


def _valid_cyclic_row(c: int, k: int) -> None:
    m = _circulant(c, k)
    require(c.bit_count() & 1 == 1, f"k={k} row {row_text(c, k)} has even weight")
    require(transpose(m, k) == m, f"k={k} row {row_text(c, k)} is not symmetric")
    require(matmul(m, m) == m, f"k={k} row {row_text(c, k)} is not idempotent")


# -- catalog -------------------------------------------------------------


def cyclic(k: int, reference: str | None):
    """Each line a first row whose circulant is symmetric, idempotent and
    odd; rows ascending; byte-identical to ``reference`` when given."""

    def check(text: str, outputs: dict) -> None:
        if reference is not None:
            require(text == reference, f"k={k} differs from tests/data")
        lines = text.splitlines()
        require(lines and all(len(ln) == k and not set(ln) - {"0", "1"} for ln in lines), "malformed rows")
        values = [parse_bits(ln) for ln in lines]
        require(values == sorted(set(values)), "rows not strictly ascending")
        for c in values:
            _valid_cyclic_row(c, k)

    return check


def nonrepeating(k: int):
    """Blocks ``k=K n=N gram=ROW`` + theta + blank line: the circulant is
    a valid cyclic Gram of rank n < k with distinct rows, and theta has
    orthonormal columns, distinct rows and theta theta^T = circulant."""

    def check(text: str, outputs: dict) -> None:
        blocks = [b for b in text.split("\n\n") if b.strip()]
        require(blocks, f"k={k}: no entries")
        for block in blocks:
            head, *body = block.strip("\n").split("\n")
            try:
                kk, nn, row = (part.split("=")[1] for part in head.split())
                kk, nn = int(kk), int(nn)
            except (ValueError, IndexError) as e:
                raise CheckError(f"bad header {head!r}") from e
            require(kk == k and len(row) == k and nn < k, f"bad header {head!r}")
            c = parse_bits(row)
            _valid_cyclic_row(c, k)
            m = _circulant(c, k)
            require(rank(m) == nn, f"{head}: rank differs")
            require(len(set(m)) == k, f"{head}: circulant rows repeat")
            theta, n = _matrix("\n".join(body))
            require(n == nn, f"{head}: theta has {n} columns")
            _parseval(theta, k, n, head)
            require(gram(theta, n) == m, f"{head}: theta theta^T is not the circulant")
            require(len(set(theta)) == k, f"{head}: frame vectors repeat")

    return check


def orthogonal_catalog(k: int, reference: list[str]):
    """cols-int lines equal to the tests/data classes for k, each matrix
    orthogonal with ascending columns."""

    def check(text: str, outputs: dict) -> None:
        lines = text.splitlines()
        require(lines == reference, f"k={k} classes differ from tests/data")
        for line in lines:
            cols = [int(t) for t in line.split()]
            require(len(cols) == k and cols == sorted(cols), "columns not ascending")
            require(gram(cols, k) == identity(k), f"{line}: not orthogonal")

    return check


# -- constructions -------------------------------------------------------


def factor(m: list[int], k: int, n: int, fmt: str):
    """theta^T theta = I, theta theta^T = M and rank n; in json mode the
    certificate flags must both be true."""

    def check(text: str, outputs: dict) -> None:
        if fmt == "json":
            doc = _json(text)
            require(doc.get("theta_star_theta_is_identity") is True, "identity flag not true")
            require(doc.get("reproduces_gram") is True, "gram flag not true")
            theta, cols = _doc_matrix(doc.get("theta"))
        else:
            theta, cols = _matrix(text)
        require(cols == n, f"theta has {cols} columns, rank is {n}")
        _parseval(theta, k, n, "theta")
        require(gram(theta, n) == m, "theta theta^T differs from M")

    return check


def complement(theta: list[int], k: int, n: int, fmt: str):
    """psi is Parseval with k - n columns and gram(theta) + gram(psi) = I."""
    target = [a ^ b for a, b in zip(gram(theta, n), identity(k))]

    def check(text: str, outputs: dict) -> None:
        if fmt == "json":
            doc = _json(text)
            require(doc.get("gram_sum_is_identity") is True, "gram-sum flag not true")
            require(doc.get("block_is_orthogonal") is True, "block flag not true")
            psi, cols = _doc_matrix(doc.get("psi"))
        else:
            psi, cols = _matrix(text)
        require(cols == k - n, f"psi has {cols} columns, expected {k - n}")
        _parseval(psi, k, cols, "psi")
        require(gram(psi, cols) == target, "gram(theta) + gram(psi) != I")

    return check


def extend(rows: list[int], k: int):
    """An orthonormal basis of GF(2)^k whose first rows are the input."""

    def check(text: str, outputs: dict) -> None:
        basis, cols = _matrix(text)
        require(cols == k and len(basis) == k, "extension is not k x k")
        require(basis[: len(rows)] == rows, "extension does not start with the input rows")
        require(gram(basis, k) == identity(k), "extension is not orthonormal")

    return check


def negative(text: str, outputs: dict) -> None:
    """A mathematical no in dense mode: the reason goes to stderr only."""
    require(text == "", "negative answer wrote output")


# -- answers -------------------------------------------------------------


def answer(name: str, value: bool):
    expected = f"{name}: {'yes' if value else 'no'}\n"

    def check(text: str, outputs: dict) -> None:
        require(text == expected, f"expected {expected.strip()!r}, got {text.strip()[:80]!r}")

    return check


# -- equivalence ---------------------------------------------------------


def canon(a: list[int], cols: int, conjugation: bool, same_as: str | None = None):
    """matrix[i][j] == a[row_perm[i]][col_perm[j]] for valid permutations
    (equal ones in conjugation mode); with ``same_as``, the canonical
    matrix equals the one that job printed."""

    def check(text: str, outputs: dict) -> None:
        doc = _json(text)
        rp, cp = doc.get("row_perm"), doc.get("col_perm")
        require(sorted(rp or ()) == list(range(len(a))), "row_perm is not a permutation")
        require(sorted(cp or ()) == list(range(cols)), "col_perm is not a permutation")
        require(not conjugation or rp == cp, "conjugation certificate has two permutations")
        matrix, mcols = _doc_matrix(doc.get("matrix"))
        moved = [sum(((a[rp[i]] >> cp[j]) & 1) << j for j in range(cols)) for i in range(len(a))]
        require(mcols == cols and matrix == moved, "canonical form is not the input under its certificate")
        if same_as is not None:
            require(doc["matrix"] == _json(outputs.get(same_as, "")).get("matrix"), f"canonical form differs from {same_as}")

    return check
