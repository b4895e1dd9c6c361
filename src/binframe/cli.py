"""Command-line interface.

Every operation of the library is reachable as a subcommand working on
matrix documents in any of the three wire formats (see ``formats``).
Exit codes separate three outcomes so scripts can branch without parsing
output: 0 success, 1 mathematical negative (not Parseval, no complement,
not a Gram matrix, not equivalent), 2 malformed input, usage, a size over
its limit or an internal error.  In JSON mode, negatives come with a
machine-readable witness object; other modes print a reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, TextIO

from . import catalog as cat
from .equiv import MODE_CONJUGATION, MODE_INDEPENDENT, canonical_form, permutation_equivalent, switching_equivalent
from .errors import (
    BinFrameError,
    ExtensionObstruction,
    InvalidInput,
    NotGramMatrix,
    NotSpanningError,
    ParseError,
    ShapeError,
)
from .frames import Frame, gram, is_orthogonal, is_parseval, reconstruct
from .formats import FORMATS, parse_matrix, parse_vector, render_matrix
from .gf2 import BinMatrix, BinVector
from .gramfactor import GramCandidate, factor_gram, is_gram_of_parseval
from .naimark import OrthonormalSequence, extend_to_basis, naimark_complement

PROG = "binframe"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="dense", help="wire format for matrix input and output")
    common.add_argument("--output", metavar="PATH", default=None, help="write results to PATH instead of stdout")
    common.add_argument("--quiet", action="store_true", help="suppress yes/no answer lines; exit codes still carry them")

    parser = _Parser(prog=PROG, description="Binary Parseval frame toolkit over GF(2).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="test a predicate, answering via the exit code")
    p.add_argument("property", choices=("parseval", "orthogonal", "gram"))
    p.add_argument("file")

    p = sub.add_parser("gram", parents=[common], help="Gram matrix of an analysis matrix")
    p.add_argument("file")

    p = sub.add_parser("factor", parents=[common], help="factor a symmetric idempotent matrix as theta theta*")
    p.add_argument("file")

    p = sub.add_parser("complement", parents=[common], help="complementary Parseval analysis matrix")
    p.add_argument("file")

    p = sub.add_parser("extend", parents=[common], help="extend orthonormal rows to an orthonormal basis")
    p.add_argument("file")

    p = sub.add_parser("reconstruct", parents=[common], help="evaluate the frame expansion of a vector")
    p.add_argument("file")
    p.add_argument("--x", required=True, metavar="BITS", help="vector to expand, as dense bits like 1011")

    p = sub.add_parser("enum", parents=[common], help="exhaustive catalogs")
    p.add_argument("kind", choices=("orthogonal", "cyclic"))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nonrepeating", action="store_true", help="cyclic only: restrict to repetition-free frames and factor them")

    p = sub.add_parser("equiv", parents=[common], help="equivalence tests, answering via the exit code")
    p.add_argument("relation", choices=("switching", "perm"))
    p.add_argument("file1")
    p.add_argument("file2")

    p = sub.add_parser("canon", parents=[common], help="canonical form under permutation equivalence")
    p.add_argument("file")
    p.add_argument("--mode", choices=(MODE_INDEPENDENT, MODE_CONJUGATION), default=MODE_INDEPENDENT)

    return parser


def _load_matrix(path: str, fmt: str) -> BinMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read(), fmt)


def _matrix_doc(m: BinMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "data": m.to_bitstring_rows()}


class _Negative(Exception):
    """A well-posed question with answer no; carries the witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


def _emit_negative(neg: _Negative, args, out: TextIO) -> int:
    if args.format == "json":
        doc = {"ok": False, "reason": neg.reason}
        if neg.witness is not None:
            doc["witness"] = neg.witness
        out.write(json.dumps(doc) + "\n")
    if not args.quiet:
        print(f"{PROG}: no: {neg.reason}", file=sys.stderr)
    return 1


def _answer(args, out: TextIO, name: str, value: bool, reason: Optional[str] = None) -> int:
    if args.format == "json":
        doc: dict = {name: value}
        if reason is not None:
            doc["witness"] = reason
        out.write(json.dumps(doc) + "\n")
    elif not args.quiet:
        line = f"{name}: {'yes' if value else 'no'}"
        if reason is not None and not value:
            line += f" ({reason})"
        out.write(line + "\n")
    return 0 if value else 1


def _cmd_check(args, out: TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    if args.property == "parseval":
        return _answer(args, out, "parseval", is_parseval(m))
    if args.property == "orthogonal":
        return _answer(args, out, "orthogonal", is_orthogonal(m))
    try:
        ok = is_gram_of_parseval(GramCandidate(m))
    except (InvalidInput, ShapeError) as e:
        return _answer(args, out, "gram", False, reason=str(e))
    return _answer(args, out, "gram", ok, reason=None if ok else "all columns even")


def _cmd_gram(args, out: TextIO) -> int:
    out.write(render_matrix(gram(_load_matrix(args.file, args.format)), args.format))
    return 0


def _cmd_factor(args, out: TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    try:
        cand = GramCandidate(m)
    except InvalidInput as e:
        raise _Negative(f"not a Gram matrix: {e}") from e
    try:
        theta = factor_gram(cand).theta
    except NotGramMatrix as e:
        raise _Negative("not a Gram matrix: all columns even", witness=list(e.witness)) from e
    if args.format == "json":
        # factor_gram returns only a factorization it has checked
        doc = {
            "theta": _matrix_doc(theta),
            "theta_star_theta_is_identity": True,
            "reproduces_gram": True,
        }
        out.write(json.dumps(doc) + "\n")
    else:
        out.write(render_matrix(theta, args.format))
    return 0


def _cmd_complement(args, out: TextIO) -> int:
    theta = _load_matrix(args.file, args.format)
    try:
        psi = naimark_complement(theta)
    except InvalidInput as e:
        raise _Negative(str(e)) from e
    except ExtensionObstruction as e:
        witness = e.witness.to_bitstring() if isinstance(e.witness, BinVector) else None
        raise _Negative("no complement: every frame vector is odd", witness=witness) from e
    if args.format == "json":
        # naimark_complement returns only a complement it has checked
        doc = {
            "psi": _matrix_doc(psi),
            "gram_sum_is_identity": True,
            "block_is_orthogonal": True,
        }
        out.write(json.dumps(doc) + "\n")
    else:
        out.write(render_matrix(psi, args.format))
    return 0


def _cmd_extend(args, out: TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    try:
        seq = OrthonormalSequence(m.cols, m.row_vectors())
        ext = extend_to_basis(seq)
    except InvalidInput as e:
        raise _Negative(f"rows are not orthonormal: {e}") from e
    except ExtensionObstruction as e:
        witness = e.witness.to_bitstring() if isinstance(e.witness, BinVector) else None
        raise _Negative("not extendable: rows sum to the all-ones vector", witness=witness) from e
    out.write(render_matrix(BinMatrix.from_rows(ext.vecs), args.format))
    return 0


def _cmd_reconstruct(args, out: TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    try:
        frame = Frame.from_analysis(m)
    except NotSpanningError as e:
        raise _Negative(str(e)) from e
    x = parse_vector(args.x)
    y = reconstruct(x, frame)
    if args.format == "json":
        doc = {"x": x.to_bitstring(), "reconstruction": y.to_bitstring(), "equal": y == x}
        out.write(json.dumps(doc) + "\n")
    else:
        out.write(y.to_bitstring() + "\n")
    return 0


def _cmd_enum(args, out: TextIO) -> int:
    if args.kind == "orthogonal":
        if args.nonrepeating:
            raise _UsageError("--nonrepeating applies to `enum cyclic` only")
        catalog = cat.enum_orthogonal(args.k)
        for m, cols in zip(catalog.classes, catalog.column_sets()):
            if args.format == "cols-int":
                out.write(" ".join(map(str, cols)) + "\n")
            elif args.format == "json":
                out.write(json.dumps({"k": args.k, "columns": list(cols)}) + "\n")
            else:
                out.write(render_matrix(m, "dense") + "\n")
        return 0
    if args.nonrepeating:
        for pair in cat.enum_nonrepeating(args.k):
            row = pair.gram.first_row
            if args.format == "cols-int":
                cols = " ".join(str(c.bits) for c in pair.theta.col_vectors())
                out.write(f"{row.bits} {cols}\n")
            elif args.format == "json":
                doc = {
                    "k": pair.gram.k,
                    "n": pair.gram.rank,
                    "gram_first_row": row.to_bitstring(),
                    "theta": pair.theta.to_bitstring_rows(),
                }
                out.write(json.dumps(doc) + "\n")
            else:
                out.write(f"k={pair.gram.k} n={pair.gram.rank} gram={row.to_bitstring()}\n")
                out.write(render_matrix(pair.theta, "dense") + "\n")
        return 0
    for cg in cat.enum_cyclic_gram(args.k):
        if args.format == "cols-int":
            out.write(f"{cg.first_row.bits}\n")
        elif args.format == "json":
            doc = {
                "k": cg.k,
                "n": cg.rank,
                "first_row": cg.first_row.to_bitstring(),
                "first_row_int": cg.first_row.bits,
            }
            out.write(json.dumps(doc) + "\n")
        else:
            out.write(cg.first_row.to_bitstring() + "\n")
    return 0


def _cmd_equiv(args, out: TextIO) -> int:
    a = _load_matrix(args.file1, args.format)
    b = _load_matrix(args.file2, args.format)
    if args.relation == "perm":
        return _answer(args, out, "permutation-equivalent", permutation_equivalent(a, b))
    try:
        fa = Frame.from_analysis(a)
        fb = Frame.from_analysis(b)
    except NotSpanningError as e:
        raise _Negative(str(e)) from e
    return _answer(args, out, "switching-equivalent", switching_equivalent(fa, fb))


def _cmd_canon(args, out: TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    result = canonical_form(m, args.mode)
    if args.format == "json":
        doc = {
            "matrix": _matrix_doc(result.matrix),
            "row_perm": list(result.row_perm),
            "col_perm": list(result.col_perm),
        }
        out.write(json.dumps(doc) + "\n")
    else:
        out.write(render_matrix(result.matrix, args.format))
    return 0


_HANDLERS: dict[str, Callable[..., int]] = {
    "check": _cmd_check,
    "gram": _cmd_gram,
    "factor": _cmd_factor,
    "complement": _cmd_complement,
    "extend": _cmd_extend,
    "reconstruct": _cmd_reconstruct,
    "enum": _cmd_enum,
    "equiv": _cmd_equiv,
    "canon": _cmd_canon,
}


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # --help
        return int(e.code or 0)

    out: TextIO = sys.stdout
    opened = False
    try:
        if args.output:
            out = open(args.output, "w", encoding="utf-8")
            opened = True
        return _HANDLERS[args.command](args, out)
    except _Negative as neg:
        return _emit_negative(neg, args, out)
    except _UsageError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    except ParseError as e:
        where = f" at line {e.line}, column {e.column}" if e.line else ""
        print(f"{PROG}: parse error{where}: {e}", file=sys.stderr)
        return 2
    except (InvalidInput, NotSpanningError) as e:
        return _emit_negative(_Negative(str(e)), args, out)
    except OSError as e:
        print(f"{PROG}: {e}", file=sys.stderr)
        return 2
    except BinFrameError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:  # a broken internal check must not read as a "no"
        print(f"{PROG}: internal error: {e}", file=sys.stderr)
        return 2
    finally:
        if opened:
            out.close()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
