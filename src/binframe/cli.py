"""Command-line interface.

Every operation of the library is reachable as a subcommand working on
matrix documents in any of the three wire formats (see ``formats``).
Exit codes separate three outcomes so scripts can branch without parsing
output: 0 success, 1 mathematical negative (not Parseval, no complement,
not a Gram matrix, not equivalent), 2 malformed input, usage, a size over
its limit or an internal error.  In JSON mode, negatives come with a
machine-readable witness object; other modes print a reason to stderr.
"""

import os
import sys
from collections.abc import Iterable
from types import SimpleNamespace

# Start-up loads what parsing and reporting need; each handler imports
# the module it calls, so a job loads only its own command's modules.
# The canon --mode choices are parse-time data and load ``equiv``.
from .equiv import MODE_CONJUGATION, MODE_INDEPENDENT
from .errors import (
    BinFrameError,
    ExtensionObstruction,
    InvalidInput,
    NotGramMatrix,
    NotSpanningError,
    ParseError,
    ShapeError,
    UnsupportedSize,
)
from .formats import COLS_INT_MAX_K, FORMATS, json_line, matrix_doc, parse_matrix, parse_vector, render_matrix
from .gf2 import BinMatrix

PROG = "binframe"


class _UsageError(BinFrameError):
    pass


class _Help(Exception):
    """``-h``/``--help``: the message is the help text."""


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The arguments of one invocation as a namespace.

    An argv spelled plainly (a command word, then its positionals in
    order and ``--name value`` options by their exact names, in any
    order) is read here: a repeated option keeps its last value and a
    flag reads True.  Every other argv, such as ``-h``, an abbreviation,
    an ``=`` form, ``--``, a negative number or a refusal, goes to
    ``_argparse``.  Raises ``_UsageError`` for a refused argv and
    ``_Help`` for ``-h``/``--help``.
    """
    if not argv or argv[0] not in _COMMANDS:
        return _argparse(argv)
    _, _, positionals, own = _COMMANDS[argv[0]]
    options = {**_COMMON, **own}
    ns = {"command": argv[0], **{name: spec[1] for name, spec in options.items()}}
    todo = list(positionals.items())
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            if not todo:
                return _argparse(argv)
            name, kind = todo.pop(0)
        elif arg[:2] == "--" and arg[2:] in options:
            name = arg[2:]
            kind = options[name][0]
            if kind is None:
                ns[name] = True
                continue
            arg = next(rest, "-")
            if arg[:1] == "-":
                return _argparse(argv)
        else:
            return _argparse(argv)
        if kind is int:
            try:
                arg = int(arg)
            except ValueError:
                return _argparse(argv)
        elif isinstance(kind, tuple) and arg not in kind:
            return _argparse(argv)
        ns[name] = arg
    if todo or _REQUIRED in ns.values():
        return _argparse(argv)
    return SimpleNamespace(**ns)


def _argparse(argv: list[str]) -> SimpleNamespace:
    """``argv`` read by argparse, declared from the same table and imported
    only here, so that a plainly spelled argv never loads it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

        def print_help(self, file=None):
            raise _Help(self.format_help())

    def layout(prog):  # one fixed width, whatever the terminal's COLUMNS
        return argparse.HelpFormatter(prog, width=120, max_help_position=40)

    parser = Parser(prog=PROG, description="Binary Parseval frame toolkit over GF(2).", formatter_class=layout)
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, positionals, own) in _COMMANDS.items():
        sub = commands.add_parser(command, help=about, description=about, formatter_class=layout)
        for name, kind in positionals.items():
            sub.add_argument(name, choices=kind)
        for name, (kind, default, note) in {**_COMMON, **own}.items():
            if kind is None:
                spec = {"action": "store_true"}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            else:
                spec = {"type": int} if kind is int else {"metavar": kind}
            sub.add_argument("--" + name, default=default, required=default is _REQUIRED, help=note, **spec)
    return SimpleNamespace(**vars(parser.parse_args(argv)))


def _load_matrix(path: str, fmt: str) -> BinMatrix:
    """The matrix in file ``path``, less one leading byte-order mark.  Bytes
    that are not UTF-8 are a ParseError at the first of them, by line and byte column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        lines = (data[: e.start] + b"?").splitlines()
        message = f"byte 0x{data[e.start]:02x} is not valid UTF-8"
        raise ParseError(message, line=len(lines), column=len(lines[-1])) from None
    return parse_matrix(text.removeprefix("\ufeff"), fmt)


def _say(message: str) -> None:
    """``binframe: message`` as one line on stderr.  A write that fails,
    as to a closed stderr, is dropped: the exit code still carries the
    outcome."""
    if sys.stderr is not None:
        try:
            print(f"{PROG}: {message}", file=sys.stderr)
        except OSError:
            pass


def _negative(args, reason: str, witness=None) -> tuple[int, Iterable[str]]:
    """A well-posed question with answer no: exit 1, the witness document
    in JSON mode, and the reason on stderr once the output is written."""

    def chunks():
        if args.format == "json":
            doc = {"ok": False, "reason": reason}
            if witness is not None:
                doc["witness"] = witness
            yield json_line(doc)
        if not args.quiet:
            _say(f"no: {reason}")

    return 1, chunks()


def _answer(args, name: str, value: bool, reason: str | None = None) -> tuple[int, Iterable[str]]:
    code = 0 if value else 1
    if args.format == "json":
        doc: dict = {name: value}
        if reason is not None:
            doc["witness"] = reason
        return code, [json_line(doc)]
    if args.quiet:
        return code, []
    note = f" ({reason})" if reason is not None and not value else ""
    return code, [f"{name}: {'yes' if value else 'no'}{note}\n"]


def _matrix(args, m: BinMatrix, name: str, **extra) -> tuple[int, Iterable[str]]:
    """``m`` in ``--format``; in JSON, under ``name`` followed by ``extra``."""
    if args.format == "json":
        return 0, [json_line({name: matrix_doc(m), **extra})]
    return 0, [render_matrix(m, args.format)]


def _cmd_check(args):
    from .frames import is_orthogonal, is_parseval

    m = _load_matrix(args.file, args.format)
    if args.property == "parseval":
        return _answer(args, "parseval", is_parseval(m))
    try:
        if args.property == "orthogonal":
            return _answer(args, "orthogonal", is_orthogonal(m))
        from .gramfactor import GramCandidate, is_gram_of_parseval
        ok = is_gram_of_parseval(GramCandidate(m))
    except (InvalidInput, ShapeError) as e:
        return _answer(args, args.property, False, reason=str(e))
    return _answer(args, "gram", ok, reason=None if ok else "all columns even")


def _cmd_gram(args):
    from .frames import gram

    return 0, [render_matrix(gram(_load_matrix(args.file, args.format)), args.format)]


def _cmd_factor(args):
    from .gramfactor import GramCandidate, factor_gram

    m = _load_matrix(args.file, args.format)
    try:
        cand = GramCandidate(m)
    except (InvalidInput, ShapeError) as e:
        return _negative(args, f"not a Gram matrix: {e}")
    try:
        theta = factor_gram(cand).theta
    except NotGramMatrix as e:
        return _negative(args, "not a Gram matrix: all columns even", witness=list(e.witness))
    # factor_gram returns only a factorization it has checked
    return _matrix(args, theta, "theta", theta_star_theta_is_identity=True, reproduces_gram=True)


def _cmd_complement(args):
    from .naimark import naimark_complement

    theta = _load_matrix(args.file, args.format)
    try:
        psi = naimark_complement(theta)
    except ExtensionObstruction as e:
        return _negative(args, "no complement: every frame vector is odd", witness=e.witness.to_bitstring())
    # naimark_complement returns only a complement it has checked
    return _matrix(args, psi, "psi", gram_sum_is_identity=True, block_is_orthogonal=True)


def _cmd_extend(args):
    from .naimark import OrthonormalSequence, extend_to_basis

    m = _load_matrix(args.file, args.format)
    try:
        ext = extend_to_basis(OrthonormalSequence(m.cols, m.row_vectors()))
    except InvalidInput as e:
        return _negative(args, f"rows are not orthonormal: {e}")
    except ExtensionObstruction as e:
        return _negative(args, "not extendable: rows sum to the all-ones vector", witness=e.witness.to_bitstring())
    return 0, [render_matrix(BinMatrix.from_rows(ext.vecs), args.format)]


def _cmd_reconstruct(args):
    from .frames import Frame, reconstruct

    frame = Frame(_load_matrix(args.file, args.format))
    x = parse_vector(args.x)
    y = reconstruct(x, frame)
    if args.format == "json":
        return 0, [json_line({"x": x.to_bitstring(), "reconstruction": y.to_bitstring(), "equal": y == x})]
    return 0, [y.to_bitstring() + "\n"]


def _cmd_enum(args):
    """The catalog is built before this returns, so a refusal comes before
    any output; its lines are rendered one by one as they are written."""
    from .catalog import enum_cyclic_gram, enum_nonrepeating, enum_orthogonal

    fmt = args.format
    if args.kind == "orthogonal":
        if args.nonrepeating:
            raise _UsageError("--nonrepeating applies to `enum cyclic` only")
        catalog = enum_orthogonal(args.k)

        def line(m, cols):
            if fmt == "cols-int":
                return " ".join(map(str, cols)) + "\n"
            if fmt == "json":
                return json_line({"k": args.k, "columns": list(cols)})
            return render_matrix(m, "dense") + "\n"

        return 0, map(line, catalog.classes, catalog.column_sets())
    if args.nonrepeating:

        def line(pair):
            row = pair.gram.first_row
            if fmt == "cols-int":
                return f"{row.bits} {' '.join(map(str, pair.theta.transpose().data))}\n"
            if fmt == "json":
                doc = {"k": pair.gram.k, "n": pair.gram.rank, "gram_first_row": row.to_bitstring()}
                return json_line({**doc, "theta": pair.theta.to_bitstring_rows()})
            head = f"k={pair.gram.k} n={pair.gram.rank} gram={row.to_bitstring()}\n"
            return head + render_matrix(pair.theta, "dense") + "\n"

        return 0, map(line, enum_nonrepeating(args.k))

    def line(cg):
        if fmt == "cols-int":
            return f"{cg.first_row.bits}\n"
        if fmt == "json":
            row = cg.first_row
            return json_line({"k": cg.k, "n": cg.rank, "first_row": row.to_bitstring(), "first_row_int": row.bits})
        return cg.first_row.to_bitstring() + "\n"

    catalog = enum_cyclic_gram(args.k)
    # cols-int and JSON print each first row in decimal; the rows ascend
    bits = catalog[-1].first_row.bits.bit_length()
    if fmt != "dense" and bits > COLS_INT_MAX_K:
        raise UnsupportedSize(
            f"a first row of {bits} bits is over the {fmt} limit of {COLS_INT_MAX_K} bits; --format dense prints it"
        )
    return 0, map(line, catalog)


def _cmd_equiv(args):
    from .equiv import permutation_equivalent, switching_equivalent
    from .frames import Frame

    a = _load_matrix(args.file1, args.format)
    b = _load_matrix(args.file2, args.format)
    if args.relation == "perm":
        return _answer(args, "permutation-equivalent", permutation_equivalent(a, b))
    fa, fb = Frame(a), Frame(b)
    return _answer(args, "switching-equivalent", switching_equivalent(fa, fb))


def _cmd_canon(args):
    from .equiv import canonical_form

    result = canonical_form(_load_matrix(args.file, args.format), args.mode)
    return _matrix(args, result.matrix, "matrix", row_perm=list(result.row_perm), col_perm=list(result.col_perm))


# The command line as one table, which drives the plain reader, the
# argparse parser and its help.  A command maps to its handler (args ->
# the exit code and an iterable of output text), its one-line help, its
# positionals (name -> a tuple of choices, or None for any string) and its
# own options; every command also takes the _COMMON options.  An option
# maps name -> (kind, default, help): kind None is a flag, a tuple lists
# the choices, int reads an int and a string is the metavar of a free
# string.  A default of _REQUIRED makes the option required.
_REQUIRED = object()

_COMMON = {
    "format": (FORMATS, "dense", "wire format for matrix input and output"),
    "output": ("PATH", None, "write results to PATH instead of stdout"),
    "quiet": (None, False, "suppress yes/no answer lines; exit codes still carry them"),
}

_COMMANDS = {
    "check": (
        _cmd_check,
        "test a predicate, answering via the exit code",
        {"property": ("parseval", "orthogonal", "gram"), "file": None},
        {},
    ),
    "gram": (_cmd_gram, "Gram matrix of an analysis matrix", {"file": None}, {}),
    "factor": (_cmd_factor, "factor a symmetric idempotent matrix as theta theta*", {"file": None}, {}),
    "complement": (_cmd_complement, "complementary Parseval analysis matrix", {"file": None}, {}),
    "extend": (_cmd_extend, "extend orthonormal rows to an orthonormal basis", {"file": None}, {}),
    "reconstruct": (
        _cmd_reconstruct,
        "evaluate the frame expansion of a vector",
        {"file": None},
        {"x": ("BITS", _REQUIRED, "vector to expand, as dense bits like 1011")},
    ),
    "enum": (
        _cmd_enum,
        "exhaustive catalogs",
        {"kind": ("orthogonal", "cyclic")},
        {
            "k": (int, _REQUIRED, "k, the number of frame vectors"),
            "nonrepeating": (None, False, "cyclic only: restrict to repetition-free frames and factor them"),
        },
    ),
    "equiv": (
        _cmd_equiv,
        "equivalence tests, answering via the exit code",
        {"relation": ("switching", "perm"), "file1": None, "file2": None},
        {},
    ),
    "canon": (
        _cmd_canon,
        "canonical form under permutation equivalence",
        {"file": None},
        {"mode": ((MODE_INDEPENDENT, MODE_CONJUGATION), MODE_INDEPENDENT, "independent permutations, or one for both")},
    ),
}


def run(argv: list[str]) -> int:
    """Dispatch one invocation; returns the process exit code.

    A command returns its exit code and its output as chunks of text; only
    then does ``run`` open ``--output`` (or use stdout) and write them, so
    a refusal leaves an existing output file as it was and ``--output``
    may name the input.
    """
    args = None
    try:
        try:
            args = parse_args(argv)
            code, chunks = _COMMANDS[args.command][0](args)
        except _Help as e:
            code, chunks = 0, [str(e)]
        except (InvalidInput, NotSpanningError) as e:
            code, chunks = _negative(args, str(e))
        if args and args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:
            # the interpreter started with file descriptor 1 closed
            _say("error: standard output is closed" + ("; use --output PATH" if args else ""))
            return 2
        else:
            sys.stdout.writelines(chunks)
        return code
    except ParseError as e:
        where = f" at line {e.line}, column {e.column}" if e.line else ""
        _say(f"parse error{where}: {e}")
        return 2
    except OSError as e:
        _say(str(e))
        return 2
    except BinFrameError as e:
        _say(f"error: {e}")
        return 2
    except RuntimeError as e:  # a broken internal check must not read as a "no"
        _say(f"internal error: {e}")
        return 2


def main() -> None:
    """The ``binframe`` console command: ``run`` on ``sys.argv``, then exit.

    An exception that escapes ``run`` is a crash, reported as an internal
    error with exit 2, never as a negative answer.  The process leaves by
    ``os._exit`` once stdout and stderr are flushed, skipping interpreter
    teardown: ``run`` closes each file it opens, so nothing else
    holds output.  An output that cannot be flushed is exit 2.
    """
    try:
        code = run(sys.argv[1:])
    except Exception as e:
        _say(f"internal error: {type(e).__name__}: {e}")
        code = 2
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as e:
            _say(str(e))
            code = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
