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

import sys
from types import SimpleNamespace

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
from .formats import FORMATS, json_line, matrix_doc, parse_matrix, parse_vector, render_matrix
from .gf2 import BinMatrix
from .gramfactor import GramCandidate, factor_gram, is_gram_of_parseval
from .naimark import OrthonormalSequence, extend_to_basis, naimark_complement

# Annotations stay strings (PEP 563), so ``typing.TextIO`` below never
# imports ``typing``.

PROG = "binframe"


class _UsageError(Exception):
    pass


class _Help(Exception):
    """``-h``/``--help``: the message is the help text."""


def _option(arg: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """Classify one argument: ``(name, explicit value)`` for an option
    (names match by unique prefix, and ``--name=value`` carries its
    value), ``(None, None)`` for an unknown option and None for a
    positional, such as ``-``, ``-5`` or ``-a b``."""
    if arg[:1] != "-" or len(arg) == 1:
        return None
    if arg[1] == "-":
        key, eq, value = arg[2:].partition("=")
        found = (key,) if key in names else tuple(n for n in names if n.startswith(key))
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {arg} could match {', '.join('--' + n for n in found)}")
        if found:
            return found[0], value if eq else None
    elif arg[1] == "h":
        return "help", arg[3:] if arg[2:3] == "=" else arg[2:] or None
    # a negative number, r"^-\d+$|^-\d*\.\d+$" (where $ also matches
    # before a final newline), or an argument with a space is positional
    whole, dot, frac = (arg[1:-1] if arg[-1] == "\n" else arg[1:]).partition(".")
    if (whole.isdecimal() and not dot) or (frac.isdecimal() and (not whole or whole.isdecimal())) or " " in arg:
        return None
    return None, None


def _flag(name: str, explicit: str | None) -> None:
    if explicit is not None:
        label = "-h/--help" if name == "help" else "--" + name
        raise _UsageError(f"argument {label}: ignored explicit argument {explicit!r}")


def _value(label: str, text: str, kind):
    """``text`` as the value of a positional or option of the given kind."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _UsageError(f"argument {label}: invalid int value: {text!r}") from None
    if isinstance(kind, tuple) and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise _UsageError(f"argument {label}: invalid choice: {text!r} (choose from {choices})")
    return text


def _parse_command(command: str, argv: list[str]) -> tuple[dict, list[str]]:
    """The arguments of one command and the arguments left unrecognized."""
    _, _, positionals, own = _COMMANDS[command]
    options = {**_COMMON, **own}
    names = ("help", *options)
    ns = {"command": command, **dict.fromkeys(positionals), **{n: spec[1] for n, spec in options.items()}}
    # every argument before the first "--" is classified before any is
    # used; the "--" goes, and everything after it is positional
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(arg, names) for arg in argv[:end]]
    argv = argv[:end] + argv[end + 1 :]
    kinds += [None] * (len(argv) - end)
    todo = list(positionals.items())
    extras = []
    i = 0
    while i < len(argv):
        arg, opt = argv[i], kinds[i]
        i += 1
        if opt is None:
            if todo:
                name, kind = todo.pop(0)
                ns[name] = _value(name, arg, kind)
            else:
                extras.append(arg)
            continue
        name, explicit = opt
        if name is None:
            extras.append(arg)
        elif name == "help":
            _flag(name, explicit)
            raise _Help(_help(command))
        elif options[name][0] is None:
            _flag(name, explicit)
            ns[name] = True
        else:
            if explicit is None:
                if i >= end or kinds[i] is not None:
                    raise _UsageError(f"argument --{name}: expected one argument")
                explicit = argv[i]
                i += 1
            ns[name] = _value("--" + name, explicit, options[name][0])
    missing = [name for name, _ in todo] + ["--" + n for n in own if ns[n] is _REQUIRED]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return ns, extras


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The arguments of one invocation as a namespace.

    Options and positionals mix in any order, ``--`` ends the options and
    a repeated option keeps its last value.  Raises ``_UsageError`` for a
    refused argv and ``_Help`` for ``-h``/``--help``.  Everything after
    the command word belongs to the command.
    """
    extras = []
    for i, arg in enumerate(argv):
        opt = None if arg == "--" else _option(arg, ("help",))
        if opt is None:
            if argv[i:] == ["--"]:  # a "--" is the command word unless it is last
                break
            ns, more = _parse_command(_value("command", arg, tuple(_COMMANDS)), argv[i + 1 :])
            extras += more
            if extras:
                raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
            return SimpleNamespace(**ns)
        if opt[0] is None:
            extras.append(arg)
            continue
        _flag("help", opt[1])
        raise _Help(_help(None))
    raise _UsageError("the following arguments are required: command")


def _form(name: str, kind, option: bool) -> str:
    """How a positional or an option reads in usage text."""
    if option and kind is None:
        return "--" + name
    if isinstance(kind, tuple):
        value = "{" + ",".join(kind) + "}"
    else:
        value = kind if isinstance(kind, str) else name.upper() if kind is int else name
    return f"--{name} {value}" if option else value


def _help(command: str | None) -> str:
    """The usage text of one command, or of the whole CLI for None."""
    if command is None:
        width = max(map(len, _COMMANDS))
        head = [f"usage: {PROG} [-h] {{{','.join(_COMMANDS)}}} ...", "", "Binary Parseval frame toolkit over GF(2).", ""]
        head += ["commands:", *(f"  {name:<{width}}  {spec[1]}" for name, spec in _COMMANDS.items()), ""]
        options = {}
    else:
        _, about, positionals, own = _COMMANDS[command]
        options = {**_COMMON, **own}
        usage = [f"usage: {PROG} {command} [-h]"]
        for name, (kind, default, _) in options.items():
            form = _form(name, kind, True)
            usage.append(form if default is _REQUIRED else f"[{form}]")
        usage += [_form(name, kind, False) for name, kind in positionals.items()]
        head = [" ".join(usage), "", about, ""]
    lines = [*head, "options:", "  -h, --help", "      show this help message and exit"]
    for name, (kind, _, note) in options.items():
        lines += [f"  {_form(name, kind, True)}", f"      {note}"]
    return "\n".join(lines) + "\n"


def _load_matrix(path: str, fmt: str) -> BinMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read(), fmt)


class _Negative(Exception):
    """A well-posed question with answer no; carries the witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(reason)
        self.reason = reason
        self.witness = witness


def _emit_negative(neg: _Negative, args, out: typing.TextIO) -> int:
    if args.format == "json":
        doc = {"ok": False, "reason": neg.reason}
        if neg.witness is not None:
            doc["witness"] = neg.witness
        out.write(json_line(doc))
    if not args.quiet:
        print(f"{PROG}: no: {neg.reason}", file=sys.stderr)
    return 1


def _answer(args, out: typing.TextIO, name: str, value: bool, reason: str | None = None) -> int:
    if args.format == "json":
        doc: dict = {name: value}
        if reason is not None:
            doc["witness"] = reason
        out.write(json_line(doc))
    elif not args.quiet:
        line = f"{name}: {'yes' if value else 'no'}"
        if reason is not None and not value:
            line += f" ({reason})"
        out.write(line + "\n")
    return 0 if value else 1


def _emit_matrix(args, out: typing.TextIO, m: BinMatrix, name: str, **extra) -> int:
    """``m`` in ``--format``; in JSON, under ``name`` followed by ``extra``."""
    if args.format == "json":
        out.write(json_line({name: matrix_doc(m), **extra}))
    else:
        out.write(render_matrix(m, args.format))
    return 0


def _cmd_check(args, out: typing.TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    if args.property == "parseval":
        return _answer(args, out, "parseval", is_parseval(m))
    try:
        if args.property == "orthogonal":
            return _answer(args, out, "orthogonal", is_orthogonal(m))
        ok = is_gram_of_parseval(GramCandidate(m))
    except (InvalidInput, ShapeError) as e:
        return _answer(args, out, args.property, False, reason=str(e))
    return _answer(args, out, "gram", ok, reason=None if ok else "all columns even")


def _cmd_gram(args, out: typing.TextIO) -> int:
    out.write(render_matrix(gram(_load_matrix(args.file, args.format)), args.format))
    return 0


def _cmd_factor(args, out: typing.TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    try:
        cand = GramCandidate(m)
    except (InvalidInput, ShapeError) as e:
        raise _Negative(f"not a Gram matrix: {e}") from e
    try:
        theta = factor_gram(cand).theta
    except NotGramMatrix as e:
        raise _Negative("not a Gram matrix: all columns even", witness=list(e.witness)) from e
    # factor_gram returns only a factorization it has checked
    return _emit_matrix(args, out, theta, "theta", theta_star_theta_is_identity=True, reproduces_gram=True)


def _cmd_complement(args, out: typing.TextIO) -> int:
    theta = _load_matrix(args.file, args.format)
    try:
        psi = naimark_complement(theta)
    except ExtensionObstruction as e:
        raise _Negative("no complement: every frame vector is odd", witness=e.witness.to_bitstring()) from e
    # naimark_complement returns only a complement it has checked
    return _emit_matrix(args, out, psi, "psi", gram_sum_is_identity=True, block_is_orthogonal=True)


def _cmd_extend(args, out: typing.TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    try:
        seq = OrthonormalSequence(m.cols, m.row_vectors())
        ext = extend_to_basis(seq)
    except InvalidInput as e:
        raise _Negative(f"rows are not orthonormal: {e}") from e
    except ExtensionObstruction as e:
        raise _Negative("not extendable: rows sum to the all-ones vector", witness=e.witness.to_bitstring()) from e
    out.write(render_matrix(BinMatrix.from_rows(ext.vecs), args.format))
    return 0


def _cmd_reconstruct(args, out: typing.TextIO) -> int:
    frame = Frame.from_analysis(_load_matrix(args.file, args.format))
    x = parse_vector(args.x)
    y = reconstruct(x, frame)
    if args.format == "json":
        doc = {"x": x.to_bitstring(), "reconstruction": y.to_bitstring(), "equal": y == x}
        out.write(json_line(doc))
    else:
        out.write(y.to_bitstring() + "\n")
    return 0


def _cmd_enum(args, out: typing.TextIO) -> int:
    if args.kind == "orthogonal":
        if args.nonrepeating:
            raise _UsageError("--nonrepeating applies to `enum cyclic` only")
        catalog = cat.enum_orthogonal(args.k)
        for m, cols in zip(catalog.classes, catalog.column_sets()):
            if args.format == "cols-int":
                out.write(" ".join(map(str, cols)) + "\n")
            elif args.format == "json":
                out.write(json_line({"k": args.k, "columns": list(cols)}))
            else:
                out.write(render_matrix(m, "dense") + "\n")
        return 0
    if args.nonrepeating:
        for pair in cat.enum_nonrepeating(args.k):
            row = pair.gram.first_row
            if args.format == "cols-int":
                cols = " ".join(map(str, pair.theta.transpose().data))
                out.write(f"{row.bits} {cols}\n")
            elif args.format == "json":
                doc = {
                    "k": pair.gram.k,
                    "n": pair.gram.rank,
                    "gram_first_row": row.to_bitstring(),
                    "theta": pair.theta.to_bitstring_rows(),
                }
                out.write(json_line(doc))
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
            out.write(json_line(doc))
        else:
            out.write(cg.first_row.to_bitstring() + "\n")
    return 0


def _cmd_equiv(args, out: typing.TextIO) -> int:
    a = _load_matrix(args.file1, args.format)
    b = _load_matrix(args.file2, args.format)
    if args.relation == "perm":
        return _answer(args, out, "permutation-equivalent", permutation_equivalent(a, b))
    fa, fb = Frame.from_analysis(a), Frame.from_analysis(b)
    return _answer(args, out, "switching-equivalent", switching_equivalent(fa, fb))


def _cmd_canon(args, out: typing.TextIO) -> int:
    m = _load_matrix(args.file, args.format)
    result = canonical_form(m, args.mode)
    row_perm, col_perm = list(result.row_perm), list(result.col_perm)
    return _emit_matrix(args, out, result.matrix, "matrix", row_perm=row_perm, col_perm=col_perm)


# The command line as one table, which drives parsing and help.  A command
# maps to its handler, its one-line help, its positionals (name -> a tuple
# of choices, or None for any string) and its own options; every command
# also takes the _COMMON options.  An option maps name -> (kind, default,
# help): kind None is a flag, a tuple lists the choices, int reads an int
# and a string is the metavar of a free string.  A default of _REQUIRED
# makes the option required.
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
    """Dispatch one invocation; returns the process exit code."""
    try:
        args = parse_args(argv)
    except _Help as e:
        sys.stdout.write(str(e))
        return 0
    except _UsageError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2

    out: typing.TextIO = sys.stdout
    opened = False
    try:
        if args.output:
            out = open(args.output, "w", encoding="utf-8")
            opened = True
        return _COMMANDS[args.command][0](args, out)
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
