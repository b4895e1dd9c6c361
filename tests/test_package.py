"""The package surface: the public names, the README's library example,
the Python version the sources need and CI's console-script step."""

import ast
import contextlib
import importlib.util
import io
import os
import re
import shutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import binframe
from binframe import catalog, cli, equiv, errors, formats, frames, gf2, gramfactor, naimark

ROOT = Path(__file__).resolve().parents[1]

# each public name with the module that defines it
PUBLIC = {
    catalog: (
        "CirculantGram",
        "NonRepeatingPair",
        "OrthogonalCatalog",
        "enum_cyclic_gram",
        "enum_nonrepeating",
        "enum_orthogonal",
    ),
    equiv: (
        "MODE_CONJUGATION",
        "MODE_INDEPENDENT",
        "CanonicalMatrix",
        "canonical_form",
        "permutation_equivalent",
        "switching_equivalent",
    ),
    errors: (
        "BinFrameError",
        "DimensionError",
        "ExtensionObstruction",
        "InvalidInput",
        "NotGramMatrix",
        "NotSpanningError",
        "ParseError",
        "ShapeError",
        "UnsupportedSize",
    ),
    frames: ("Frame", "gram", "is_orthogonal", "is_parseval", "reconstruct"),
    gf2: ("AffineSolutionSet", "BinMatrix", "BinVector", "solve"),
    gramfactor: ("Factorization", "GramCandidate", "factor_gram", "is_gram_of_parseval", "odd_columns"),
    naimark: (
        "OrthonormalSequence",
        "extend_to_basis",
        "has_naimark_complement",
        "is_extendable",
        "naimark_complement",
    ),
}


def test_public_names_are_exactly_the_forty():
    names = [name for group in PUBLIC.values() for name in group]
    assert len(names) == len(set(names)) == 40
    assert len(binframe.__all__) == len(set(binframe.__all__))
    assert set(binframe.__all__) == set(names)
    assert dir(binframe) == sorted(dir(binframe)) and set(names) < set(dir(binframe))


def test_public_names_are_the_defining_modules_objects():
    """Module names resolve too: here every submodule is already an
    attribute, so the package's ``__getattr__`` is called directly, and in
    a fresh child, where none is loaded, ``binframe.gf2`` goes through it."""
    for module, names in PUBLIC.items():
        for name in names:
            assert getattr(binframe, name) is getattr(module, name), name
        assert binframe.__getattr__(module.__name__.rpartition(".")[2]) is module
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, binframe; print(binframe.gf2.__name__, *sorted(m for m in sys.modules if m.startswith('binframe')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.split() == ["binframe.gf2", "binframe", "binframe.errors", "binframe.gf2"]


def test_every_annotation_resolves():
    """``typing.get_type_hints`` evaluates the string annotations (PEP 563)
    of every function and method in the package; a name an annotation
    uses but its module never imports fails here."""
    functions = []
    for module in (binframe, catalog, cli, equiv, errors, formats, frames, gf2, gramfactor, naimark):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__:
                for member in (obj, *(vars(obj).values() if isinstance(obj, type) else ())):
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if isinstance(member, types.FunctionType):
                        functions.append(member)
    unresolved = []
    for fn in functions:
        try:
            typing.get_type_hints(fn)
        except NameError as e:
            unresolved.append(f"{fn.__module__}.{fn.__qualname__}: {e}")
    assert len(functions) > 100 and unresolved == []


def test_removed_spellings_stay_removed():
    """Every method or attribute that README's version paragraphs list as
    removed is absent from its class."""
    removed = {
        gf2.BinVector: ("__xor__", "parity"),
        gf2.BinMatrix: ("entry", "row", "col_vectors", "from_cols"),
        gf2.AffineSolutionSet: ("is_consistent",),
        gramfactor.Factorization: ("k", "n"),
        frames.Frame: ("k", "n", "vectors", "synthesis", "from_vectors"),
        catalog.CirculantGram: ("matrix",),
        catalog.OrthogonalCatalog: ("column_sets",),
    }
    present = [f"{cls.__name__}.{name}" for cls, names in removed.items() for name in names if hasattr(cls, name)]
    assert present == []


def test_each_module_lists_its_public_names():
    for module, names in PUBLIC.items():
        assert sorted(module.__all__) == sorted(names), module.__name__


def test_errors_lists_its_nine_exception_classes():
    assert len(errors.__all__) == 9
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert isinstance(cls, type) and issubclass(cls, errors.BinFrameError), name
    public = {cls for cls in vars(errors).values() if isinstance(cls, type) and not cls.__name__.startswith("_")}
    assert public == {getattr(errors, name) for name in errors.__all__}


def test_witness_carrying_errors():
    for cls in (errors.ExtensionObstruction, errors.NotGramMatrix):
        e = cls("reason", witness=(0, 1))
        assert str(e) == "reason" and e.witness == (0, 1)
        assert cls("reason").witness is None


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    # the k=9 catalog (first row, rank), then theta of the (3,1) all-ones frame
    assert out.getvalue() == "100000000 9\n100100100 3\n111011011 7\n111111111 1\n1\n1\n1\n"


def test_sources_parse_as_python_3_10():
    """pyproject.toml requires Python >= 3.10: every source file parses
    with the 3.10 grammar, so no later syntax slips in unnoticed."""
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert any(p.parent.name == "bench" for p in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_package_and_pyproject_versions_agree():
    # a regex, not tomllib, which is new in Python 3.11
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^version = "(.*)"$', pyproject, re.M) == [binframe.__version__]


def test_every_import_in_src_is_read():
    """Every name a ``src/`` module imports is read somewhere in that
    module, as a name in its code or inside a string annotation."""
    unused = []
    for path in sorted((ROOT / "src" / "binframe").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        annotations = [node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))]
        annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        strings = [
            ast.parse(node.value, mode="eval")
            for annotation in annotations
            if annotation
            for node in ast.walk(annotation)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        ]
        read = {node.id for root in (tree, *strings) for node in ast.walk(root) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unused == []


def test_only_the_fill_and_the_record_base_leave_gf2_privately():
    """Outside ``gf2`` no module reads the solution-set form of
    ``_solutions`` and ``_impose``: the private names other modules import
    from ``gf2`` are ``_Record`` and ``_orthonormal_fill``.  ``gramfactor``
    gets the fill from ``gf2`` and does not import ``naimark``."""
    imports = {}  # module -> {(source module, name)}
    for path in sorted((ROOT / "src" / "binframe").glob("*.py")):
        pairs = imports[path.stem] = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module:
                pairs.update((node.module.rpartition(".")[2], alias.name) for alias in node.names)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # import binframe.naimark, from . import naimark
                pairs.update((alias.name.rpartition(".")[2], None) for alias in node.names)
    private = {
        name
        for module, pairs in imports.items()
        if module != "gf2"
        for source, name in pairs
        if source == "gf2" and name and name.startswith("_")
    }
    assert private == {"_Record", "_orthonormal_fill"}
    assert "naimark" not in {source for source, _ in imports["gramfactor"]}
    assert ("gf2", "_orthonormal_fill") in imports["gramfactor"] & imports["naimark"]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    importlib.import_module("binframe.cli")  # as bench/run.py does; it loads formats too
    return tracing


def test_bench_tracer_finds_every_hooked_name():
    """``bench/tracing.py`` wraps library functions and methods by name
    (``bench/run.py --trace 1``); removing or renaming one of them breaks
    ``install`` with a KeyError here, not only in a benchmark run."""
    tracing = _bench_tracing()
    solve = gf2.solve
    tracer = tracing.Tracer(binframe)
    try:
        tracer.install()
        assert gf2.solve is not solve
    finally:
        tracer.uninstall()
    assert gf2.solve is solve


def test_bench_tracer_runs_every_hook(tmp_path, capsys):
    """Each traced callable runs once under the tracer, through the CLI
    where a command reaches it, and the spans fold into the per-layer
    metrics: a hook's ``info`` that reads a renamed attribute fails here,
    not only in ``bench/run.py --trace 1``."""
    tracing = _bench_tracing()
    cli = binframe.cli

    def path(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    theta = path("theta.txt", "11\n11\n10\n01\n")
    commands = [
        (["check", "parseval", theta], 0),
        (["gram", theta], 0),
        (["factor", path("i3.txt", "100\n010\n001\n")], 0),
        (["complement", theta], 0),
        (["extend", path("seed.txt", "1110000\n0001000\n")], 0),
        (["enum", "cyclic", "--k", "7"], 0),
        (["enum", "cyclic", "--k", "7", "--nonrepeating"], 0),
        (["enum", "orthogonal", "--k", "3"], 0),
        (["canon", theta], 0),
        (["equiv", "perm", theta, theta], 0),
        (["equiv", "switching", theta, theta], 0),
    ]
    tracer = tracing.Tracer(binframe)
    try:
        tracer.install()
        for argv, code in commands:
            assert cli.run(argv) == code, argv
        assert len(list(gf2.solve(gf2.BinMatrix.identity(2), gf2.BinVector(2, 1)))) == 1
    finally:
        tracer.uninstall()
    capsys.readouterr()
    spans, yielded = tracer.take()
    assert {span[0] for span in spans} == {name for name, *_ in tracing._functions(binframe)}
    metrics = tracing.summarize(spans, yielded)
    assert metrics["catalog.entries"] > 0 and metrics["gf2.solutions.yielded"] == 1


@pytest.mark.skipif(shutil.which("bash") is None, reason="the CI step is a bash script")
def test_ci_console_script_step_runs(tmp_path):
    """The workflow's "Installed binframe command" step, run here with
    ``binframe`` as a shell function over ``python -m binframe.cli`` in
    place of the installed command, under the shell options GitHub
    Actions gives a bash ``run`` step: every line of it must succeed."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8").splitlines()
    start = workflow.index("      - name: Installed binframe command") + 1
    assert workflow[start].strip() == "run: |"
    step = []
    for line in workflow[start + 1 :]:
        if line.strip() and not line.startswith(" " * 10):
            break
        step.append(line[10:])
    assert step[0] == "python -m pip install ." and len(step) > 20
    script = tmp_path / "step.sh"
    script.write_text(f'binframe() {{ "{sys.executable}" -m binframe.cli "$@"; }}\n' + "\n".join(step[1:]) + "\n")
    env = {
        **os.environ,
        "PATH": os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")]),
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
