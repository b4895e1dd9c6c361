"""In-process tracing of binframe's public functions, from outside.

``Tracer.install`` replaces every reference to each traced function
object across the ``binframe.*`` module namespaces (``cli.factor_gram``,
``gramfactor.solve`` and ``naimark.solve`` are all the same ``solve``),
plus a few methods on the classes, so nested calls see their parent span.
Spans stay in memory as lists ``[name, start, end, parent, job, info]``
and ``summarize`` folds one pass of them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from statistics import median

LAYERS = ("catalog", "gf2", "gramfactor", "naimark", "frames", "formats", "cli", "equiv")


def _functions(bf):
    """(span name, owner, attribute, info) for every traced callable.

    ``info(args, result)`` records what the metrics need beyond timing:
    sizes, rows, bytes and entries.
    """
    gf2, gramfactor = bf.gf2, bf.gramfactor
    return [
        ("catalog.enum_cyclic_gram", bf.catalog, "enum_cyclic_gram", lambda a, r: {"k": a[0], "entries": len(r)}),
        ("catalog.enum_nonrepeating", bf.catalog, "enum_nonrepeating", lambda a, r: {"k": a[0], "entries": len(r)}),
        ("catalog.enum_orthogonal", bf.catalog, "enum_orthogonal", lambda a, r: {"k": a[0], "entries": len(r.classes)}),
        ("gf2.solve", gf2, "solve", lambda a, r: {"rows": a[0].rows}),
        ("gf2.matmul", gf2.BinMatrix, "__matmul__", lambda a, r: {"shape": [a[0].rows, a[0].cols, a[1].cols]}),
        ("gf2.transpose", gf2.BinMatrix, "transpose", None),
        ("gf2.rank", gf2.BinMatrix, "rank", lambda a, r: {"shape": list(a[0].shape)}),
        ("gramfactor.GramCandidate", gramfactor.GramCandidate, "__post_init__", None),
        ("gramfactor.factor_gram", gramfactor, "factor_gram", lambda a, r: {"k": a[0].k, "columns": r.theta.cols}),
        ("naimark.extend_to_basis", bf.naimark, "extend_to_basis", lambda a, r: {"k": a[0].dim, "added": len(r) - len(a[0])}),
        ("naimark.naimark_complement", bf.naimark, "naimark_complement", lambda a, r: {"k": a[0].rows}),
        ("frames.is_parseval", bf.frames, "is_parseval", None),
        ("frames.gram", bf.frames, "gram", None),
        ("formats.parse_matrix", bf.formats, "parse_matrix", lambda a, r: {"bytes": len(a[0])}),
        ("formats.render_matrix", bf.formats, "render_matrix", lambda a, r: {"bytes": len(r)}),
        ("cli.run", bf.cli, "run", None),
        ("equiv.canonical_form", bf.equiv, "canonical_form", lambda a, r: {"shape": list(a[0].shape), "mode": a[1]}),
        ("equiv.switching_equivalent", bf.equiv, "switching_equivalent", None),
        ("equiv.permutation_equivalent", bf.equiv, "permutation_equivalent", None),
    ]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.yielded = 0
        self.job: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[5] = info(args, result)
            return result

        return traced

    def _iter_solutions(self, fn):
        @functools.wraps(fn)
        def counted(solutions):
            for member in fn(solutions):
                self.yielded += 1
                yield member

        return counted

    def _replace(self, owner, attr, new) -> None:
        old = owner.__dict__[attr]
        if isinstance(owner, type):
            targets = [owner]
        else:
            # every module-level alias of the same function object
            targets = [
                mod
                for modname, mod in list(sys.modules.items())
                if modname.split(".")[0] == self.package.__name__ and mod is not None
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is old:
                    self._undo.append((target, key, value))
                    setattr(target, key, new)

    def install(self) -> None:
        for name, owner, attr, info in _functions(self.package):
            self._replace(owner, attr, self._wrap(name, owner.__dict__[attr], info))
        solutions = self.package.gf2.AffineSolutionSet
        self._replace(solutions, "__iter__", self._iter_solutions(solutions.__dict__["__iter__"]))

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            setattr(target, key, value)

    def take(self) -> tuple[list[list], int]:
        """Spans and solution count recorded since the last take."""
        spans, yielded = list(self.spans), self.yielded
        self.spans.clear()
        self.yielded = 0
        return spans, yielded


TIMED = {
    "catalog.enum_cyclic_gram": ("calls", "s", "self_s"),
    "catalog.enum_nonrepeating": ("s", "self_s"),
    "catalog.enum_orthogonal": ("s",),
    "gf2.solve": ("calls", "s"),
    "gf2.matmul": ("calls", "s"),
    "gf2.transpose": ("calls", "s"),
    "gf2.rank": ("calls", "s"),
    "gramfactor.GramCandidate": ("s",),
    "gramfactor.factor_gram": ("calls", "s", "self_s"),
    "naimark.extend_to_basis": ("calls", "s", "self_s"),
    "naimark.naimark_complement": ("s",),
    "frames.is_parseval": ("s",),
    "frames.gram": ("s",),
    "formats.parse_matrix": ("s",),
    "formats.render_matrix": ("s",),
    "cli.run": ("s", "self_s"),
    "equiv.canonical_form": ("calls", "s", "self_s"),
    "equiv.switching_equivalent": ("s", "self_s"),
    "equiv.permutation_equivalent": ("s", "self_s"),
}


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def summarize(spans: list[list], yielded: int) -> dict[str, float]:
    """Per-layer metrics of one pass.

    ``s`` sums the spans not nested in a span of the same name (or, for a
    layer total, of the same layer), so recursion and re-entry count
    once; ``self_s`` sums each span's duration minus its direct children.
    """
    children = defaultdict(float)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] += end - start

    def outermost(i: int, same) -> bool:
        p = spans[i][3]
        while p is not None:
            if same(spans[p][0]):
                return False
            p = spans[p][3]
        return True

    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _, _) in enumerate(spans):
        layer = name.split(".")[0]
        for key, same in ((name, name.__eq__), (layer, lambda other, layer=layer: other.split(".")[0] == layer)):
            entry = stats[key]
            entry["calls"] += 1
            entry["self_s"] += end - start - children[i]
            if outermost(i, same):
                entry["s"] += end - start

    out: dict[str, float] = {}
    for name, fields in TIMED.items():
        for field in fields:
            out[f"{name}.{field}"] = stats[name][field]
    for layer in LAYERS:
        for field in ("calls", "s", "self_s"):
            out[f"{layer}.{field}"] = stats[layer][field]

    def info_sum(name: str, key: str, only=lambda i: True) -> int:
        return sum(s[5][key] for i, s in enumerate(spans) if s[0] == name and s[5] and only(i))

    def solves_under(name: str) -> int:
        def nearest(i: int) -> bool:
            p = spans[i][3]
            return p is not None and spans[p][0] == name

        return sum(1 for i, s in enumerate(spans) if s[0] == "gf2.solve" and nearest(i))

    top_catalog = lambda i: outermost(i, lambda other: other.startswith("catalog."))  # noqa: E731
    out["catalog.entries"] = sum(info_sum(n, "entries", top_catalog) for n in TIMED if n.startswith("catalog."))
    out["gf2.solve.rows"] = info_sum("gf2.solve", "rows")
    out["gf2.solutions.yielded"] = yielded
    out["gf2.solutions.useful_ratio"] = _ratio(stats["gf2.solve"]["calls"], yielded)
    out["gramfactor.solves_per_column"] = _ratio(solves_under("gramfactor.factor_gram"), info_sum("gramfactor.factor_gram", "columns"))
    out["naimark.solves_per_vector"] = _ratio(solves_under("naimark.extend_to_basis"), info_sum("naimark.extend_to_basis", "added"))
    out["formats.bytes"] = info_sum("formats.parse_matrix", "bytes") + info_sum("formats.render_matrix", "bytes")
    out["cli.matmul_calls"] = sum(1 for s in spans if s[0] == "gf2.matmul" and s[3] is not None and spans[s[3]][0] == "cli.run")
    return out


COUNTS = (
    [f"{n}.calls" for n, fields in TIMED.items() if "calls" in fields]
    + [f"{layer}.calls" for layer in LAYERS]
    + ["catalog.entries", "gf2.solve.rows", "gf2.solutions.yielded", "cli.matmul_calls", "formats.bytes"]
)

# ROADMAP baseline (Python 3.11.7, 2 cores, single runs): span name, size key, size, seconds.
BASELINE = [
    ("catalog.enum_cyclic_gram", "k", 20, 0.005),
    ("catalog.enum_cyclic_gram", "k", 28, 0.11),
    ("catalog.enum_cyclic_gram", "k", 32, 0.53),
    ("gramfactor.factor_gram", "k", 64, 0.014),
    ("gramfactor.factor_gram", "k", 128, 0.10),
    ("gramfactor.factor_gram", "k", 256, 0.75),
    ("naimark.naimark_complement", "k", 64, 0.012),
    ("naimark.naimark_complement", "k", 128, 0.064),
    ("naimark.naimark_complement", "k", 256, 0.50),
    ("gf2.matmul", "shape", [256, 256, 256], 0.019),
    ("equiv.canonical_form", "shape", [8, 8], 0.28),
]


def baseline_table(passes: list[list[list]]) -> list[dict]:
    """Median traced duration of each ROADMAP baseline row the workload
    ran, next to the ROADMAP figure; ``flag`` marks a 2x difference."""
    rows = []
    for name, key, size, roadmap in BASELINE:
        durations = [
            end - start
            for spans in passes
            for span_name, start, end, _, _, info in spans
            if span_name == name and info and info.get(key) == size
        ]
        if not durations:
            continue
        measured = median(durations)
        ratio = measured / roadmap
        rows.append(
            {"what": name, key: size, "samples": len(durations), "measured_s": measured, "roadmap_s": roadmap, "ratio": ratio, "flag": not 0.5 <= ratio <= 2}
        )
    return rows
