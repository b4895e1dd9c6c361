"""Benchmark of the binframe CLI, end to end and layer by layer.

Run from the root of a checkout (stdlib only; the program is imported
from ``src/``):

    python3 bench/run.py --workload construct --seed 3 --seconds 32 --trace 0
    python3 bench/run.py --smoke             # every job type at tiny sizes, plus a checker self-check
    python3 bench/run.py --record-digests    # re-record bench/digests.json at the default seed

``--trace 0`` runs each job of the workload as a CLI subprocess, one at a
time (a closed loop with one client), and reports the end-to-end metrics.
``--trace 1`` runs the same jobs in-process through ``binframe.cli.run``,
alternating untraced and traced passes, and reports the per-layer
metrics.  Either way one untimed warm-up pass compiles bytecode and has
every output checked by definition; timed passes must reproduce the
checked bytes and exit codes.  The last line of stdout is the result
object; details (samples, environment, failures, spans, the ROADMAP
baseline table) go to ``.bench_out/`` and stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import tracing
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SAMPLES_PER_GAP = 3
# A fixed reference job that never imports binframe: a child interpreter
# doing the bit-packed int work binframe does.  The host's speed swings by
# up to ~40% over minutes and moves CLI jobs and this job alike, so pass
# times divided by the reference time sampled around them stay steady.
REFERENCE = (
    "r = [((1 << 256) // 3) * k for k in range(1, 257)]\n"
    "x = 0\n"
    "for _ in range(30):\n"
    "    for a in r:\n"
    "        for b in r[:64]:\n"
    "            x ^= (a & b).bit_count() & 1\n"
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sample_summary(values: list[float]) -> dict:
    """Median, count and the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"median": _median(values), "samples": n, "highest_supported_percentile": None}
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out["highest_supported_percentile"] = pct
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Outcomes:
    """Jobs attempted and failed, with the reasons for the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job: workloads.Job, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{job.name}: {error}")


def verify(job: workloads.Job, code: int, out: bytes | None, outputs: dict) -> str | None:
    """The full check of one job: exit code, then the output by definition."""
    if code != job.expect:
        return f"exit code {code}, expected {job.expect}"
    if out is None:
        return "no output file"
    try:
        job.check(out.decode("utf-8"), outputs)
    except check.CheckError as e:
        return f"check failed: {e}"
    except (ValueError, TypeError, KeyError, IndexError) as e:  # malformed output the checks did not anticipate
        return f"unreadable output: {type(e).__name__}: {e}"
    return None


class Bench:
    """One workload's jobs, their checked warm-up outputs and the counts."""

    def __init__(self, root: Path, workload: str, seed: int, workdir: Path, small: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.small = small
        inputs = workdir / "in"
        inputs.mkdir()
        self.jobs = workloads.build(workload, seed, inputs, root / "tests" / "data", small)
        self.outcomes = Outcomes()
        self.verified: dict[str, bytes] = {}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        # the pool size must not come from the caller's environment
        self.env.pop("BINFRAME_JOBS", None)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def out_path(self, job: workloads.Job) -> Path:
        return self.workdir / f"{job.name}.out"

    def _read(self, job: workloads.Job) -> bytes | None:
        try:
            return self.out_path(job).read_bytes()
        except FileNotFoundError:
            return None

    # -- executing one job ----------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float]:
        """Run one CLI child; exit code, wall s, user+sys CPU s, max RSS MB."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def run_child(self, job: workloads.Job) -> tuple[int, bytes | None, tuple[float, float, float]]:
        self.out_path(job).unlink(missing_ok=True)
        code, wall, cpu, rss = self.spawn(["-m", "binframe.cli", *job.argv, "--output", str(self.out_path(job))])
        return code, self._read(job), (wall, cpu, rss)

    def run_inprocess(self, job: workloads.Job, cli) -> tuple[int, bytes | None, float]:
        self.out_path(job).unlink(missing_ok=True)
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.run([*job.argv, "--output", str(self.out_path(job))])
            except Exception as e:  # a crash is a failed job, not a failed benchmark
                print(f"{job.name}: {type(e).__name__}: {e}", file=sys.stderr)
                code = -1
        return code, self._read(job), time.perf_counter() - start

    # -- passes -------------------------------------------------------------

    def recorded_digests(self) -> dict[str, str]:
        """Output digests to hold this run to: recorded ones at the default seed."""
        if self.small or self.seed != DEFAULT_SEED or not DIGESTS.exists():
            return {}
        return json.loads(DIGESTS.read_text())["workloads"].get(self.workload, {})

    def warm_up(self, execute, digests: dict[str, str]) -> None:
        """Untimed pass: check every output by definition, and against
        ``digests`` where they name the job."""
        outputs: dict[str, str] = {}
        for job in self.jobs:
            code, out = execute(job)[:2]
            error = verify(job, code, out, outputs)
            if out is not None:
                outputs[job.name] = out.decode("utf-8", "replace")
            if error is None and job.name in digests and hashlib.sha256(out).hexdigest() != digests[job.name]:
                error = "output bytes differ from bench/digests.json"
            if error is None:
                self.verified[job.name] = out
            self.outcomes.record(job, error)

    def timed_pass(self, execute) -> list:
        """One pass; each job must reproduce its checked warm-up output."""
        stats = []
        for job in self.jobs:
            code, out, stat = execute(job)
            same = code == job.expect and out is not None and out == self.verified.get(job.name)
            self.outcomes.record(job, None if same else "exit code or output differs from the checked warm-up run")
            stats.append(stat)
        return stats

    def setup_sample(self) -> float:
        code, wall, _, _ = self.spawn(["-c", "import binframe.cli"])
        if code != 0:
            raise RuntimeError("`import binframe.cli` failed in a child process")
        return wall

    def reference_sample(self) -> tuple[float, float]:
        code, wall, cpu, _ = self.spawn(["-c", REFERENCE])
        if code != 0:
            raise RuntimeError("the reference job failed")
        return wall, cpu


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Timed subprocess passes.  Between passes (and before the first) the
    set-up and reference jobs are sampled; each pass is divided by the
    median reference sample of the gaps on either side of it."""
    bench.warm_up(bench.run_child, bench.recorded_digests())
    setup: list[float] = []
    gaps: list[list[tuple[float, float]]] = []

    def gap() -> None:
        setup.extend(bench.setup_sample() for _ in range(SAMPLES_PER_GAP))
        gaps.append([bench.reference_sample() for _ in range(SAMPLES_PER_GAP)])

    gap()
    walls, cpus, rss, per_job = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    # start a pass only if it should end within the measuring time
    while not walls or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        stats = bench.timed_pass(bench.run_child)
        per_job.append([s[0] for s in stats])
        walls.append(sum(s[0] for s in stats))
        cpus.append(sum(s[1] for s in stats))
        rss.append(max(s[2] for s in stats))
        gap()
        last = time.perf_counter() - began
    around = [gaps[i] + gaps[i + 1] for i in range(len(walls))]
    wall_rel = [w / _median([r[0] for r in refs]) for w, refs in zip(walls, around)]
    cpu_rel = [c / _median([r[1] for r in refs]) for c, refs in zip(cpus, around)]
    metrics = {"wall_rel": _median(wall_rel), "cpu_rel": _median(cpu_rel), "setup_s": _median(setup), "peak_rss_mb": _median(rss)}
    detail = {name: _sample_summary(values) for name, values in (("wall_rel", wall_rel), ("cpu_rel", cpu_rel), ("setup_s", setup), ("peak_rss_mb", rss))}
    detail["wall_s"] = _sample_summary(walls)
    detail["cpu_s"] = _sample_summary(cpus)
    detail["reference_wall_s"] = _sample_summary([r[0] for refs in gaps for r in refs])
    detail["job_wall_s"] = {job.name: _median(list(times)) for job, times in zip(bench.jobs, zip(*per_job))}
    return metrics, detail


def _import_program(root: Path):
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import binframe
    import binframe.cli

    if Path(binframe.__file__).resolve().parent != (root / "src" / "binframe").resolve():
        raise RuntimeError(f"imported binframe from {binframe.__file__}, not from {src}")
    return binframe


def traced(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    """Alternate untraced and traced in-process passes, at least two of
    each; per-layer metrics are medians over traced passes, and counts must
    repeat exactly between them."""
    bf = _import_program(bench.root)
    os.environ.pop("BINFRAME_JOBS", None)
    tracer = tracing.Tracer(bf)

    def execute(job):
        tracer.job = job.name
        return bench.run_inprocess(job, bf.cli)

    bench.warm_up(execute, bench.recorded_digests())
    plain, timed, summaries, span_passes = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while len(timed) < 2 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        plain.append(sum(bench.timed_pass(execute)))
        tracer.install()
        try:
            timed.append(sum(bench.timed_pass(execute)))
        finally:
            tracer.uninstall()
        spans, yielded = tracer.take()
        span_passes.append(spans)
        summaries.append(tracing.summarize(spans, yielded))
        last = time.perf_counter() - began
    metrics = {name: _median([s[name] for s in summaries]) for name in summaries[0]}
    metrics["trace.overhead_ratio"] = _median(timed) / _median(plain)
    unsteady = sorted(name for name in tracing.COUNTS if len({s[name] for s in summaries}) > 1)
    detail = {
        "traced_passes": len(timed),
        "traced_pass_s": _sample_summary(timed),
        "untraced_pass_s": _sample_summary(plain),
        "counts_repeat": not unsteady,
        "counts_that_differ": unsteady,
        "baseline": tracing.baseline_table(span_passes),
    }
    return metrics, detail, span_passes


def _units(root: Path, section: str) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(root: Path, workload: str, seed: int, seconds: float, with_trace: bool, small: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns the result object and the details."""
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=out_dir))
    try:
        bench = Bench(root, workload, seed, workdir, small)
        if with_trace:
            values, detail, span_passes = traced(bench, seconds)
            units = _units(root, "per_layer")
        else:
            values, detail = end_to_end(bench, seconds)
            span_passes = []
            units = _units(root, "end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatch = sorted(set(units) ^ set(values))
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {mismatch}")
    outcomes = bench.outcomes
    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail.update(
        workload=workload,
        seed=seed,
        trace=int(with_trace),
        jobs=[job.name for job in bench.jobs],
        fail_ratio={"value": outcomes.failed / outcomes.attempted, "failed": outcomes.failed, "attempted": outcomes.attempted},
        failures=outcomes.reasons,
        environment=environment(root),
    )
    if not small:
        stem = f"{workload}-seed{seed}-trace{int(with_trace)}"
        (out_dir / f"result-{stem}.json").write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
        if span_passes:
            with open(out_dir / f"spans-{stem}.jsonl", "w") as fh:
                for number, spans in enumerate(span_passes):
                    for i, (name, start, end, parent, job, info) in enumerate(spans):
                        fh.write(json.dumps({"pass": number, "id": i, "name": name, "start": start, "end": end, "parent": parent, "job": job, "info": info}) + "\n")
    return result, detail


def _report(result: dict, detail: dict) -> None:
    for reason in detail["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    for row in detail.get("baseline", []):
        size = row.get("k", row.get("shape"))
        flag = "  <-- differs by more than 2x" if row["flag"] else ""
        print(
            f"baseline {row['what']} {size}: {row['measured_s']:.4f} s traced vs {row['roadmap_s']} s in ROADMAP (x{row['ratio']:.2f}){flag}",
            file=sys.stderr,
        )


def self_check(root: Path) -> list[str]:
    """Feed the checker one corrupted output and one wrong exit code; both
    must count as failures.  Returns the problems found."""
    problems = []
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
        bench = Bench(root, "construct", DEFAULT_SEED, Path(tmp), small=True)
        job = bench.jobs[0]
        code, out, _ = bench.run_child(job)
        if verify(job, code, out, {}) is not None:
            problems.append(f"{job.name} failed its own check")
        corrupted = bytearray(out or b"0")
        corrupted[0] ^= ord("0") ^ ord("1")  # flip the first entry
        if verify(job, code, bytes(corrupted), {}) is None:
            problems.append("a corrupted output passed the check")
        if verify(job, 1 - code, out, {}) is None:
            problems.append("a wrong exit code passed the check")
    return problems


def smoke(root: Path) -> int:
    """Every workload at tiny sizes through both runners, then the
    checker self-check."""
    problems = []
    for workload in workloads.WORKLOADS:
        for with_trace in (False, True):
            result, detail = measure(root, workload, DEFAULT_SEED, 0, with_trace, small=True)
            status = "ok" if result["correct"] else "FAILED"
            print(f"smoke {workload} trace={int(with_trace)}: {result['attempted']} jobs, {status}")
            problems += [f"{workload}: {r}" for r in detail["failures"]]
            if with_trace and not detail["counts_repeat"]:
                problems.append(f"{workload}: per-layer counts differ between passes: {detail['counts_that_differ']}")
    problems += self_check(root)
    for p in problems:
        print(f"smoke problem: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def record_digests(root: Path) -> int:
    """Check every full-size job at the default seed and record the sha256
    of its output, so later runs can demand byte-identical outputs."""
    recorded = {}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            bench = Bench(root, workload, DEFAULT_SEED, Path(tmp), small=False)
            bench.warm_up(bench.run_child, {})
        if bench.outcomes.failed:
            print("\n".join(bench.outcomes.reasons) + "\nnothing recorded", file=sys.stderr)
            return 1
        recorded[workload] = {name: hashlib.sha256(out).hexdigest() for name, out in bench.verified.items()}
        print(f"{workload}: {len(bench.verified)} outputs checked", file=sys.stderr)
    doc = {"seed": DEFAULT_SEED, "environment": environment(root), "workloads": recorded}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every job type, plus the checker self-check")
    parser.add_argument("--record-digests", action="store_true", help=f"re-record {DIGESTS.name} at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "binframe" / "cli.py", root / "tests" / "data", root / "BENCHMARK.json"):
        if not needed.exists():
            print(f"bench: {needed} not found; run from the root of a binframe checkout", file=sys.stderr)
            return 2
    if args.smoke:
        return smoke(root)
    if args.record_digests:
        return record_digests(root)
    if args.workload is None:
        parser.error("--workload is required")
    result, detail = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    _report(result, detail)
    print(f"environment: {json.dumps(detail['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
