"""The workloads: CLI jobs on seeded inputs, each with its expected
exit code and an output check.

Full sizes keep one pass over a job list at a few seconds on a 2-core
machine; ``small`` sizes run every job type in well under a second each,
for the smoke run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen
from bits import gram, render


@dataclass
class Job:
    name: str
    argv: list[str]
    check: Callable[[str, dict], None]
    expect: int = 0


class _Inputs:
    def __init__(self, directory: Path):
        self.directory = directory

    def put(self, name: str, rows: list[int], cols: int, fmt: str = "dense") -> str:
        path = self.directory / f"{name}.{'json' if fmt == 'json' else 'txt'}"
        path.write_text(render(rows, cols, fmt), encoding="utf-8")
        return str(path)


def catalog(rng: random.Random, inputs: _Inputs, data: Path, small: bool) -> list[Job]:
    """Catalog jobs have no inputs; the seed leaves them unchanged."""
    jobs = []
    for k in (9, 15) if small else (15, 20, 28, 32, 34):
        ref = (data / "cyclic_grams" / f"k{k:02d}.txt").read_bytes().decode() if k <= 20 else None
        jobs.append(Job(f"cyclic-k{k}", ["enum", "cyclic", "--k", str(k)], check.cyclic(k, ref)))
    for k in (15,) if small else (17, 30):
        jobs.append(Job(f"nonrepeating-k{k}", ["enum", "cyclic", "--nonrepeating", "--k", str(k)], check.nonrepeating(k)))
    k = 4 if small else 6
    ref_lines = [
        line.split(" ", 1)[1]
        for line in (data / "orthogonal_classes.txt").read_text(encoding="utf-8").splitlines()
        if line.split()[0] == str(k)
    ]
    jobs.append(
        Job(f"orthogonal-k{k}", ["enum", "orthogonal", "--k", str(k), "--format", "cols-int"], check.orthogonal_catalog(k, ref_lines))
    )
    return jobs


def construct(rng: random.Random, inputs: _Inputs, data: Path, small: bool) -> list[Job]:
    jobs = []

    def factor_and_complement(k: int, fmt: str) -> None:
        n = k // 2
        theta = gen.parseval(rng, k, n, need_even_row=True, need_odd_row=True)
        m = gram(theta, n)
        tag = f"k{k}-{fmt}"
        jobs.append(Job(f"factor-{tag}", ["factor", inputs.put(f"gram-{tag}", m, k, fmt), "--format", fmt], check.factor(m, k, n, fmt)))
        jobs.append(
            Job(f"complement-{tag}", ["complement", inputs.put(f"theta-{tag}", theta, n, fmt), "--format", fmt], check.complement(theta, k, n, fmt))
        )

    for k in (16, 32) if small else (64, 128, 256):
        factor_and_complement(k, "dense")
    factor_and_complement(16 if small else 64, "json")

    k = 24 if small else 128
    while True:
        rows = gen.orthogonal(rng, k)[: k // 2]
        total = 0
        for r in rows:
            total ^= r
        if total != (1 << k) - 1:  # the rows must not sum to all-ones, or no extension exists
            break
    jobs.append(Job(f"extend-k{k}", ["extend", inputs.put(f"rows-k{k}", rows, k)], check.extend(rows, k)))

    k = 16 if small else 64
    even = gen.all_even_gram(rng, k, k // 2 - 1)
    jobs.append(Job(f"factor-all-even-k{k}", ["factor", inputs.put(f"even-gram-k{k}", even, k)], check.negative, expect=1))
    odd = gen.all_odd_frame(rng, k, k // 4)
    jobs.append(Job(f"complement-all-odd-k{k}", ["complement", inputs.put(f"odd-theta-k{k}", odd, k // 4)], check.negative, expect=1))
    return jobs


def equiv(rng: random.Random, inputs: _Inputs, data: Path, small: bool) -> list[Job]:
    k, n = 8, 4
    a = gen.parseval(rng, k, n)
    b = gen.switching_image(rng, a, n)
    c, d = gen.inequivalent_pair(rng, k, n)
    ga, gb = gram(a, n), gram(b, n)
    conj = ["--mode", "conjugation", "--format", "json"]
    rows, cols = (8, 5) if small else (12, 7)
    r = gen.random_matrix(rng, rows, cols)
    r2 = gen.permute_cols(rng, gen.permute_rows(rng, r), cols)
    return [
        Job("canon-conjugation-a", ["canon", inputs.put("gram-a", ga, k, "json"), *conj], check.canon(ga, k, True)),
        Job("canon-conjugation-b", ["canon", inputs.put("gram-b", gb, k, "json"), *conj], check.canon(gb, k, True, same_as="canon-conjugation-a")),
        Job("switching-yes", ["equiv", "switching", inputs.put("a", a, n), inputs.put("b", b, n)], check.answer("switching-equivalent", True)),
        Job(
            "switching-no",
            ["equiv", "switching", inputs.put("c", c, n), inputs.put("d", d, n)],
            check.answer("switching-equivalent", False),
            expect=1,
        ),
        Job("canon-independent", ["canon", inputs.put("r", r, cols, "json"), "--format", "json"], check.canon(r, cols, False)),
        Job("perm-yes", ["equiv", "perm", inputs.put("r1", r, cols), inputs.put("r2", r2, cols)], check.answer("permutation-equivalent", True)),
    ]


WORKLOADS = {"catalog": catalog, "construct": construct, "equiv": equiv}


def build(workload: str, seed: int, directory: Path, data: Path, small: bool = False) -> list[Job]:
    """Write the workload's inputs under ``directory`` and return its jobs.

    Each workload draws from its own stream, so one seed gives every
    workload fixed inputs independent of the others.
    """
    rng = random.Random(f"{workload}-{seed}")
    return WORKLOADS[workload](rng, _Inputs(directory), data, small)
