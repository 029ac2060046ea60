"""Workload definitions: the operations of one pass and their inputs.

An operation is a plain dict so that it can be sent to a worker process as
JSON.  Its ``kind`` selects how the worker runs it:

* ``cli``    -- ``lvweights.cli.run(argv)``; stdout (and the CSV, when the
               op writes one) must match the digest recorded under ``key``;
* ``stream`` -- the seeded forward stream of weights through ``lv``,
               ``lv(w, base=0)``, the staged map and ``lv_p``, cross-checked
               against each other.

Inputs come from the seed alone.  The scan and closed-form inputs are
exhaustive and fixed, so for them the seed only changes the order of the
operations within a pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from lvweights import ModularContext, default_bound, rho_family

DIGESTS_PATH = Path(__file__).with_name("digests.json")

JOBS = 2  # pool size of the parallel scan: one worker per core of a 2-core host


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the workloads (full size, or tiny for the self-test)."""

    cells: tuple[tuple[int, int, int], ...]  # (n, k, p) of each scan cell
    stream_weights: int
    stream_max_n: int
    stream_prime: int
    verify_samples: int
    families: tuple[tuple[int, int, int], ...]  # (n, p, max_k)
    counts: tuple[tuple[int, int], ...]  # (n, k)
    coeff_n: int
    deep_check: tuple[int, int]  # (p, depth) of rho_family(2, depth)
    sample_per_cell: int
    sample_stream: int
    sample_members: int
    sample_nodes: int


FULL = Sizes(
    cells=((4, 4, 7), (14, 1, 17)),
    stream_weights=6000,
    stream_max_n=16,
    stream_prime=17,
    verify_samples=4000,
    families=((4, 5, 80), (3, 7, 400)),
    counts=((20, 200), (24, 100)),
    coeff_n=2000,
    deep_check=(13, 600),
    sample_per_cell=3000,
    sample_stream=3000,
    sample_members=300,
    sample_nodes=3000,
)

TINY = Sizes(
    cells=((4, 3, 11), (6, 1, 7)),
    stream_weights=60,
    stream_max_n=6,
    stream_prime=7,
    verify_samples=20,
    families=((4, 5, 3), (3, 7, 5)),
    counts=((6, 5), (8, 3)),
    coeff_n=20,
    deep_check=(13, 600),
    sample_per_cell=40,
    sample_stream=40,
    sample_members=10,
    sample_nodes=40,
)

WORKLOADS = ("scan", "forward", "closed-forms")


def cell_label(cell) -> str:
    n, k, p = cell
    return f"{n}_{k}_{p}"


def cell_span(cell, jobs: int) -> str:
    """Span name of one scan of a cell; the pooled scan is named apart."""
    suffix = "" if jobs == 1 else f".jobs{jobs}"
    return f"enumeration.cell.{cell_label(cell)}{suffix}"


def box_points(cell) -> int:
    """Anti-symmetric candidates in a cell's box at the default bound."""
    n, k, p = cell
    h = n // 2
    return math.comb(default_bound(n, k, p) + h, h)


def load_digests() -> dict:
    """Stdout and CSV digests of each op key, recorded at the seed commit."""
    return json.loads(DIGESTS_PATH.read_text())


def _scan_op(cell, jobs: int) -> dict:
    n, k, p = cell
    key = f"enumerate --n {n} --prime {p} --k {k}"
    return {
        "id": f"{key} --jobs {jobs}",
        "kind": "cli",
        "key": key,
        "argv": ["enumerate", "--n", str(n), "--prime", str(p), "--k", str(k),
                 "--jobs", str(jobs)],
        "cell": list(cell),
        "jobs": jobs,
    }


def _families_op(fam) -> dict:
    n, p, max_k = fam
    key = f"families --n {n} --prime {p} --max-k {max_k}"
    return {
        "id": key,
        "kind": "cli",
        "key": key,
        "argv": ["families", "--n", str(n), "--prime", str(p),
                 "--max-k", str(max_k), "--csv", None],
        "family": list(fam),
    }


def _cli_op(argv: list[str]) -> dict:
    key = " ".join(argv)
    return {"id": key, "kind": "cli", "key": key, "argv": argv}


def pass_ops(workload: str, sizes: Sizes, seed: int) -> list[dict]:
    """The operations of one pass, in the seed's order."""
    if workload == "scan":
        ops = [_scan_op(cell, jobs) for jobs in (1, JOBS) for cell in sizes.cells]
    elif workload == "forward":
        ops = [
            {"id": "forward stream", "kind": "stream", "seed": seed,
             "count": sizes.stream_weights, "max_n": sizes.stream_max_n,
             "prime": sizes.stream_prime},
            {**_cli_op(["verify", "--samples", str(sizes.verify_samples),
                        "--seed", str(seed)]),
             "key": f"verify --samples {sizes.verify_samples}"},
        ]
    elif workload == "closed-forms":
        ops = [_families_op(fam) for fam in sizes.families]
        ops += [_cli_op(["count", "--n", str(n), "--k", str(k)])
                for n, k in sizes.counts]
        ops.append(_cli_op(["coeff", "--n", str(sizes.coeff_n)]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops


def deep_check_op(sizes: Sizes) -> dict:
    """``check`` on rho_family(2, depth), whose documented depth is exactly
    ``depth``.  Iteration that deep overflows the interpreter stack in the
    library at the seed, so this op is a known defect (see run.py)."""
    p, depth = sizes.deep_check
    weight = ",".join(map(str, rho_family(2, depth, ModularContext(p))))
    return {
        "id": f"check rho_family(2, {depth}) --prime {p} --cap {depth}",
        "kind": "cli",
        "key": f"check rho_family(2, {depth}) --prime {p} --cap {depth}",
        "argv": ["check", "--weight", weight, "--prime", str(p),
                 "--cap", str(depth)],
        "expect_stdout": f"{depth}\n",
    }


# Seeded inputs --------------------------------------------------------------

def forward_weights(seed: int, count: int, max_n: int) -> list[tuple[int, ...]]:
    """Weights of length 2..max_n with clumpy entries.

    Consecutive gaps are 0 or 1 with probability 0.7, so nearly every
    weight has a gap below 2 and takes the general (multi-column) path of
    the map.  ``verify``'s own generator is mostly single-column and would
    not exercise it.
    """
    rng = random.Random(f"forward:{seed}")
    out = []
    for _ in range(count):
        n = rng.randint(2, max_n)
        v = rng.randint(-3 * n, 3 * n)
        w = [v]
        for _ in range(n - 1):
            r = rng.random()
            v -= 0 if r < 0.35 else 1 if r < 0.7 else rng.randint(2, 6)
            w.append(v)
        out.append(tuple(w))
    return out


def mirror(coords, n: int) -> tuple[int, ...]:
    """Anti-symmetric weight from its free coordinates (as the scan builds
    its candidates)."""
    mid = (0,) if n % 2 else ()
    return tuple(coords) + mid + tuple(-c for c in reversed(coords))


def box_sample(cell, seed: int, count: int) -> list[tuple[int, ...]]:
    """Uniform seeded sample of a cell's box: weakly decreasing coordinates
    in [0, bound], drawn as h distinct values of [0, bound + h - 1] shifted
    down (stars and bars)."""
    n, k, p = cell
    h = n // 2
    bound = default_bound(n, k, p)
    rng = random.Random(f"box:{cell_label(cell)}:{seed}")
    out = []
    for _ in range(count):
        picks = sorted(rng.sample(range(bound + h), h))
        coords = sorted((c - i for i, c in enumerate(picks)), reverse=True)
        out.append(mirror(coords, n))
    return out
