"""Benchmark of the lvweights CLI and library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see BENCHMARK.json and workloads.py):

* ``scan``         -- two enumeration cells, serial and with a pool of 2
                      workers;
* ``forward``      -- a seeded stream of clumpy weights through the forward
                      map and its stages, plus ``verify``;
* ``closed-forms`` -- families with CSV output, cold counts, a large
                      leading coefficient.

With ``--trace 0`` the run repeats passes over the workload's operations
until ``--seconds`` have been measured and reports the sum of each
operation's median cost over the passes, in units of a reference loop
timed beside it (see ``run_figures``); every 5 s or so it also sets up
a fresh interpreter three times (``setup_s`` is the median of all of
them).  Every operation runs in a fresh interpreter, so caches are cold as
they are for a CLI user.  With ``--trace 1`` it makes
one untraced pass, one traced pass (spans around each layer call the CLI
makes) and per-call timings on a seeded sample of the workload's inputs,
and reports the per-layer metrics and the tracing overhead.

Every operation's stdout and CSV bytes are compared with digests recorded
at the seed commit (digests.json); scan cells and family sets are also
cross-checked against the count recursion.  A mismatch counts as a failed
operation and never stops the run.  The last line of stdout is the result
as JSON; a fuller record with an environment block is written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"

OP_TIMEOUT_S = 170.0
# Stop starting passes once this much time has gone, so a run stays well
# inside its 180 s limit however slow the machine is.
RUN_BUDGET_S = 120.0


def call_worker(request: dict | None, timeout: float = OP_TIMEOUT_S) -> dict:
    """Run one request in a fresh interpreter and return its JSON record.

    The worker gets its own process group so that a timeout also kills the
    pool processes it started.  A worker that dies or prints no record
    yields a failed record; nothing is raised.
    """
    argv = [sys.executable, "-I", str(WORKER)]
    if request is None:
        argv.append("setup")
    proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(
            None if request is None else json.dumps(request), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"rc": None, "error": f"worker timed out after {timeout} s",
                "checks": []}
    except BaseException:  # interrupted: stop the worker before leaving
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": proc.returncode, "checks": [],
                "error": f"worker failed: {err.strip()[-800:]}"}
    return json.loads(lines[-1])


def problems(op: dict, rec: dict, digests: dict) -> list[str]:
    """Everything wrong with one finished op; empty when it is correct."""
    out = []
    if rec.get("rc") != 0 or rec.get("error"):
        out.append(f"exit {rec.get('rc')}: {rec.get('error')}")
    if op["kind"] == "cli" and "stdout_sha256" in rec:
        want = digests.get(op["key"])
        if want is None:
            out.append("no digest recorded")
        else:
            for field in ("stdout_sha256", "csv_sha256"):
                if field in want and rec.get(field) != want[field]:
                    out.append(f"{field} {rec.get(field)} != {want[field]}")
    for name, got, want in rec.get("checks", []):
        if got != want:
            out.append(f"{name}: {got} != {want}")
    return out


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []

    def add(self, op: dict, rec: dict) -> None:
        bad = problems(op, rec, self.digests)
        if op["kind"] == "stream" and "weights" in rec:
            self.attempted += rec["weights"]
            self.failed += rec["failed"]
            if rec["failed"]:
                bad.append(f"{rec['failed']} weights failed cross-checks")
        else:
            self.attempted += 1
            self.failed += bool(bad)
        if bad:
            self.failures.append({"op": op["id"], "problems": bad})


class SetupSampler:
    """Set-up times of fresh interpreters, taken in rounds spread over the
    run: the host's speed drifts over tens of seconds, and samples taken
    back to back would all see one phase of it."""

    ROUND = 3
    EVERY_S = 5.0

    def __init__(self):
        self.samples: list[float] = []
        self._last: float | None = None

    def round(self, force: bool = False) -> None:
        if (not force and self._last is not None
                and time.perf_counter() - self._last < self.EVERY_S):
            return
        for _ in range(self.ROUND):
            rec = call_worker(None)
            if "setup_s" not in rec:
                raise RuntimeError(f"set-up failed: {rec.get('error')}")
            if not rec["module"].startswith(str(ROOT / "src")):
                raise RuntimeError(f"lvweights imported from {rec['module']}")
            self.samples.append(rec["setup_s"])
        self._last = time.perf_counter()


def run_pass(ops: list[dict], mode: str, tally: Tally,
             before_op=lambda: None) -> list[dict]:
    records = []
    for op in ops:
        before_op()
        rec = call_worker({"mode": mode, "op": op,
                           "workdir": str(RESULTS)})
        tally.add(op, rec)
        records.append(rec)
    return records


def run_figures(workload: str, passes: list[list[dict]]) -> dict:
    """End-to-end figures of a run.

    Every pass runs the same ops in the same order.  An op's cost in one
    pass is its time divided by the reference loop's time next to it
    (worker.reference_s), and its cost in the run is the median over the
    passes; ``wall_ref`` is the sum over a pass's ops.  The speed of a
    shared host's core switches between phases of seconds to minutes: over
    a run of this benchmark's length the median of a plain CPU loop's time
    varies by about 20% between runs, while the op-to-loop ratio varies by
    2-6%.  The same figures in seconds (``wall_s``, ``items_per_s``) go
    into the record for reading, not into the result line.
    """
    def per_op(value) -> list[float]:
        """Median over the passes of each op; failed runs have no time."""
        out = []
        for recs in zip(*passes):
            values = [value(r) for r in recs if "t_s" in r]
            out.append(statistics.median(values) if values else 0.0)
        return out

    op_s = per_op(lambda r: r["t_s"])
    op_ref = per_op(lambda r: r["t_s"] / statistics.median(r["reference_s"]))
    first = passes[0]
    # The items of a pass, and which ops' time they take: on ``forward``
    # the stream's weights per stream time, as ``verify`` is no stream.
    if workload == "scan":
        items = sum(r.get("box_points", 0) for r in first)
        counted = [True] * len(first)
    elif workload == "forward":
        items = sum(r.get("weights", 0) for r in first)
        counted = ["weights" in r for r in first]
    else:
        items, counted = len(first), [True] * len(first)

    def rate(op_costs: list[float]) -> float:
        cost = sum(c for c, use in zip(op_costs, counted) if use)
        return items / cost if cost else 0.0

    rss_kb = max(max(r.get("maxrss_kb", 0), r.get("worker_maxrss_kb", 0))
                 for recs in passes for r in recs)
    return {"wall_ref": sum(op_ref), "items_per_ref": rate(op_ref),
            "wall_s": sum(op_s), "items_per_s": rate(op_s),
            "peak_rss_mb": rss_kb / 1024.0}


def run_untraced(workload, sizes, seed, seconds, tally) -> dict:
    import workloads

    ops = workloads.pass_ops(workload, sizes, seed)
    setup = SetupSampler()
    setup.round(force=True)
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, "run", tally, before_op=setup.round))
        now = time.perf_counter()
        if now - start >= seconds or now - start + (now - t0) > RUN_BUDGET_S:
            break
    setup.round(force=True)
    metrics = {"setup_s": statistics.median(setup.samples),
               **run_figures(workload, passes)}
    return {"metrics": metrics, "setup_samples_s": setup.samples,
            "passes": passes}


def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _span_total(spans: dict, name: str) -> float:
    return spans.get(name, {}).get("total_s", 0.0)


def merge_spans(records: list[dict]) -> dict:
    """Per span name over all ops: count, total and self seconds, and the
    median and 99th percentile of one call."""
    merged: dict = {}
    for rec in records:
        for name, agg in rec.get("spans", {}).items():
            m = merged.setdefault(name, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0, "durations_s": []})
            m["count"] += agg["count"]
            m["total_s"] += agg["total_s"]
            m["self_s"] += agg["self_s"]
            m["durations_s"] += agg["durations_s"]
    for m in merged.values():
        durations = m.pop("durations_s")
        m["p50_s"], m["p99_s"] = quantile(durations, 0.5), quantile(durations, 0.99)
    return merged


def run_traced(workload, sizes, seed, tally) -> dict:
    """One untraced pass, one traced pass and the per-call layer sample."""
    import workloads

    ops = workloads.pass_ops(workload, sizes, seed)
    untraced = run_pass(ops, "run", tally)
    traced = run_pass(ops, "traced", tally)
    layers = call_worker({"mode": "layers", "workload": workload,
                          "seed": seed, "sizes": asdict(sizes)})
    tally.add({"id": "layer sample", "kind": "layers"}, layers)

    spans = merge_spans(traced)
    wall_untraced = sum(r.get("t_s", 0.0) for r in untraced)
    wall_traced = sum(r.get("t_s", 0.0) for r in traced)
    samples = {name: {"count": len(ns), "us_p50": quantile(ns, 0.5) / 1e3,
                      "us_p99": quantile(ns, 0.99) / 1e3}
               for name, ns in layers.pop("samples_ns", {}).items()}
    layers["samples"] = samples
    m: dict[str, float] = {}
    for name in ("lv_algorithm.lv.general", "modular_iteration.distinguished_depth"):
        m[f"{name}.us_p50"] = samples.get(name, {}).get("us_p50", 0.0)
        m[f"{name}.us_p99"] = samples.get(name, {}).get("us_p99", 0.0)
    for name in ("lv_algorithm.lv.single_col", "lv_algorithm.phi",
                 "lv_algorithm.apply_E_inverse", "lv_algorithm.kappa",
                 "lv_algorithm.staged", "modular_iteration.lv_p",
                 "core.format_weight"):
        m[f"{name}.us_p50"] = samples.get(name, {}).get("us_p50", 0.0)
    m["lv_algorithm.general_share"] = layers.get("general_share", 0.0)
    m["modular_iteration.lv_p.integral_share"] = layers.get("integral_share", 0.0)

    scan_ops = [(op, rec) for op, rec in zip(ops, traced) if "cell" in op]
    pooled = [(op, rec) for op, rec in scan_ops if op["jobs"] > 1]
    for cell in sizes.cells:
        label = workloads.cell_label(cell)
        found = sum(rec.get("found", 0) for op, rec in scan_ops
                    if tuple(op["cell"]) == tuple(cell) and op["jobs"] == 1)
        points = workloads.box_points(cell) if scan_ops else 0
        m[f"enumeration.cell.{label}.s"] = _span_total(
            spans, workloads.cell_span(cell, 1))
        m[f"enumeration.cell.{label}.jobs{workloads.JOBS}.s"] = _span_total(
            spans, workloads.cell_span(cell, workloads.JOBS))
        m[f"enumeration.cell.{label}.box_points"] = points
        m[f"enumeration.cell.{label}.found"] = found
        m[f"enumeration.cell.{label}.yield"] = found / points if points else 0.0
    # The pool's figures come from the pooled scans alone.
    pooled_wall = sum(_span_total(spans, workloads.cell_span(c, workloads.JOBS))
                      for c in sizes.cells)
    worker_cpu = sum(rec.get("enumerate_worker_cpu_s", 0.0) for _, rec in pooled)
    m["enumeration.worker_cpu_s"] = worker_cpu
    m["enumeration.parent_cpu_s"] = sum(rec.get("enumerate_cpu_s", 0.0)
                                        for _, rec in pooled)
    m["enumeration.worker_utilization"] = (
        worker_cpu / (workloads.JOBS * pooled_wall) if pooled_wall else 0.0)
    for name in ("enumeration.generate_family_set",
                 "enumeration.scatter_records", "enumeration.write_scatter_csv",
                 "counting.leading_coefficient", "verify.round_trip",
                 "verify.r_commutation", "verify.clump_commutation"):
        m[f"{name}.s"] = _span_total(spans, name)
    m["enumeration.csv_bytes"] = sum(r.get("csv_bytes", 0) for r in traced)
    for n, k in sizes.counts:
        name = f"counting.count_distinguished.{n}_{k}"
        m[f"{name}.s"] = _span_total(spans, name)
    m["cli.overhead_s"] = sum(agg["self_s"] for name, agg in spans.items()
                              if name.startswith("cli."))
    m["trace.overhead_s"] = wall_traced - wall_untraced
    m["trace.spans"] = sum(r.get("span_count", 0) for r in traced)
    for rec in traced:
        rec.pop("spans", None)
    return {"metrics": m, "untraced_wall_s": wall_untraced,
            "traced_wall_s": wall_traced, "spans": spans, "layers": layers,
            "untraced_ops": untraced, "traced_ops": traced}


def deep_check(sizes) -> dict:
    """The known deep-iteration defect: ``check`` on a member of depth 600.

    At the seed commit the library recurses once per level and the CLI dies
    with an uncaught RecursionError (exit 1).  A workload holds only
    operations that succeed at the seed, so this op is run and reported on
    its own (record, stderr, ``cli.known_defect_failures``) and is not
    counted in ``attempted``/``failed``.
    """
    import workloads

    op = workloads.deep_check_op(sizes)
    rec = call_worker({"mode": "run", "op": op, "workdir": str(RESULTS)})
    ok = rec.get("rc") == 0 and rec.get("stdout_sha256") == hashlib.sha256(
        op["expect_stdout"].encode()).hexdigest()
    return {"op": op["id"], "ok": ok, "rc": rec.get("rc"),
            "error": rec.get("error"), "t_s": rec.get("t_s")}


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, jobs: list[int]) -> dict:
    src = sorted((ROOT / "src" / "lvweights").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "jobs": jobs,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(workload: str, sizes, seed: int, seconds: float, trace: bool,
                 digests: dict) -> dict:
    """Run one workload; returns the result line and the full record."""
    import workloads

    RESULTS.mkdir(parents=True, exist_ok=True)
    tally = Tally(digests)
    jobs = [1, workloads.JOBS] if workload == "scan" else [1]
    record: dict = {"workload": workload, "trace": int(trace),
                    "seconds": seconds, "env": environment(seed, jobs)}
    if trace:
        record.update(run_traced(workload, sizes, seed, tally))
        record["env"]["tracing_overhead_s"] = record["metrics"]["trace.overhead_s"]
    else:
        record.update(run_untraced(workload, sizes, seed, seconds, tally))
        record["env"]["tracing_overhead_s"] = None
    if workload == "closed-forms":
        record["known_defects"] = [deep_check(sizes)]
    failed_defects = sum(not d["ok"] for d in record.get("known_defects", []))
    if trace:
        record["metrics"]["cli.known_defect_failures"] = failed_defects
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["error_rate"] = tally.failed / max(tally.attempted, 1)
    record["failures"] = tally.failures
    return record


def result_line(record: dict, declared: list[dict]) -> dict:
    """The result line: every declared metric with its unit, and the op counts."""
    missing = [d["name"] for d in declared if d["name"] not in record["metrics"]]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {d["name"]: {"value": record["metrics"][d["name"]],
                                "unit": d["unit"]} for d in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running worker is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "lvweights" / "cli.py").is_file():
        print(f"bench: no lvweights sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    record = run_workload(args.workload, workloads.FULL, args.seed,
                          args.seconds, bool(args.trace),
                          workloads.load_digests())
    line = result_line(record, declared)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**record, "result": line}, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"bench: FAILED {failure['op']}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    for defect in record.get("known_defects", []):
        state = "still fails" if not defect["ok"] else "now passes"
        print(f"bench: known defect {state}: {defect['op']} (exit "
              f"{defect['rc']}: {defect['error']})", file=sys.stderr)
    print(f"bench: record written to {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
