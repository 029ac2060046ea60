"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 bench/selftest.py

Runs every workload with tiny inputs in both modes and checks that each
declared metric of BENCHMARK.json is emitted with its unit and that no
operation fails; then runs the scan with one recorded digest altered and
checks that each operation it belongs to is counted as failed.  Exits 0
when all hold.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402


def tiny_names(declared: list[dict]) -> list[dict]:
    """Declared metrics renamed for the tiny inputs: per-cell and per-count
    names carry the input's parameters."""
    renames = [(workloads.cell_label(full), workloads.cell_label(tiny))
               for full, tiny in zip(workloads.FULL.cells, workloads.TINY.cells)]
    renames += [("%d_%d" % full, "%d_%d" % tiny)
                for full, tiny in zip(workloads.FULL.counts, workloads.TINY.counts)]
    out = []
    for d in declared:
        name = d["name"]
        for old, new in renames:
            name = name.replace(f".{old}.", f".{new}.")
        out.append({**d, "name": name})
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = workloads.load_digests()
    errors = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            declared = tiny_names(spec["per_layer" if trace else "end_to_end"])
            tag = f"{workload} trace={int(trace)}"
            record = run.run_workload(workload, workloads.TINY, seed=7,
                                      seconds=0, trace=trace, digests=digests)
            try:
                line = run.result_line(record, declared)
            except RuntimeError as exc:
                errors.append(f"{tag}: {exc}")
                continue
            for d in declared:
                got = line["metrics"][d["name"]]
                if got["unit"] != d["unit"] or not isinstance(
                        got["value"], (int, float)):
                    errors.append(f"{tag}: bad metric {d['name']}: {got}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                errors.append(f"{tag}: {record['failures']}")
            print(f"selftest: {tag}: {len(declared)} metrics, "
                  f"{line['attempted']} ops ok", flush=True)

    ops = workloads.pass_ops("scan", workloads.TINY, 0)
    key = ops[0]["key"]
    want_failed = sum(op["key"] == key for op in ops)  # serial and pooled
    wrong = {**digests, key: {"stdout_sha256": "0" * 64}}
    record = run.run_workload("scan", workloads.TINY, seed=7, seconds=0,
                              trace=False, digests=wrong)
    line = run.result_line(record, tiny_names(spec["end_to_end"]))
    if line["correct"] or line["failed"] != want_failed:
        errors.append(f"wrong digest for {key!r} not counted as "
                      f"{want_failed} failures: {line}")
    else:
        print(f"selftest: wrong digest for {key!r} counted as {want_failed} "
              "failures", flush=True)

    for error in errors:
        print(f"selftest: FAIL {error}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
