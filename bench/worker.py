"""Runs one benchmark operation in a fresh interpreter.

``python3 -I bench/worker.py setup`` times the set-up a CLI user pays on
every call: importing ``lvweights``, building the argument parser and one
trivial ``lv`` call.  Nothing is imported before the clock starts except
what the interpreter itself loads.

Otherwise the worker reads one request as JSON on stdin and prints one
JSON object as the last line of its stdout.  Request modes:

* ``run``    -- the op untraced (``cli.run(argv)`` or the forward stream);
* ``traced`` -- the same op through the layer calls the CLI makes, with a
               span around each call;
* ``layers`` -- per-call timings of the public stage functions on a seeded
               sample of the workload's inputs.

Each op runs in its own interpreter, so the count table, the partition
cache and the scan memo start cold, as they do for a CLI user.  A
``run`` or ``traced`` record also holds ``reference_s``: times of a fixed
loop taken just before and after the op (see ``reference_s``).
"""

import os
import sys
import time

_T0 = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path[:0] = [os.path.join(_ROOT, "src"), _HERE]


def setup() -> dict:
    import lvweights.cli

    lvweights.cli.build_parser()
    lvweights.lv((1, -1))
    return {"setup_s": time.perf_counter() - _T0,
            "module": lvweights.cli.__file__}


if __name__ == "__main__" and sys.argv[1:] == ["setup"]:
    print(__import__("json").dumps(setup()))
    raise SystemExit(0)


import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from contextlib import contextmanager, redirect_stderr, redirect_stdout  # noqa: E402

from lvweights import (  # noqa: E402
    ModularContext,
    OmegaElement,
    SearchBox,
    apply_E_inverse,
    count_distinguished,
    default_bound,
    distinguished_depth,
    enumerate_distinguished,
    format_weight,
    generate_family_set,
    iterate,
    kappa,
    leading_coefficient,
    lv,
    lv_p,
    phi,
    scatter_records,
    write_scatter_csv,
)
from lvweights import cli  # noqa: E402
from lvweights.modular_iteration import STATUS_EXPANDED, STATUS_NONINTEGRAL  # noqa: E402
from lvweights.verify import (  # noqa: E402
    clump_commutation_failures,
    r_commutation_failures,
    round_trip_failures,
)

import workloads  # noqa: E402


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, op id).

    Aggregated per name once the op has finished.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def aggregate(self) -> dict:
        """Per name: call count, total and self seconds, and durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0, "durations_s": []})
            agg["count"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
            agg["durations_s"].append(end - start)
        return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rusage() -> tuple[float, float, int, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            me.ru_maxrss, kids.ru_maxrss)


def _csv_path(op: dict, workdir: str) -> str | None:
    if "family" not in op:
        return None
    return os.path.join(workdir, "families-%d-%d-%d.csv" % tuple(op["family"]))


def _argv(op: dict, csv_path: str | None) -> list[str]:
    return [csv_path if a is None else a for a in op["argv"]]


def _finish_cli(op: dict, rec: dict, stdout: str, csv_path: str | None) -> dict:
    """Digests, sizes and cross-checks of a finished CLI op."""
    data = stdout.encode()
    rec["stdout_sha256"] = _sha256(data)
    rec["stdout_bytes"] = len(data)
    checks = []
    if "cell" in op:
        n, k, p = op["cell"]
        found = stdout.count("\n")
        rec["found"] = found
        rec["box_points"] = workloads.box_points(op["cell"])
        checks.append(["found == count_distinguished(n, k)", found,
                       count_distinguished(n, k)])
    if csv_path is not None:
        try:
            with open(csv_path, "rb") as fh:
                csv = fh.read()
            os.remove(csv_path)
        except OSError as exc:
            csv = b""
            rec["error"] = rec.get("error") or f"csv: {exc}"
        rec["csv_sha256"] = _sha256(csv)
        rec["csv_bytes"] = len(csv)
        n, p, max_k = op["family"]
        members = max(csv.count(b"\n") - 1, 0)
        closed = max_k * max_k + 3 * max_k + 1 if n == 4 else 2 * max_k + 1
        checks.append(["members == count_distinguished(n, max_k)", members,
                       count_distinguished(n, max_k)])
        checks.append(["members == closed-form count", members, closed])
    rec["checks"] = checks
    return rec


def run_cli(op: dict, workdir: str) -> dict:
    csv_path = _csv_path(op, workdir)
    out, err = io.StringIO(), io.StringIO()
    cpu0, kcpu0, _, _ = _rusage()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(_argv(op, csv_path))
    except Exception as exc:  # the CLI lets it escape: its process exits 1
        rc, error = 1, f"{type(exc).__name__}: {str(exc)[:200]}"
    t = time.perf_counter() - start
    cpu1, kcpu1, rss, krss = _rusage()
    rec = {"t_s": t, "rc": rc, "error": error, "stderr": err.getvalue()[-500:],
           "cpu_s": cpu1 - cpu0, "worker_cpu_s": kcpu1 - kcpu0,
           "maxrss_kb": rss, "worker_maxrss_kb": krss}
    return _finish_cli(op, rec, out.getvalue(), csv_path)


def run_traced(op: dict, workdir: str) -> dict:
    """The op through the same layer calls ``cli.run`` makes, with spans.

    Must produce the same stdout and CSV bytes as ``cli.run``; the digests
    are checked like those of the untraced op.
    """
    tr = Tracer(op["id"])
    csv_path = _csv_path(op, workdir)
    out = io.StringIO()
    cpu0, kcpu0, _, _ = _rusage()
    enum_cpu = enum_workers_cpu = 0.0
    start = time.perf_counter()
    with tr.span("cli.parse"):
        args = cli.build_parser().parse_args(_argv(op, csv_path))
    if args.command == "enumerate":
        ModularContext(args.prime)  # the CLI validates the prime here
        bound = default_bound(args.n, args.k, args.prime)
        box = SearchBox(args.n, args.k, bound, args.prime)
        c0, k0, _, _ = _rusage()
        with tr.span(workloads.cell_span(op["cell"], args.jobs)):
            weights = enumerate_distinguished(box, jobs=args.jobs)
        c1, k1, _, _ = _rusage()
        enum_cpu, enum_workers_cpu = c1 - c0, k1 - k0
        with tr.span("cli.emit"):
            for w in weights:
                with tr.span("core.format_weight"):
                    line = format_weight(w)
                out.write(line + "\n")
    elif args.command == "families":
        ctx = ModularContext(args.prime)
        with tr.span("enumeration.generate_family_set"):
            weights = generate_family_set(args.n, ctx, args.max_k)
        with tr.span("enumeration.scatter_records"):
            records = scatter_records(weights, ctx, args.max_k)
        with tr.span("enumeration.write_scatter_csv"):
            write_scatter_csv(records, args.csv, ncoords=args.n // 2)
    elif args.command == "count":
        with tr.span("counting.count_distinguished.%d_%d" % (args.n, args.k)):
            c = count_distinguished(args.n, args.k)
        with tr.span("cli.emit"):
            out.write(f"{c}\n")
    elif args.command == "coeff":
        with tr.span("counting.leading_coefficient"):
            c = leading_coefficient(args.n)
        with tr.span("cli.emit"):
            out.write(f"{c.numerator}/{c.denominator}\n")
    elif args.command == "verify":
        checks = []
        with tr.span("verify.r_commutation"):
            checks.append(("reverse-negate commutation",
                           r_commutation_failures(args.samples, args.seed)))
        with tr.span("verify.clump_commutation"):
            checks.append(("single-clump commutation (base 0)",
                           clump_commutation_failures(
                               max(args.samples // 10, 1), args.seed)))
        with tr.span("verify.round_trip"):
            checks.append(("round trips and sum conservation",
                           round_trip_failures(args.samples, args.seed)))
        with tr.span("cli.emit"):
            for name, bad in checks:
                if not bad:
                    out.write(f"{name}: ok\n")
    else:
        raise ValueError(f"no traced form for {args.command!r}")
    t = time.perf_counter() - start
    cpu1, kcpu1, rss, krss = _rusage()
    rec = {"t_s": t, "rc": 0, "error": None, "cpu_s": cpu1 - cpu0,
           "worker_cpu_s": kcpu1 - kcpu0, "maxrss_kb": rss,
           "worker_maxrss_kb": krss, "enumerate_cpu_s": enum_cpu,
           "enumerate_worker_cpu_s": enum_workers_cpu,
           "spans": tr.aggregate(), "span_count": len(tr.spans)}
    return _finish_cli(op, rec, out.getvalue(), csv_path)


def _forward_ok(w, a, b, staged, q, p: int) -> bool:
    """Cross-checks of one stream weight: the staged map equals ``lv``, both
    column bases conserve the entry sum, and ``lv_p`` is ``lv`` divided by
    p (None when some entry is not divisible)."""
    if staged != a or a.entry_sum != sum(w) or b.entry_sum != sum(w):
        return False
    if all(e % p == 0 for part in a.mu for e in part):
        want = OmegaElement(tuple(tuple(e // p for e in part) for part in a.mu))
    else:
        want = None
    return q == want


STREAM_CHUNK = 200


def _stream_chunk(weights, ctx: ModularContext, tr: "Tracer | None") -> list:
    if tr is None:
        return [(lv(w), lv(w, base=0), kappa(apply_E_inverse(phi(w))),
                 lv_p(w, ctx)) for w in weights]
    results = []
    for w in weights:
        with tr.span("lv_algorithm.lv"):
            a = lv(w)
        with tr.span("lv_algorithm.lv.base0"):
            b = lv(w, base=0)
        with tr.span("lv_algorithm.staged"):
            s = kappa(apply_E_inverse(phi(w)))
        with tr.span("modular_iteration.lv_p"):
            q = lv_p(w, ctx)
        results.append((a, b, s, q))
    return results


def run_stream(op: dict, traced: bool) -> dict:
    """The forward stream, timed chunk by chunk; each chunk's results are
    checked and hashed off the clock, so no list of results grows over the
    stream."""
    weights = workloads.forward_weights(op["seed"], op["count"], op["max_n"])
    p = op["prime"]
    ctx = ModularContext(p)
    tr = Tracer(op["id"])
    digest = hashlib.sha256()
    failed = 0
    t = 0.0
    for i in range(0, len(weights), STREAM_CHUNK):
        chunk = weights[i:i + STREAM_CHUNK]
        start = time.perf_counter()
        results = _stream_chunk(chunk, ctx, tr if traced else None)
        t += time.perf_counter() - start
        failed += sum(not _forward_ok(w, *r, p) for w, r in zip(chunk, results))
        digest.update(repr(results).encode())
    _, _, rss, krss = _rusage()
    rec = {"t_s": t, "rc": 0, "error": None, "weights": len(weights),
           "failed": failed, "maxrss_kb": rss, "worker_maxrss_kb": krss,
           "results_sha256": digest.hexdigest(), "checks": []}
    if traced:
        rec["spans"] = tr.aggregate()
        rec["span_count"] = len(tr.spans)
    return rec


# Per-call layer timings --------------------------------------------------------

def _has_near_gap(w) -> bool:
    """True when some consecutive gap is below 2: ``lv`` takes its general
    path, not the single-column fast path."""
    return any(a - b < 2 for a, b in zip(w, w[1:]))


def _tree_inputs(w, ctx: ModularContext, cap: int) -> list:
    """The sequences ``lv`` is applied to while iterating ``w``."""
    out, stack = [], [iterate(w, ctx, cap)]
    while stack:
        node = stack.pop()
        if node.status in (STATUS_EXPANDED, STATUS_NONINTEGRAL):
            out.append(node.seq)
        stack.extend(node.children)
    return out


def layer_inputs(workload: str, sizes: workloads.Sizes, seed: int):
    """(map inputs, depth inputs) of a workload, each a list of
    (weight, prime, cap)."""
    rng = random.Random(f"layers:{workload}:{seed}")
    if workload == "scan":
        items = []
        for cell in sizes.cells:
            n, k, p = cell
            items += [(w, p, k) for w in
                      workloads.box_sample(cell, seed, sizes.sample_per_cell)]
        return items, items
    if workload == "forward":
        ws = workloads.forward_weights(seed, sizes.sample_stream,
                                       sizes.stream_max_n)
        items = [(w, sizes.stream_prime, 3) for w in ws]
        return items, items
    members, nodes = [], []
    share = sizes.sample_members // len(sizes.families)
    for n, p, max_k in sizes.families:
        ctx = ModularContext(p)
        fam = generate_family_set(n, ctx, max_k)
        picked = rng.sample(fam, min(share, len(fam)))
        members += [(w, p, max_k) for w in picked]
        for w in picked:
            nodes += [(s, p, max_k) for s in _tree_inputs(w, ctx, max_k)]
    nodes = rng.sample(nodes, min(sizes.sample_nodes, len(nodes)))
    return nodes, members


def run_layers(req: dict) -> dict:
    sizes = workloads.Sizes(**req["sizes"])
    map_inputs, depth_inputs = layer_inputs(req["workload"], sizes,
                                            req["seed"])
    ns = time.perf_counter_ns
    t: dict[str, list[int]] = {name: [] for name in (
        "lv_algorithm.lv.general", "lv_algorithm.lv.single_col",
        "lv_algorithm.phi", "lv_algorithm.apply_E_inverse",
        "lv_algorithm.kappa", "lv_algorithm.staged",
        "modular_iteration.lv_p", "modular_iteration.distinguished_depth",
        "core.format_weight")}
    contexts: dict[int, ModularContext] = {}
    integral = mismatches = 0
    for w, p, _ in map_inputs:
        ctx = contexts.setdefault(p, ModularContext(p))
        t0 = ns()
        a = lv(w)
        t1 = ns()
        path = "general" if _has_near_gap(w) else "single_col"
        t["lv_algorithm.lv." + path].append(t1 - t0)
        t0 = ns()
        d = phi(w)
        t1 = ns()
        e = apply_E_inverse(d)
        t2 = ns()
        s = kappa(e)
        t3 = ns()
        t["lv_algorithm.phi"].append(t1 - t0)
        t["lv_algorithm.apply_E_inverse"].append(t2 - t1)
        t["lv_algorithm.kappa"].append(t3 - t2)
        t["lv_algorithm.staged"].append(t3 - t0)
        mismatches += s != a
        t0 = ns()
        q = lv_p(w, ctx)
        t1 = ns()
        t["modular_iteration.lv_p"].append(t1 - t0)
        integral += q is not None
        t0 = ns()
        format_weight(w)
        t1 = ns()
        t["core.format_weight"].append(t1 - t0)
    for w, p, cap in depth_inputs:
        ctx = contexts.setdefault(p, ModularContext(p))
        t0 = ns()
        distinguished_depth(w, ctx, cap)
        t1 = ns()
        t["modular_iteration.distinguished_depth"].append(t1 - t0)
    total = max(len(map_inputs), 1)
    return {"rc": 0, "error": None, "samples_ns": t,
            "general_share": len(t["lv_algorithm.lv.general"]) / total,
            "integral_share": integral / total,
            "map_inputs": len(map_inputs), "depth_inputs": len(depth_inputs),
            "checks": [["staged results differing from lv", mismatches, 0]]}


# Host speed -----------------------------------------------------------------

REFERENCE_ROUNDS = 5


def reference_s() -> float:
    """Time of a fixed pure-Python loop that touches no library code.

    Run next to each op, it measures how fast the host is running this
    process at the time: a shared core's speed switches between phases of
    seconds to minutes, and an op's time divided by the loop's time near it
    cancels most of that.
    """
    start = time.perf_counter()
    s = 0
    for i in range(50_000):
        s += i * i % 7
    return time.perf_counter() - start


def main() -> int:
    req = json.loads(sys.stdin.read())
    mode = req["mode"]
    if mode == "layers":
        rec = run_layers(req)
    else:
        ref = [reference_s() for _ in range(REFERENCE_ROUNDS)]
        if req["op"]["kind"] == "stream":
            rec = run_stream(req["op"], traced=mode == "traced")
        elif mode == "traced":
            rec = run_traced(req["op"], req["workdir"])
        else:
            rec = run_cli(req["op"], req["workdir"])
        ref += [reference_s() for _ in range(REFERENCE_ROUNDS)]
        rec["reference_s"] = ref
    rec["module"] = cli.__file__
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
