import json

import pytest

import lvweights.cli as cli
import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    SearchBox,
    enumerate_distinguished,
    generate_family_set,
    rho_family,
    scatter_records,
    write_scatter_csv,
    write_scatter_svg,
)
from lvweights.cli import run


@pytest.fixture()
def capout(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestLvCommand:
    def test_golden_json(self, capout):
        code, out, _ = capout("lv", "--weight", "46,46,45,1,-1,-45,-46,-46")
        assert code == 0
        assert out == '{"mu":[[0,0],[],[132,-132]]}\n'

    def test_base_zero(self, capout):
        code, out, _ = capout("lv", "--weight", "1,0", "--base", "0")
        assert code == 0
        assert json.loads(out) == {"mu": [[], [1]]}

    def test_rejects_unsorted(self, capout):
        code, _, err = capout("lv", "--weight", "1,2")
        assert code == 2
        assert "weakly decreasing" in err

    def test_sort_flag(self, capout):
        code, out, _ = capout("lv", "--weight", "0,1,-1", "--sort")
        assert code == 0
        assert json.loads(out) == {"mu": [[0], [0]]}


class TestIterateCommand:
    def test_trace_json(self, capout):
        code, out, _ = capout(
            "iterate", "--weight", "46,46,45,1,-1,-45,-46,-46",
            "--prime", "11",
        )
        assert code == 0
        trace = json.loads(out)
        assert trace["status"] == "expanded"
        assert [c["seq"] for c in trace["children"]] == [
            [0, 0], [], [12, -12]
        ]

    def test_prime_too_small(self, capout):
        code, _, err = capout("iterate", "--weight", "1,0,-1", "--prime", "3")
        assert code == 2
        assert "exceed" in err

    def test_deep_chain(self, capout):
        # The trace is built and written on explicit stacks.  json.loads
        # cannot read a trace this deep, so count its expanded nodes.
        w = rho_family(2, 600, ModularContext(13))
        code, out, _ = capout(
            "iterate", "--weight", f"{w[0]},{w[1]}", "--prime", "13",
            "--cap", "600",
        )
        assert code == 0
        assert out.count('"status":"expanded"') == 600
        assert out.count('"status":"zeros"') == 1


class TestCheckCommand:
    def test_not_distinguished(self, capout):
        code, out, _ = capout(
            "check", "--weight", "1,0", "--prime", "5", "--cap", "10"
        )
        assert code == 0
        assert out == "not-distinguished\n"

    def test_depth(self, capout):
        code, out, _ = capout(
            "check", "--weight", "46,46,45,1,-1,-45,-46,-46", "--prime", "11"
        )
        assert code == 0
        assert out == "3\n"

    def test_deep_chain(self, capout):
        # The depth search keeps its own stack, so depth 600 is answered.
        w = rho_family(2, 600, ModularContext(13))
        code, out, _ = capout(
            "check", "--weight", f"{w[0]},{w[1]}", "--prime", "13",
            "--cap", "600",
        )
        assert (code, out) == (0, "600\n")

    def test_too_deep_exits_2(self, capout, monkeypatch):
        # No known CLI path recurses per level any more; the guard still
        # turns a RecursionError from any call into exit 2.
        def too_deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "iterate", too_deep)
        code, out, err = capout(
            "iterate", "--weight", "1,-1", "--prime", "13",
        )
        assert (code, out) == (2, "")
        assert "too deep" in err


class TestCountCoeff:
    def test_count(self, capout):
        code, out, _ = capout("count", "--n", "4", "--k", "2")
        assert (code, out) == (0, "11\n")

    def test_coeff(self, capout):
        code, out, _ = capout("coeff", "--n", "6")
        assert (code, out) == (0, "2/3\n")

    def test_coeff_integer_value(self, capout):
        code, out, _ = capout("coeff", "--n", "4")
        assert (code, out) == (0, "1/1\n")


class TestEnumerateCommand:
    def test_listing(self, capout):
        code, out, _ = capout(
            "enumerate", "--n", "2", "--prime", "5", "--k", "2",
            "--bound", "10",
        )
        assert code == 0
        assert out == "6,-6\n1,-1\n0,0\n"

    def test_default_bound(self, capout):
        code, out, _ = capout("enumerate", "--n", "3", "--prime", "5",
                              "--k", "1")
        assert code == 0
        assert out == "2,0,-2\n1,0,-1\n0,0,0\n"

    def test_csv_and_svg(self, capout, tmp_path):
        csv = tmp_path / "pts.csv"
        svg = tmp_path / "pts.svg"
        code, out, _ = capout(
            "enumerate", "--n", "4", "--prime", "5", "--k", "1",
            "--bound", "20", "--csv", str(csv), "--svg", str(svg),
        )
        assert code == 0
        assert out == ""
        lines = csv.read_text().splitlines()
        assert lines[0] == "x1,x2,depth"
        assert len(lines) == 6
        assert svg.read_text().startswith("<svg")

    def test_prime_guard(self, capout):
        code, _, err = capout("enumerate", "--n", "5", "--prime", "5",
                              "--k", "1")
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_nonpositive_jobs(self, capout, monkeypatch, jobs):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", no_pool)
        code, out, err = capout("enumerate", "--n", "4", "--prime", "5",
                                "--k", "1", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "jobs must be >= 1" in err

    def test_jobs_clamped_to_cpu_count(self, capout, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        argv = ("enumerate", "--n", "4", "--prime", "5", "--k", "2")
        _, serial, _ = capout(*argv)
        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(enumeration, "_POOL_MIN_CANDIDATES", 0)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        code, out, _ = capout(*argv, "--jobs", "100000")
        assert (code, out) == (0, serial)
        assert sizes == [2]

    @pytest.mark.parametrize("n,k,bound,p", [
        (2, 3, 200, 5), (3, 2, 60, 5), (4, 2, 60, 7), (5, 2, 20, 7),
        (6, 1, 12, 7),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_files_match_scatter_records(self, capout, tmp_path, monkeypatch,
                                         n, k, bound, p, jobs):
        # The CLI writes the depths its scan found; the public path
        # recomputes every depth with scatter_records.  The pool runs even
        # for boxes this small, so its merged depths are compared too.
        monkeypatch.setattr(enumeration, "_POOL_MIN_CANDIDATES", 0)
        csv, svg = tmp_path / "pts.csv", tmp_path / "pts.svg"
        code, out, _ = capout(
            "enumerate", "--n", str(n), "--prime", str(p), "--k", str(k),
            "--bound", str(bound), "--jobs", str(jobs),
            "--csv", str(csv), "--svg", str(svg),
        )
        assert (code, out) == (0, "")
        box = SearchBox(n, k, bound, p)
        records = scatter_records(
            enumerate_distinguished(box), ModularContext(p), k
        )
        assert len({r.depth for r in records}) > 1
        write_scatter_csv(records, tmp_path / "ref.csv", ncoords=n // 2)
        write_scatter_svg(records, tmp_path / "ref.svg", p)
        assert csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert svg.read_bytes() == (tmp_path / "ref.svg").read_bytes()


class TestFamiliesCommand:
    def test_listing(self, capout):
        code, out, _ = capout(
            "families", "--n", "4", "--prime", "5", "--max-k", "1"
        )
        assert code == 0
        assert out.splitlines() == [
            "3,1,-1,-3", "2,0,0,-2", "1,1,-1,-1", "1,0,0,-1", "0,0,0,0"
        ]

    def test_csv(self, capout, tmp_path):
        csv = tmp_path / "fam.csv"
        code, _, _ = capout(
            "families", "--n", "2", "--prime", "5", "--max-k", "2",
            "--csv", str(csv),
        )
        assert code == 0
        assert csv.read_text() == "x1,depth\n6,2\n1,1\n0,0\n"

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_files_match_scatter_records(self, capout, tmp_path, n, p):
        # The CLI writes its records from the verified family depths; the
        # public path recomputes every depth with scatter_records.
        ctx = ModularContext(p)
        for max_k in range(7):
            csv, svg = tmp_path / "fam.csv", tmp_path / "fam.svg"
            code, out, _ = capout(
                "families", "--n", str(n), "--prime", str(p),
                "--max-k", str(max_k), "--csv", str(csv), "--svg", str(svg),
            )
            assert (code, out) == (0, "")
            records = scatter_records(
                generate_family_set(n, ctx, max_k), ctx, max_k
            )
            write_scatter_csv(records, tmp_path / "ref.csv", ncoords=n // 2)
            write_scatter_svg(records, tmp_path / "ref.svg", p)
            assert csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert svg.read_bytes() == (tmp_path / "ref.svg").read_bytes()


class TestVerifyCommand:
    def test_small_run(self, capout):
        code, out, _ = capout("verify", "--samples", "50", "--seed", "3")
        assert code == 0
        assert out.count(": ok") == 3


class TestUsageErrors:
    def test_unknown_command(self, capout):
        code, _, _ = capout("bogus")
        assert code == 1

    def test_missing_required(self, capout):
        code, _, _ = capout("count", "--n", "4")
        assert code == 1

    def test_bad_int(self, capout):
        code, _, _ = capout("count", "--n", "x", "--k", "1")
        assert code == 1


class TestDeterminism:
    def test_repeat_runs_identical(self, capout):
        a = capout("families", "--n", "4", "--prime", "5", "--max-k", "3")
        b = capout("families", "--n", "4", "--prime", "5", "--max-k", "3")
        assert a == b

    def test_jobs_do_not_change_output(self, capout):
        a = capout("enumerate", "--n", "4", "--prime", "7", "--k", "2",
                   "--jobs", "1")
        b = capout("enumerate", "--n", "4", "--prime", "7", "--k", "2",
                   "--jobs", "2")
        assert a == b
