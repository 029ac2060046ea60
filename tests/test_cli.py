import json
import sys
import time

import pytest

import lvweights.cli as cli
import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    ScatterRecord,
    SearchBox,
    closed_family,
    count_distinguished,
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


@pytest.fixture()
def trusted_records(monkeypatch):
    """Every record ``ScatterRecord._of`` builds during the test, each
    checked against the validating constructor: ``_of`` trusts its caller,
    so this is its differential oracle."""
    of, seen = ScatterRecord._of, []

    def check(coords, depth):
        rec = of(coords, depth)
        assert rec == ScatterRecord(rec.coords, rec.depth), rec
        seen.append(rec)
        return rec

    monkeypatch.setattr(ScatterRecord, "_of", check)
    return seen


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

    def test_count_far_past_the_table(self, capout):
        code, out, _ = capout("count", "--n", "24", "--k", "1000000")
        assert code == 0
        assert out.endswith("\n") and out[:-1].isdigit()

    def test_count_refusals(self, capout):
        # n over the counting limit, and a count of about 4,800 digits.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            too_long = capout("count", "--n", "65", "--k", "1")
            too_wide = capout("count", "--n", "24", "--k", "1" + "0" * 400)
        finally:
            sys.set_int_max_str_digits(limit)
        assert too_long[:2] == (2, "")
        assert "count n = 65 is over the limit of 64" in too_long[2]
        assert too_wide[:2] == (2, "")
        assert ("the count has more than 4300 decimal digits, the limit for "
                "integer string conversion") in too_wide[2]

    def test_coeff(self, capout):
        code, out, _ = capout("coeff", "--n", "6")
        assert (code, out) == (0, "2/3\n")

    def test_coeff_integer_value(self, capout):
        code, out, _ = capout("coeff", "--n", "4")
        assert (code, out) == (0, "1/1\n")

    def test_coeff_digit_limit(self, capout):
        # At the default limit of 4,300 digits, n = 3193 prints a 4,298-digit
        # denominator and n = 3194 (4,301 digits) is refused.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, _ = capout("coeff", "--n", "3193")
            assert code == 0
            assert len(out.strip().split("/")[1]) == 4298
            code, out, err = capout("coeff", "--n", "3194")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert ("more than 4300 decimal digits, the limit for integer "
                "string conversion") in err


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

    @pytest.mark.parametrize("n,k,p,match", [
        (37, 1, 41, "more than 20000 distinguished weights"),
        (21, 2, 23, "more than 20000 distinguished weights"),
        (8, 1000, 11, "more than 20000 distinguished weights"),
        (2, 10**9, 3, "more than 20000 distinguished weights"),
    ])
    def test_size_guards(self, capout, monkeypatch, n, k, p, match):
        # Refused before the cell index is built, any cell is compiled or
        # p**k computed.
        def build(*args):
            raise AssertionError("work was done before the refusal")

        cells = enumeration._cells
        before = cells.cache_info().currsize
        monkeypatch.setattr(enumeration, "_cells", build)
        monkeypatch.setattr(enumeration, "_compile_cell", build)
        monkeypatch.setattr(enumeration, "_construct", build)
        start = time.perf_counter()
        code, out, err = capout("enumerate", "--n", str(n), "--prime",
                                str(p), "--k", str(k))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert match in err
        assert cells.cache_info().currsize == before

    def test_entry_size_guard(self, capout, monkeypatch):
        # D(2, 10000) at p = 3 has 10,001 weights, under the weight limit,
        # but entries of 4,771 digits, which no weight could be printed with.
        def construct(*args):
            raise AssertionError("D(n, k) was built")

        monkeypatch.setattr(enumeration, "_construct", construct)
        limit = sys.get_int_max_str_digits()
        code, out, err = capout("enumerate", "--n", "2", "--prime", "3",
                                "--k", "10000")
        assert (code, out) == (2, "")
        assert f"more than {limit} decimal digits" in err

    @pytest.mark.parametrize("n,k,p", [(40, 0, 41), (1, 10**9, 2)])
    def test_only_the_zero_weight(self, capout, n, k, p):
        code, out, _ = capout("enumerate", "--n", str(n), "--prime", str(p),
                              "--k", str(k))
        assert (code, out) == (0, ",".join(["0"] * n) + "\n")

    @pytest.mark.parametrize("n", [0, 1])
    def test_csv_without_coordinates(self, capout, tmp_path, n):
        csv = tmp_path / "pts.csv"
        code, out, _ = capout("enumerate", "--n", str(n), "--prime", "3",
                              "--k", "1", "--csv", str(csv))
        assert (code, out) == (0, "")
        assert csv.read_bytes() == b"depth\n0\n"

    def test_construction_fault_exits_2(self, capout, monkeypatch):
        # A lost weight fails the count check: a RuntimeError, reported as
        # one error line, not a traceback with the usage-error code.
        neutral_elements = enumeration._neutral_elements
        monkeypatch.setattr(enumeration, "_neutral_elements",
                            lambda l: neutral_elements(l)[1:])
        code, out, err = capout("enumerate", "--n", "6", "--prime", "7",
                                "--k", "1")
        assert (code, out) == (2, "")
        assert err.startswith("lvweights: error: D(n = 6, k = 1) at p = 7 ")
        assert "but count(n, k) = 11" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_nonpositive_jobs(self, capout, jobs):
        code, out, err = capout("enumerate", "--n", "4", "--prime", "5",
                                "--k", "1", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "jobs must be >= 1" in err

    def test_any_job_count_prints_serial_bytes(self, capout):
        # Any job count prints the serial bytes, however many it asks for.
        argv = ("enumerate", "--n", "4", "--prime", "5", "--k", "2")
        _, serial, _ = capout(*argv)
        code, out, _ = capout(*argv, "--jobs", "100000")
        assert (code, out) == (0, serial)

    @pytest.mark.parametrize("n,k,bound,p", [
        (2, 3, 200, 5), (3, 2, 60, 5), (4, 2, 60, 7), (5, 2, 20, 7),
        (6, 1, 12, 7),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_files_match_scatter_records(self, capout, tmp_path,
                                         trusted_records, n, k, bound, p,
                                         jobs):
        # The CLI writes the depths its construction found, in records it
        # builds trusted; the public path recomputes every depth with
        # scatter_records, and validates every record.
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
        assert trusted_records == records


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

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_trusted_records_pass_the_constructor(self, capout, tmp_path,
                                                  trusted_records, n, p):
        # Every record the CLI builds unchecked is one the validating
        # constructor accepts unchanged (the fixture's check).
        csv = tmp_path / "fam.csv"
        for max_k in range(13):
            trusted_records.clear()
            code, out, _ = capout(
                "families", "--n", str(n), "--prime", str(p),
                "--max-k", str(max_k), "--csv", str(csv),
            )
            assert (code, out) == (0, "")
            assert len(trusted_records) == count_distinguished(n, max_k)

    @pytest.mark.parametrize("svg", [False, True])
    def test_entry_size_guard(self, capout, monkeypatch, tmp_path, svg):
        # The largest member of depth <= 10,000 at p = 3 has 4,771 digits:
        # refused before any member is built, an --svg-only run too.
        def family_depths(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(cli, "_family_depths", family_depths)
        path = tmp_path / "fam.svg"
        limit = sys.get_int_max_str_digits()
        start = time.perf_counter()
        code, out, err = capout("families", "--n", "2", "--prime", "3",
                                "--max-k", "10000",
                                *(["--svg", str(path)] if svg else []))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert f"more than {limit} decimal digits" in err
        assert not path.exists()

    def test_wrong_stated_depth_is_refused(self, capout, monkeypatch):
        # A member whose stated depth iteration does not confirm fails
        # both the CLI and closed_family.
        family_weight = enumeration._family_weight

        def wrong(n, family_id, params, p):
            w, depth = family_weight(n, family_id, params, p)
            return w, depth + ((family_id, params) == ("F1", (1,)))

        monkeypatch.setattr(enumeration, "_family_weight", wrong)
        code, out, err = capout("families", "--n", "4", "--prime", "5",
                                "--max-k", "3")
        assert (code, out) == (2, "")
        assert "family F1 params (1,): expected depth 2" in err
        with pytest.raises(ValueError, match="expected depth 2"):
            closed_family(4, "F1", (1,), ModularContext(5))

    @pytest.mark.parametrize("max_k", [223, 400, 10**9])
    def test_member_count_guard(self, capout, monkeypatch, max_k):
        # n = 4 has 50,399 members to depth 223 and 161,201 to depth 400:
        # refused before any member is built, a huge --max-k at once.
        def family_depths(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(cli, "_family_depths", family_depths)
        start = time.perf_counter()
        code, out, err = capout("families", "--n", "4", "--prime", "5",
                                "--max-k", str(max_k))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "more than 50000 family members" in err

    @pytest.mark.parametrize("n,p,k", [(2, 3, 12), (3, 7, 30), (4, 5, 20),
                                       (4, 11, 40)])
    def test_csv_matches_enumerate(self, capout, tmp_path, n, p, k):
        # The closed families and the construction through the cells are
        # two routes to D(n, k) for n <= 4; their CSV files agree byte for
        # byte, depths included.
        built, closed = tmp_path / "built.csv", tmp_path / "closed.csv"
        assert capout("enumerate", "--n", str(n), "--prime", str(p),
                      "--k", str(k), "--csv", str(built)) == (0, "", "")
        assert capout("families", "--n", str(n), "--prime", str(p),
                      "--max-k", str(k), "--csv", str(closed)) == (0, "", "")
        lines = built.read_bytes().count(b"\n")
        assert lines == count_distinguished(n, k) + 1
        assert built.read_bytes() == closed.read_bytes()


class TestVerifyCommand:
    def test_small_run(self, capout):
        code, out, _ = capout("verify", "--samples", "50", "--seed", "3")
        assert code == 0
        assert out.count(": ok") == 3

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_refused(self, capout, monkeypatch, samples):
        # A run that checks nothing must not report success.
        def ran(*args):
            raise AssertionError("a check ran before the refusal")

        for check in ("r_commutation_failures", "clump_commutation_failures",
                      "round_trip_failures"):
            monkeypatch.setattr(cli, check, ran)
        code, out, err = capout("verify", "--samples", samples)
        assert (code, out) == (2, "")
        assert f"--samples must be >= 1, got {samples}" in err

    def test_failing_check_exits_2(self, capout, monkeypatch):
        # A check with counterexamples fails the run; the others still
        # report, and stderr lists the first 5 of its 7 weights.
        bad = [(i, -i) for i in range(7)]
        monkeypatch.setattr(cli, "round_trip_failures", lambda *args: bad)
        code, out, err = capout("verify", "--samples", "50", "--seed", "3")
        assert code == 2
        assert out == ("reverse-negate commutation: ok\n"
                       "single-clump commutation (base 0): ok\n")
        assert err.splitlines() == [
            "round trips and sum conservation: FAIL (7 counterexamples)",
            *(f"  {i},{-i}" for i in range(5)),
        ]


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

    @pytest.mark.parametrize("prime", ["1", "0", "-7"])
    def test_prime_below_two(self, capout, prime):
        code, out, err = capout("check", "--weight", "1,0", "--prime", prime)
        assert (code, out) == (2, "")
        assert f"p must be prime, got {prime}" in err


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
