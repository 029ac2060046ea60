import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
import typing
from pathlib import Path

import pytest

import lvweights
import lvweights.cli as cli
import lvweights.enumeration as enumeration
from lvweights import (
    ModularContext,
    SearchBox,
    closed_family,
    count_distinguished,
    enumerate_distinguished,
    generate_family_set,
    leading_coefficient,
    rho_family,
    scatter_records,
    write_scatter_csv,
    write_scatter_svg,
)
from lvweights.cli import run

ROOT = Path(__file__).resolve().parents[1]


# The argparse front end that the command table replaced, verbatim but for
# its two names and the description: the oracle of the table's parser.
class _ArgparseParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for domain
    # errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_argparse_parser() -> argparse.ArgumentParser:
    parser = _ArgparseParser(prog="lvweights",
                             description=cli.__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_weight(p):
        p.add_argument("--weight", required=True,
                       help="comma-separated integers, weakly decreasing")
        p.add_argument("--sort", action="store_true",
                       help="sort the entries instead of rejecting unsorted input")

    p_lv = sub.add_parser("lv", parents=[], help="apply the forward map")
    add_weight(p_lv)
    p_lv.add_argument("--base", type=int, choices=(0, 1), default=1,
                      help="first column index (default 1)")

    p_it = sub.add_parser("iterate", help="full iteration trace as JSON")
    add_weight(p_it)
    p_it.add_argument("--prime", type=int, required=True)
    p_it.add_argument("--cap", type=int, default=64)

    p_ck = sub.add_parser("check", help="minimal iteration depth, if any")
    add_weight(p_ck)
    p_ck.add_argument("--prime", type=int, required=True)
    p_ck.add_argument("--cap", type=int, default=64)

    p_en = sub.add_parser("enumerate",
                          help="construct the distinguished weights")
    p_en.add_argument("--n", type=int, required=True)
    p_en.add_argument("--prime", type=int, required=True)
    p_en.add_argument("--k", type=int, required=True)
    p_en.add_argument("--bound", type=int, default=None,
                      help="keep weights with max |entry| <= this "
                           "(default: largest staircase entry)")
    p_en.add_argument("--jobs", type=int, default=1,
                      help="at least 1; does not change the output")
    p_en.add_argument("--csv", default=None, help="write scatter CSV here")
    p_en.add_argument("--svg", default=None, help="write log-scaled SVG here")

    p_ct = sub.add_parser("count", help="exact count via the recursion")
    p_ct.add_argument("--n", type=int, required=True)
    p_ct.add_argument("--k", type=int, required=True)

    p_cf = sub.add_parser("coeff", help="leading growth coefficient")
    p_cf.add_argument("--n", type=int, required=True)

    p_fa = sub.add_parser("families", help="closed-form families (n <= 4)")
    p_fa.add_argument("--n", type=int, choices=(2, 3, 4), required=True)
    p_fa.add_argument("--prime", type=int, required=True)
    p_fa.add_argument("--max-k", type=int, required=True)
    p_fa.add_argument("--csv", default=None)
    p_fa.add_argument("--svg", default=None)

    p_vf = sub.add_parser("verify", help="run the randomized property suite")
    p_vf.add_argument("--samples", type=int, default=10000)
    p_vf.add_argument("--seed", type=int, default=0)

    return parser


def parsed(build_parser, argv):
    """(exit code, the namespace's attributes or None, stdout, stderr) of
    ``build_parser().parse_args(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = vars(build_parser().parse_args(argv))
        return 0, args, out.getvalue(), err.getvalue()
    except SystemExit as exc:
        return exc.code, None, out.getvalue(), err.getvalue()


def assert_parses_as_argparse(argv):
    """The table's parser gives argparse's exit code and namespace; when it
    refuses argv, stdout is empty and stderr ends in one error line."""
    code, args, out, err = parsed(cli.build_parser, argv)
    assert (code, args) == parsed(build_argparse_parser, argv)[:2], argv
    if code == 1:
        assert out == "" and err.splitlines()[-1].startswith(
            "lvweights: error: "), (argv, out, err)


@pytest.fixture()
def capout(capsys):
    def invoke(*argv):
        assert_parses_as_argparse(list(argv))  # every argv the tests run
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

    @pytest.mark.parametrize("argv", [
        ("--weight", "2, 1"), ("--weight=+2,1",), ("--weight", "1_0,1"),
    ])
    def test_refuses_text_off_the_grammar(self, capout, argv):
        # Each once exited 0; "1_0,1" printed {"mu":[[9,2]]}.
        code, out, err = capout("lv", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("lvweights: error: cannot parse weight from ")


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

    @pytest.mark.parametrize("command", ["iterate", "check"])
    def test_a_negative_cap_is_refused(self, capout, command):
        code, out, err = capout(command, "--weight", "2,0,-2", "--prime", "5",
                                "--cap", "-1")
        assert (code, out) == (2, "")
        assert err == "lvweights: error: cap must be >= 0, got -1\n"


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

    @pytest.mark.parametrize("n", [10**5, 10**9, 10**400])
    def test_coeff_refused_before_it_is_computed(self, capout, monkeypatch,
                                                 n):
        # From n = 6,506 on at 4,300 digits, and for any n past a float,
        # the bound refuses the coefficient unseen.
        def compute(n):
            raise AssertionError("the coefficient was computed")

        monkeypatch.setattr(cli, "_leading_terms", compute)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            code, out, err = capout("coeff", "--n", str(n))
            assert time.perf_counter() - start < 1.0
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (2, "")
        assert (f"coeff n = {n} has more than 4300 decimal digits, the limit "
                "for integer string conversion") in err

    def test_coeff_prints_the_reduced_fraction(self, capout):
        # The CLI prints integers it reduces itself; leading_coefficient's
        # Fraction is the oracle, numerator and denominator alike.
        for n in [*range(201), 2000]:
            c = leading_coefficient(n)
            assert capout("coeff", "--n", str(n)) == (
                0, f"{c.numerator}/{c.denominator}\n", ""), n

    def test_coeff_refusal_is_that_of_the_fraction(self, capout):
        # n = 3194 is refused whole, on the same value the Fraction gives:
        # its larger term has 4,301 digits, n = 3193's has fewer.
        big = [max(c.numerator, c.denominator) for c in
               map(leading_coefficient, (3193, 3194))]
        assert big[0] < 10**4300 <= big[1]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            refused = capout("coeff", "--n", "3194")
        finally:
            sys.set_int_max_str_digits(limit)
        assert refused == (2, "", "lvweights: error: coeff n = 3194 has more "
                           "than 4300 decimal digits, the limit for integer "
                           "string conversion\n")

    def test_coeff_bound_is_at_most_the_true_digits(self):
        # a_m / h! reduced, m = floor((n+1)/2), h = floor(n/2): the bound
        # never exceeds log10 of its denominator, read off bit_length.
        assert cli._coeff_log10_at_least(6505) < 4301 < (
            cli._coeff_log10_at_least(6506))
        tel, fact = [1, 1], [1]
        for i in range(2, 3302):
            tel.append(tel[-1] + (i - 1) * tel[-2])
        for i in range(1, 3301):
            fact.append(fact[-1] * i)
        for n in range(6601):
            m, h = (n + 1) // 2, n // 2
            den = fact[h] // math.gcd(tel[m], fact[h])
            if n in (0, 7, 100, 3194, 6600):
                assert den == leading_coefficient(n).denominator, n
            digits_at_least = (den.bit_length() - 1) * math.log10(2)
            assert cli._coeff_log10_at_least(n) <= digits_at_least + 1e-9, n

    def test_coeff_of_a_negative_n(self, capout):
        code, out, err = capout("coeff", "--n", "-1")
        assert (code, out) == (2, "")
        assert "n must be >= 0, got -1" in err


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

    # Cases refused under the earlier 20,000-weight limit keep their ids.
    @pytest.mark.parametrize("n,k,p,match", [
        (42, 1, 43, "more than 50000 distinguished weights"),
        (18, 3, 19, "more than 50000 distinguished weights"),
        pytest.param(21, 2, 23, "more than 39366 index cells",
                     id="21-2-23-more than 20000 distinguished weights"),
        (22, 2, 23, "more than 39366 index cells"),
        pytest.param(8, 1000, 11, "more than 50000 distinguished weights",
                     id="8-1000-11-more than 20000 distinguished weights"),
        pytest.param(2, 10**9, 3, "more than 50000 distinguished weights",
                     id="2-1000000000-3-more than 20000 distinguished "
                        "weights"),
        (4, 139, 20000000000000000011,
         "more than 134217728 bytes of text at n = 4, k = 139"),
    ])
    def test_size_guards(self, capout, monkeypatch, n, k, p, match):
        # Refused before the cell index is built, any cell is compiled or
        # p**k computed; (4, 139) at a 20-digit prime would print 122 MB.
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
        # A lost or a duplicated level-1 weight fails the count check: a
        # RuntimeError, reported as one error line, not a traceback with
        # the usage-error code.
        level_one = enumeration._level_one
        for wrong in (lambda ws: ws[1:],
                      lambda ws: ws[:-1] + ws[:1]):  # first twice, last lost
            monkeypatch.setattr(enumeration, "_level_one",
                                lambda l: wrong(level_one(l)))
            code, out, err = capout("enumerate", "--n", "6", "--prime", "7",
                                    "--k", "1")
            assert (code, out) == (2, "")
            assert err.startswith(
                "lvweights: error: D(n = 6, k = 1) at p = 7 ")
            assert "but count(n, k) = 11" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_nonpositive_jobs(self, capout, jobs):
        code, out, err = capout("enumerate", "--n", "4", "--prime", "5",
                                "--k", "1", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "jobs must be >= 1" in err

    def test_jobs_are_refused_before_any_work(self, capout, monkeypatch):
        def sized(*args):
            raise AssertionError("the size check ran before the refusal")

        monkeypatch.setattr(cli, "_check_size", sized)
        code, out, err = capout("enumerate", "--n", "4", "--prime", "5",
                                "--k", "1", "--jobs", "0")
        assert (code, out) == (2, "")
        assert err == "lvweights: error: --jobs must be >= 1, got 0\n"

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
    def test_files_match_scatter_records(self, capout, tmp_path, n, k,
                                         bound, p, jobs):
        # The CLI writes the depths its construction found, its CSV rows
        # unchecked; the public path recomputes every depth with
        # scatter_records, and its writers check every row.
        csv, svg = tmp_path / "pts.csv", tmp_path / "pts.svg"
        code, out, _ = capout(
            "enumerate", "--n", str(n), "--prime", str(p), "--k", str(k),
            "--bound", str(bound), "--jobs", str(jobs),
            "--csv", str(csv), "--svg", str(svg),
        )
        assert (code, out) == (0, "")
        box = SearchBox(n, k, bound, p)
        rows = scatter_records(
            enumerate_distinguished(box), ModularContext(p), k
        )
        assert len({depth for _, depth in rows}) > 1
        write_scatter_csv(rows, tmp_path / "ref.csv", ncoords=n // 2)
        write_scatter_svg(rows, tmp_path / "ref.svg", p)
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
        # The CLI writes its rows from the verified family depths; the
        # public path recomputes every depth with scatter_records.
        ctx = ModularContext(p)
        for max_k in range(7):
            csv, svg = tmp_path / "fam.csv", tmp_path / "fam.svg"
            code, out, _ = capout(
                "families", "--n", str(n), "--prime", str(p),
                "--max-k", str(max_k), "--csv", str(csv), "--svg", str(svg),
            )
            assert (code, out) == (0, "")
            rows = scatter_records(
                generate_family_set(n, ctx, max_k), ctx, max_k
            )
            write_scatter_csv(rows, tmp_path / "ref.csv", ncoords=n // 2)
            write_scatter_svg(rows, tmp_path / "ref.svg", p)
            assert csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert svg.read_bytes() == (tmp_path / "ref.svg").read_bytes()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_trusted_records_pass_the_constructor(self, capout, tmp_path,
                                                  n, p):
        # Every row the CLI writes unchecked, straight from its depth map,
        # passes write_scatter_csv's row check unchanged, and
        # write_scatter_csv writes those rows to the same bytes.
        csv, ref = tmp_path / "fam.csv", tmp_path / "ref.csv"
        for max_k in range(13):
            code, out, _ = capout(
                "families", "--n", str(n), "--prime", str(p),
                "--max-k", str(max_k), "--csv", str(csv),
            )
            assert (code, out) == (0, "")
            rows = []
            for line in csv.read_text().splitlines()[1:]:
                *coords, depth = map(int, line.split(","))
                row = enumeration._scatter_row(tuple(coords), depth)
                assert row == (tuple(coords), depth)
                rows.append(row)
            assert len(rows) == count_distinguished(n, max_k)
            write_scatter_csv(rows, ref, ncoords=n // 2)
            assert ref.read_bytes() == csv.read_bytes()

    def test_a_lost_member_exits_2(self, capout, monkeypatch):
        # The members are counted on every call: one lost raises from
        # generate_family_set, and the CLI reports it in one error line.
        params = enumeration._family_params
        monkeypatch.setattr(enumeration, "_family_params",
                            lambda n, max_k: list(params(n, max_k))[1:])
        with pytest.raises(RuntimeError, match=r"18 weights, but count\(n, "
                                               r"max_k\) = 19$"):
            generate_family_set(4, ModularContext(5), 3)
        code, out, err = capout("families", "--n", "4", "--prime", "5",
                                "--max-k", "3")
        assert (code, out) == (2, "")
        assert err == ("lvweights: error: the families of n = 4, max_k = 3 "
                       "at p = 5 give 18 weights, but count(n, max_k) = 19\n")

    @pytest.mark.parametrize("chunk", [1, 2, 7, 100])
    def test_chunked_writes_give_the_same_bytes(self, capout, monkeypatch,
                                                tmp_path, chunk):
        # Stdout, the CSV and the SVG go out about a budget of characters
        # per write: here under one line, or 100, which splits the 212
        # characters of stdout mid-way; the budget never shows.
        listing = ("families", "--n", "4", "--prime", "5", "--max-k", "3")
        csv, svg = tmp_path / "fam.csv", tmp_path / "fam.svg"
        files = ("--csv", str(csv), "--svg", str(svg))
        whole = capout(*listing)
        assert (len(whole[1]), len(whole[1].splitlines())) == (212, 19)
        assert capout(*listing, *files) == (0, "", "")
        whole_files = csv.read_bytes(), svg.read_bytes()
        monkeypatch.setattr(enumeration, "_CHUNK", chunk)
        assert capout(*listing) == whole
        assert capout(*listing, *files) == (0, "", "")
        assert (csv.read_bytes(), svg.read_bytes()) == whole_files

    def test_stdout_is_written_a_chunk_at_a_time(self, monkeypatch):
        # 19 lines of 8 to 14 characters: one line a write while the budget
        # is under a line, at 100 as many lines as it holds copies of each
        # write's first, and all at once at the default; no write is over
        # the budget by more than one line.
        class Writes(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        for chunk, sizes in [(1, None), (2, None), (7, None),
                             (100, [89, 87, 36]), (enumeration._CHUNK, [212])]:
            out = Writes()
            monkeypatch.setattr(enumeration, "_CHUNK", chunk)
            with contextlib.redirect_stdout(out):
                assert run(["families", "--n", "4", "--prime", "5",
                            "--max-k", "3"]) == 0
            lines = list(map(len, out.getvalue().splitlines(True)))
            assert (len(lines), sum(lines)) == (19, 212)
            assert out.sizes == (sizes or lines)
            assert max(out.sizes) <= chunk + max(lines)

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
        family_member = enumeration._family_member

        def wrong(n, family_id, params, g):
            w, depth = family_member(n, family_id, params, g)
            return w, depth + ((family_id, params) == ("F1", (1,)))

        monkeypatch.setattr(enumeration, "_family_member", wrong)
        code, out, err = capout("families", "--n", "4", "--prime", "5",
                                "--max-k", "3")
        assert (code, out) == (2, "")
        assert "family F1 params (1,): expected depth 2" in err
        with pytest.raises(ValueError, match="expected depth 2"):
            closed_family(4, "F1", (1,), ModularContext(5))

    @pytest.mark.parametrize("max_k", [223, 400, 10**9])
    def test_member_count_guard(self, capout, monkeypatch, max_k):
        # n = 4 has 50,399 members to depth 223 and 161,201 to depth 400:
        # refused by the weight limit ``enumerate`` has too, before any
        # member is built, a huge --max-k at once.
        def family_depths(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(cli, "_family_depths", family_depths)
        start = time.perf_counter()
        code, out, err = capout("families", "--n", "4", "--prime", "5",
                                "--max-k", str(max_k))
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "more than 50000 distinguished weights" in err

    def test_text_size_guard(self, capout, monkeypatch):
        # 49,951 members, allowed at p = 5, but at a 20-digit prime their
        # entries reach 4,267 digits, about 853 MB of text: refused before
        # any member is built.
        def family_depths(*args):
            raise AssertionError("a family member was built")

        monkeypatch.setattr(cli, "_family_depths", family_depths)
        start = time.perf_counter()
        code, out, err = capout("families", "--n", "4", "--prime",
                                "20000000000000000011", "--max-k", "222")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert "more than 134217728 bytes of text at n = 4, k = 222" in err

    @pytest.mark.parametrize("n,p,k", [(2, 3, 12), (3, 7, 30), (4, 5, 20),
                                       (4, 11, 40), (4, 5, 200)])
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

    @pytest.mark.parametrize("flag", ["--csv=", "--svg="])
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "2", "--prime", "5", "--k", "1"],
        ["families", "--n", "2", "--prime", "5", "--max-k", "1"],
    ], ids=["enumerate", "families"])
    def test_empty_path_is_refused(self, capout, argv, flag):
        # An empty path cannot be opened; it once sent the weights to
        # stdout and exited 0.
        code, out, err = capout(*argv, flag)
        assert (code, out) == (2, "")
        assert err.startswith("lvweights: error: ") and err.count("\n") == 1


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

        monkeypatch.setattr(cli, "suite_failures", ran)
        code, out, err = capout("verify", "--samples", samples)
        assert (code, out) == (2, "")
        assert f"--samples must be >= 1, got {samples}" in err

    def test_failing_check_exits_2(self, capout, monkeypatch):
        # A check with counterexamples fails the run; the others still
        # report, and stderr lists the first 5 of its 7 weights.
        bad = [(i, -i) for i in range(7)]
        monkeypatch.setattr(cli, "suite_failures", lambda *args: ([], [], bad))
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


# Argvs at the edges of the grammar, each compared with argparse.  The `--`
# forms are left out: argparse's reading of them changed from 3.10 to 3.12.
EDGE_CASES = [
    # --flag value, --flag=value, unique prefixes of long flags
    ["count", "--n=4", "--k", "2"], ["lv", "--weight=1,0", "--base=0"],
    ["families", "--n", "4", "--pr", "5", "--max", "3"],
    ["enumerate", "--n", "2", "--p", "5", "--k", "1", "--b", "3", "--j", "2",
     "--c", "x.csv", "--sv", "y.svg"],
    ["lv", "--w", "1,0", "--s"], ["check", "--w=1,0", "--pr=5", "--ca=3"],
    ["verify", "--sa", "5", "--se", "2"], ["verify", "--s", "1"],
    ["verify", "-h", "--s"], ["count", "--=x"], ["--=x"],
    # the last of a repeated flag wins
    ["count", "--n", "4", "--n", "5", "--k", "1"],
    ["lv", "--weight", "1", "--sort", "--sort", "--weight", "2,1"],
    # int() reads each value
    ["count", "--n", "+4", "--k", "1_0"], ["count", "--n", " 4 ", "--k", "1"],
    ["count", "--n", "\u0664", "--k", "1"], ["count", "--n", "1" * 5000, "--k", "1"],
    ["lv", "--weight", "1", "--base", "+1"], ["lv", "--weight", "1", "--base", "01"],
    # a value that starts with "-": a negative number, "-", or words with
    # a space; anything else only after "="
    ["enumerate", "--n", "2", "--prime", "5", "--k", "1", "--bound", "-5"],
    ["coeff", "--n", "-1"], ["count", "--n", "4", "--k", "-1.5"],
    ["count", "--n", "-1.", "--k", "1"], ["count", "--n", "-.5", "--k", "1"],
    ["count", "--n", "-\u0664", "--k", "1"],  # a non-ASCII digit, read as -4
    ["count", "--n", "-\u0664.5", "--k", "1"], ["count", "--n", "-.", "--k", "1"],
    ["lv", "--weight", "-1,-2"], ["lv", "--weight=-1,-2"],
    ["lv", "--weight", "-1"], ["lv", "--weight", "-"], ["lv", "--weight", "- 1"],
    ["lv", "--weight", "-1 ,-2"], ["lv", "--weight", "-5\n"],
    ["families", "--n", "4", "--prime", "5", "--max-k", "2", "--svg=-"],
    ["families", "--n", "2", "--prime", "5", "--max-k", "1", "--csv="],
    ["iterate", "--weight", "1,0", "--prime", "5", "--cap", "-1"],
    # unknown flags and stray words, refused after the rest is read
    ["count", "--n", "1", "--k", "1", "--bogus"],
    ["--bogus", "count", "--n", "1", "--k", "1"], ["--bogus"], ["--bogus", "x"],
    ["count", "--bogus=-1", "--n", "1", "--k", "1"],
    ["count", "-x", "--n", "1", "--k", "1"], ["count", "--bogus", "-h"],
    ["count", "--n", "1", "--k", "1", "extra"], ["count", "x", "--n", "1"],
    ["count", "-5", "--n", "1", "--k", "1"], ["count", "--n", "4", "--k", "1", "-"],
    # missing values and required flags
    ["count", "--n"], ["count", "--n", "--k", "1"], ["lv", "--weight", "--sort"],
    ["count", "--n", "-h"], ["count", "--n", "1", "--k", "1", "--n", "-h"],
    ["enumerate", "--n", "4", "--prime", "5", "--k", "1", "--csv", "--svg"],
    ["count", "--n=", "--k", "1"], ["count", "--n", "4"], ["lv"], [],
    ["families", "--n", "2", "--prime", "5"], ["verify"],
    # a bad int or choice; a switch given a value
    ["count", "--n", "x", "--k", "1"], ["lv", "--weight", "1", "--base", "2"],
    ["lv", "--weight", "1", "--base=x"], ["families", "--n", "5", "--prime", "7",
                                          "--max-k", "1"],
    ["lv", "--weight", "1", "--sort=x"], ["lv", "--weight", "1", "--sort="],
    # commands, and help wherever it stands
    ["bogus"], ["Count"], ["coun"], ["-"], ["-5"], ["bogus", "-h"],
    ["-h", "bogus"], ["-h"], ["--help"], ["--h"], ["--hel"], ["-h=x"],
    ["--help=x"], ["-hx"], ["--bogus", "-h"], ["count", "-h"], ["count", "--he"],
    ["count", "--n", "x", "-h"], ["count", "-h", "--n", "x"],
    ["lv", "--weight", "1", "-h=x"],
]


def _argv_id(argv):
    return " ".join(argv)[:40] or "(none)"


def _documented_argvs(paths=("README.md", ".github/workflows/tests.yml")):
    """Each distinct argv that the README's examples and the CI workflow
    (or the files of ``paths``) run, up to a pipe, redirection or comment.
    Inside a ``for run in "a b" ...; do read -r x y <<< "$run"`` loop the
    argv is taken once per item, with x and y read as its fields; any other
    shell variable or substitution is read as 7."""
    argvs, items, runs = [], [], [{}]
    for path in map(ROOT.joinpath, paths):
        for line in path.read_text().splitlines():
            if loop := re.search(r"\bfor \w+ in (.*); do$", line):
                items = shlex.split(loop.group(1))
            elif fields := re.search(r"\bread -r ([\w ]+) <<< ", line):
                runs = [dict(zip(fields.group(1).split(), item.split()))
                        for item in items]
            elif re.match(r"\s*done\b", line):
                items, runs = [], [{}]
            m = re.search(r"(?:lvweights(?:\.cli)?|refuse|usage) ((?:lv|iterate|"
                          r"check|enumerate|count|coeff|families|verify)\b"
                          r"[^|)#`<>]*)", line)
            for run in runs if m else ():
                argv = shlex.split(re.sub(
                    r"\$\(.*|\$\{?(\w+)\}?",
                    lambda v: run.get(v.group(1), "7"), m.group(1)))
                if argv not in argvs:
                    argvs.append(argv)
    return argvs


def _workload_argvs():
    """Each argv of the bench's workloads, at full size and tiny."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclass
    spec.loader.exec_module(workloads)
    ops = [workloads.deep_check_op(workloads.FULL)] + [
        op for sizes in (workloads.FULL, workloads.TINY)
        for name in workloads.WORKLOADS
        for op in workloads.pass_ops(name, sizes, 0)]
    return [[a or "out.csv" for a in op["argv"]] for op in ops
            if op["kind"] == "cli"]


# One valid argv of each command: argparse names its flags.
VALID = {
    "lv": ["--weight", "1,0"], "iterate": ["--weight", "1,0", "--prime", "5"],
    "check": ["--weight", "1,0", "--prime", "5"],
    "enumerate": ["--n", "2", "--prime", "5", "--k", "1"],
    "count": ["--n", "4", "--k", "2"], "coeff": ["--n", "4"],
    "families": ["--n", "2", "--prime", "5", "--max-k", "1"], "verify": [],
}


class TestParser:
    @pytest.mark.parametrize("argv", EDGE_CASES, ids=_argv_id)
    def test_edge_cases_parse_as_argparse(self, argv):
        assert_parses_as_argparse(argv)

    @pytest.mark.parametrize("argv", _documented_argvs(), ids=_argv_id)
    def test_documented_argvs_parse_as_argparse(self, argv):
        assert_parses_as_argparse(argv)

    def test_the_documents_were_read(self):
        # The README's five examples and at least the CI's refusals.
        assert len(_documented_argvs()) > 20

    @pytest.mark.parametrize("argv", _workload_argvs(), ids=_argv_id)
    def test_workload_argvs_parse_as_argparse(self, argv):
        assert_parses_as_argparse(argv)
        assert parsed(cli.build_parser, argv)[0] == 0

    @pytest.mark.parametrize("argv", _documented_argvs(["README.md"])
                             + _workload_argvs(), ids=_argv_id)
    def test_plain_argvs_run_no_pattern(self, monkeypatch, argv):
        # No argv that the README or the bench runs holds a value that
        # starts with "-", so none pays for the negative-number pattern.
        def refuse(*args):
            raise AssertionError(f"re.match{args}")
        parsed_before = parsed(cli.build_parser, argv)
        monkeypatch.setattr(re, "match", refuse)
        assert parsed(cli.build_parser, argv) == parsed_before

    @pytest.mark.parametrize("argv", [
        ["count", "--n", "1", "--k", "1", "--"],
        ["count", "--", "--n", "1", "--k", "1"],
        ["count", "--n", "--", "1", "--k", "1"],
        ["--", "count", "--n", "1", "--k", "1"],
        ["count", "-h", "--"],
    ], ids=_argv_id)
    def test_double_dash_is_refused(self, capsys, argv):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == 'lvweights: error: "--" is not supported\n'

    @pytest.mark.parametrize("command", VALID)
    def test_help_names_every_flag(self, capout, command):
        flags = ["--" + name.replace("_", "-") for name in
                 parsed(build_argparse_parser, [command, *VALID[command]])[1]
                 if name != "command"]
        for help_flag in ("-h", "--help"):
            code, out, err = capout(command, *VALID[command], help_flag)
            assert (code, err) == (0, "")
            assert out.startswith(f"usage: lvweights {command} ")
            for flag in flags:
                assert re.search(rf"^  {flag}\b", out, re.M), (flag, out)

    def test_help_names_every_command(self, capout):
        code, out, err = capout("--help")
        assert (code, err) == (0, "")
        for command in VALID:
            assert re.search(rf"^  {command}\b", out, re.M), (command, out)

    def test_usage_errors_name_the_fault(self, capout):
        assert capout("count", "--n", "4")[2] == (
            "lvweights: error: count needs --k\n")
        assert capout("coeff", "--n", "4", "--k", "1")[2] == (
            "lvweights: error: unrecognized arguments: --k 1\n")
        assert capout("families", "--n", "5", "--prime", "7", "--max-k",
                      "1")[2] == ("lvweights: error: --n must be one of "
                                  "(2, 3, 4), got '5'\n")


def _cold_modules(code, names):
    """The modules of ``names`` loaded after ``code`` runs in a cold
    ``python -I -S``: no site packages and no PYTHONPATH, so only what the
    package itself imports is loaded."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); {code}; "
            f"print(sorted({set(names)!r} & sys.modules.keys()))")
    return subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True,
                          timeout=60).stdout


def test_cold_import_loads_no_dataclasses_or_introspection():
    # Nor argparse, or the gettext and locale it loads for its messages.
    assert _cold_modules("import lvweights.cli", [
        "dataclasses", "inspect", "ast", "dis", "argparse", "gettext",
        "locale"]) == "[]\n"


def test_a_cli_run_loads_no_argparse_gettext_or_locale():
    code = ("import lvweights.cli; "
            "assert lvweights.cli.run(['count', '--n', '4', '--k', '2']) == 0")
    assert _cold_modules(code, ["argparse", "gettext", "locale"]) == (
        "11\n[]\n")


# Standard modules that only some commands need: each is imported where it
# is used, so a command loads only those it runs.
_LATE = ["fractions", "decimal", "numbers", "json", "re", "random"]


@pytest.mark.parametrize("code", ["import lvweights", "import lvweights.cli"])
def test_cold_import_loads_no_late_module(code):
    assert _cold_modules(code, _LATE) == "[]\n"


@pytest.mark.parametrize("argv, loaded", [
    (["count", "--n", "4", "--k", "2"], []),
    (["coeff", "--n", "2000"], []),
    (["enumerate", "--n", "4", "--prime", "7", "--k", "2"], []),
    (["families", "--n", "4", "--prime", "5", "--max-k", "3", "--csv"], []),
    (["verify", "--samples", "20", "--seed", "1"], ["random"]),
    (["check", "--weight", "2,0,-2", "--prime", "5"], ["re"]),
    (["lv", "--weight", "3,1,0,-4"], ["json", "re"]),
    (["iterate", "--weight", "2,0,-2", "--prime", "5"], ["json", "re"]),
], ids=_argv_id)
def test_a_command_loads_only_the_late_modules_it_runs(tmp_path, argv,
                                                        loaded):
    if argv[-1] == "--csv":
        argv = [*argv, str(tmp_path / "out.csv")]
    code = f"import lvweights.cli; assert lvweights.cli.run({argv!r}) == 0"
    out = _cold_modules(code, _LATE)
    assert out.splitlines()[-1] == repr(loaded), out


@pytest.mark.parametrize("first", ["lvweights.Rational",
                                   "lvweights.core.Rational"])
def test_rational_is_fraction_loaded_on_first_access(first):
    code = ("import lvweights; assert 'fractions' not in sys.modules; "
            f"first = {first}; import fractions; "
            "assert first is lvweights.Rational is lvweights.core.Rational "
            "is fractions.Fraction")
    assert _cold_modules(code, ["fractions"]) == "['fractions']\n"


def test_dir_lists_every_public_name():
    code = ("import lvweights; "
            "assert set(lvweights.__all__) <= set(dir(lvweights))")
    assert _cold_modules(code, _LATE) == "[]\n"
    assert set(lvweights.__all__) <= set(dir(lvweights))


@pytest.mark.parametrize("module", ["lvweights", "lvweights.core"])
def test_an_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match=rf"^module '{module}' has no "
                       "attribute 'no_such_name'$"):
        getattr(sys.modules[module], "no_such_name")


@pytest.mark.parametrize("module", [
    "lvweights.core", "lvweights.counting", "lvweights.enumeration",
    "lvweights.lv_algorithm", "lvweights.modular_iteration",
    "lvweights.verify", "lvweights.cli"])
def test_every_public_annotation_resolves(module):
    # Annotations are strings until read; a name each module loads late
    # (Rational) resolves when it is read.
    module = importlib.import_module(module)
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isclass(value):
            functions = [f for f in vars(value).values()
                         if inspect.isfunction(f)]
        else:
            functions = [value] if inspect.isfunction(value) else []
        for function in functions:
            typing.get_type_hints(function)
