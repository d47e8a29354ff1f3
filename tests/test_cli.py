"""Tests for the command line front end and its file formats."""

import csv
import io
import time

import numpy as np
import pytest

import cartsel.cli as cli
from cartsel.errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ParseError,
    ResourceLimitError,
)
from cartsel.oracle import brute_multi


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class CorruptedTree:
    """A built tree whose every answer has its last value off by one."""

    def __init__(self, tree):
        self._tree = tree

    def select_k(self, k):
        out = self._tree.select_k(k).copy()
        out[-1] += 1
        return out


class TestParseKSpec:
    def test_comma_list(self):
        assert cli.parse_k_spec("4,8,16") == [4, 8, 16]

    def test_power_token(self):
        assert cli.parse_k_spec("2^5") == [32]

    def test_power_range(self):
        assert cli.parse_k_spec("2^10..2^12") == [1024, 2048, 4096]

    def test_sorted_and_deduped(self):
        assert cli.parse_k_spec("16,2^2,4,16") == [4, 16]

    @pytest.mark.parametrize("spec", ("0", "-3", "a", "2^12..2^10", "", "4,,8"))
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            cli.parse_k_spec(spec)

    @pytest.mark.parametrize(
        "spec", ("2^0..2^1000000", "2^100000000", "2^63", "4,2^" + "9" * 5000, "2^00063")
    )
    def test_exponents_past_int64_rejected_at_once(self, spec):
        """An exponent above 62 is refused before any power is computed."""
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="above 62"):
            cli.parse_k_spec(spec)
        assert time.perf_counter() - start < 0.5

    def test_largest_exponent_accepted(self):
        assert cli.parse_k_spec("2^62") == [2**62]
        assert cli.parse_k_spec("2^60..2^62") == [2**60, 2**61, 2**62]


class TestInstanceFiles:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# header\n1 2 3\n\n  # note\n4 5\n")
        arrays = cli.read_instance(path)
        assert len(arrays) == 2
        np.testing.assert_array_equal(arrays[0], [1, 2, 3])
        np.testing.assert_array_equal(arrays[1], [4, 5])
        assert arrays[0].dtype == np.int64

    def test_any_float_token_promotes_the_file(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("1 2\n0.5 3\n")
        arrays = cli.read_instance(path)
        assert all(a.dtype == np.float64 for a in arrays)

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("1 2\nx 3\n")
        with pytest.raises(ParseError) as err:
            cli.read_instance(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("token", ("nan", "inf", "-inf"))
    def test_non_finite_rejected(self, tmp_path, token):
        path = tmp_path / "inst.txt"
        path.write_text(f"1 {token}\n")
        with pytest.raises(ParseError):
            cli.read_instance(path)

    @pytest.mark.parametrize("token", (str(2**63), str(-(2**63) - 1), "99999999999999999999"))
    def test_integer_beyond_int64_reports_line(self, tmp_path, token):
        path = tmp_path / "inst.txt"
        path.write_text(f"1 2\n3 {token}\n")
        with pytest.raises(ParseError) as err:
            cli.read_instance(path)
        assert err.value.line_no == 2

    def test_int64_extremes_accepted(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text(f"{2**63 - 1} {-(2**63)}\n")
        np.testing.assert_array_equal(cli.read_instance(path)[0], [2**63 - 1, -(2**63)])

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "inst.txt"
        path.write_text("# only comments\n\n")
        with pytest.raises(ParseError):
            cli.read_instance(path)

    def test_round_trip(self, tmp_path):
        arrays = [
            np.array([3, 1, 2], dtype=np.int64),
            np.array([9], dtype=np.int64),
        ]
        buf = io.StringIO()
        cli.write_instance(arrays, buf)
        path = tmp_path / "inst.txt"
        path.write_text(buf.getvalue())
        back = cli.read_instance(path)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_float_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = [rng.random(5), rng.random(3)]
        buf = io.StringIO()
        cli.write_instance(arrays, buf)
        path = tmp_path / "inst.txt"
        path.write_text(buf.getvalue())
        back = cli.read_instance(path)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)


class TestGen:
    def test_deterministic_for_seed(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            code, _, _ = run_cli(
                ["gen", "--n", "5", "--m", "3", "--seed", "7", "--out", str(p)], capsys
            )
            assert code == 0
        assert p1.read_text() == p2.read_text()
        arrays = cli.read_instance(p1)
        assert len(arrays) == 3 and all(a.size == 5 for a in arrays)

    def test_reals_distribution(self, tmp_path, capsys):
        path = tmp_path / "r.txt"
        code, _, _ = run_cli(
            ["gen", "--n", "4", "--m", "2", "--dist", "reals", "--out", str(path)],
            capsys,
        )
        assert code == 0
        arrays = cli.read_instance(path)
        assert all(a.dtype == np.float64 for a in arrays)

    def test_writes_to_stdout_by_default(self, capsys):
        code, out, _ = run_cli(["gen", "--n", "3", "--m", "2"], capsys)
        assert code == 0
        assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == 2

    def test_zero_n_rejected(self, capsys):
        code, _, err = run_cli(["gen", "--n", "0", "--m", "2"], capsys)
        assert code == 2
        assert "error" in err


class TestSelect:
    def make_instance(self, tmp_path, capsys, n=6, m=3, seed=1):
        path = tmp_path / "inst.txt"
        code, _, _ = run_cli(
            ["gen", "--n", str(n), "--m", str(m), "--seed", str(seed), "--out", str(path)],
            capsys,
        )
        assert code == 0
        return path

    def test_matches_enumeration(self, tmp_path, capsys):
        path = self.make_instance(tmp_path, capsys)
        code, out, err = run_cli(
            ["select", "--input", str(path), "--k", "30", "--sorted"], capsys
        )
        assert code == 0
        got = np.array([int(line) for line in out.split()], dtype=np.int64)
        np.testing.assert_array_equal(got, brute_multi(cli.read_instance(path), 30))
        stats = dict(line.split("=", 1) for line in err.strip().splitlines())
        assert float(stats["runtime_seconds"]) >= float(
            stats["runtime_excl_load_seconds"]
        )
        assert int(stats["values_generated"]) >= 30
        assert int(stats["root_pool_size"]) >= 30

    def test_wobbly_mode_flag(self, tmp_path, capsys):
        path = self.make_instance(tmp_path, capsys)
        code, out, _ = run_cli(
            ["select", "--input", str(path), "--k", "10", "--mode", "wobbly", "--sorted"],
            capsys,
        )
        assert code == 0
        got = np.array([int(line) for line in out.split()], dtype=np.int64)
        np.testing.assert_array_equal(got, brute_multi(cli.read_instance(path), 10))

    @pytest.mark.parametrize("mode", ("standard", "wobbly"))
    def test_float_values_print_as_repr(self, tmp_path, capsys, mode):
        """Each float answer is printed as Python's shortest round-trip repr."""
        path = tmp_path / "reals.txt"
        code, _, _ = run_cli(
            ["gen", "--n", "5", "--m", "3", "--seed", "4", "--dist", "reals", "--out", str(path)],
            capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["select", "--input", str(path), "--k", "20", "--mode", mode, "--sorted"], capsys
        )
        assert code == 0
        expect = brute_multi(cli.read_instance(path), 20)
        assert out == "".join(f"{float(v)!r}\n" for v in expect)

    def test_out_file(self, tmp_path, capsys):
        path = self.make_instance(tmp_path, capsys)
        dest = tmp_path / "vals.txt"
        code, out, _ = run_cli(
            ["select", "--input", str(path), "--k", "5", "--out", str(dest)], capsys
        )
        assert code == 0 and out == ""
        assert len(dest.read_text().split()) == 5

    def test_k_too_large_is_range_error(self, tmp_path, capsys):
        path = self.make_instance(tmp_path, capsys, n=2, m=2)
        code, _, err = run_cli(["select", "--input", str(path), "--k", "5"], capsys)
        assert code == 3
        assert "error" in err

    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run_cli(
            ["select", "--input", "/no/such/file", "--k", "1"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_malformed_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 oops\n")
        code, _, err = run_cli(["select", "--input", str(path), "--k", "1"], capsys)
        assert code == 2
        assert "line 1" in err

    def test_integer_overflow_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text("1 2 99999999999999999999\n")
        code, _, err = run_cli(["select", "--input", str(path), "--k", "1"], capsys)
        assert code == 2
        assert "line 1" in err


class TestVerify:
    def test_clean_sweep_passes(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n-max", "4", "--m-max", "3", "--trials", "2"], capsys
        )
        assert code == 0
        # 135 fresh queries per mode, and as many on one resumed tree per mode
        assert out == "cases=540 oracle_failures=0 agreement_failures=0\n"

    def test_no_cases_warns(self, capsys):
        code, out, err = run_cli(["verify", "--trials", "0"], capsys)
        assert code == 0
        assert "cases=0" in out
        assert "warning" in err

    def test_detects_a_wrong_implementation(self, capsys, monkeypatch):
        """A corrupted selection must be caught and reported with its replay key."""
        real_build = cli.build_tree
        monkeypatch.setattr(
            cli, "build_tree", lambda arrays, cfg: CorruptedTree(real_build(arrays, cfg))
        )
        code, out, _ = run_cli(
            ["verify", "--n-max", "2", "--m-max", "2", "--trials", "1"], capsys
        )
        assert code == 1
        assert "MISMATCH" in out
        line = next(l for l in out.splitlines() if l.startswith("MISMATCH"))
        assert "m=" in line and "n=" in line and "k=" in line and "mode=" in line

    def test_failure_lines_are_exact(self, capsys, monkeypatch):
        """Corrupting wobbly mode alone prints both kinds of failure line,
        each as its label and the replay key's key=value pairs in order; a
        query on the resumed tree is marked resumed=1."""
        real_build = cli.build_tree

        def build(arrays, cfg):
            tree = real_build(arrays, cfg)
            return CorruptedTree(tree) if cfg.mode == "wobbly" else tree

        monkeypatch.setattr(cli, "build_tree", build)
        code, out, _ = run_cli(
            ["verify", "--n-max", "1", "--m-max", "1", "--trials", "1"], capsys
        )
        assert code == 1
        assert out == (
            "cases=4 oracle_failures=2 agreement_failures=2\n"
            "MISMATCH seed=0 m=1 n=1 trial=0 k=1 mode=wobbly\n"
            "MISMATCH seed=0 m=1 n=1 trial=0 k=1 mode=wobbly resumed=1\n"
            "MODE-DISAGREEMENT seed=0 m=1 n=1 trial=0 k=1\n"
            "MODE-DISAGREEMENT seed=0 m=1 n=1 trial=0 k=1 resumed=1\n"
        )


class TestBench:
    def read_csv(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_csv_shape_and_content(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            [
                "bench", "--n", "8", "--m", "3", "--k", "4,8",
                "--trials", "2", "--csv", str(path),
            ],
            capsys,
        )
        assert code == 0
        rows = self.read_csv(path)
        assert tuple(rows[0]) == cli.CSV_COLUMNS
        body = rows[1:]
        assert len(body) == 2 * 2 * 3  # modes x ks x (trials + mean)
        cols = {name: i for i, name in enumerate(rows[0])}
        assert {r[cols["mode"]] for r in body} == {"standard", "wobbly"}
        assert {r[cols["k"]] for r in body} == {"4", "8"}
        means = [r for r in body if r[cols["trial"]] == "mean"]
        assert len(means) == 4
        for r in body:
            assert float(r[cols["runtime_seconds"]]) >= 0.0
            assert float(r[cols["values_generated"]]) >= 4

    def test_naive_mode_counts_every_sum(self, tmp_path, capsys):
        path = tmp_path / "bench.csv"
        code, _, _ = run_cli(
            [
                "bench", "--n", "4", "--m", "3", "--k", "2",
                "--modes", "naive", "--trials", "1", "--csv", str(path),
            ],
            capsys,
        )
        assert code == 0
        rows = self.read_csv(path)
        cols = {name: i for i, name in enumerate(rows[0])}
        assert all(r[cols["values_generated"]] == "64" for r in rows[1:])

    def test_stdout_when_no_csv_path(self, capsys):
        code, out, _ = run_cli(
            ["bench", "--n", "4", "--m", "2", "--k", "2", "--trials", "1"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == ",".join(cli.CSV_COLUMNS)

    def test_cap_refusal_for_naive(self, capsys):
        code, _, err = run_cli(
            [
                "bench", "--n", "64", "--m", "5", "--k", "2", "--modes", "naive",
                "--trials", "1", "--cap", "1048576",
            ],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_unknown_mode_rejected(self, capsys):
        code, _, _ = run_cli(
            ["bench", "--n", "4", "--m", "2", "--k", "2", "--modes", "quick"], capsys
        )
        assert code == 2

    def test_huge_k_exponent_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["bench", "--n", "4", "--m", "2", "--k", "2^0..2^1000000", "--trials", "1"], capsys
        )
        assert code == 2
        assert "above 62" in err

    def test_k_beyond_total_is_range_error(self, capsys):
        code, _, _ = run_cli(
            ["bench", "--n", "2", "--m", "2", "--k", "8", "--trials", "1"], capsys
        )
        assert code == 3

    def test_empty_mode_list_is_usage_error(self, capsys):
        """A mode list with no mode in it is refused, not run as a header-only CSV."""
        code, out, err = run_cli(
            ["bench", "--n", "4", "--m", "2", "--k", "2", "--modes", ",", "--trials", "1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert "mode" in err

    @pytest.mark.parametrize("modes", ("standard,wobbly", "naive"))
    def test_k_beyond_total_is_refused_before_any_timing(self, capsys, monkeypatch, modes):
        """The largest k is checked against the product once, before the
        first build or enumeration, so no trial runs at the smaller k."""
        runs = []
        for name in ("build_tree", "brute_multi"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, real=real: runs.append(a) or real(*a))
        code, out, err = run_cli(
            ["bench", "--n", "4", "--m", "2", "--k", "2,100", "--modes", modes, "--trials", "1"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "k=100" in err
        assert runs == []

    def test_run_bench_needs_a_k(self):
        with pytest.raises(ConfigError):
            cli.run_bench(4, 2, 1.1, [], ["standard"], 1, 0)


# One invocation per kind of error; {dir} is the test's directory. No instance
# file parses to zero arrays, so EmptyInputError comes from a reader that
# finds none, meeting build_tree's rule for no inputs.
EXIT_CASES = {
    ParseError: (["select", "--input", "{dir}/bad.txt", "--k", "1"], 2),
    OSError: (["select", "--input", "{dir}/missing.txt", "--k", "1"], 2),
    ConfigError: (["gen", "--n", "0", "--m", "2"], 2),
    EmptyInputError: (["select", "--input", "{dir}/ints.txt", "--k", "1"], 2),
    InvalidValueError: (["select", "--input", "{dir}/huge.txt", "--k", "1"], 2),
    ContractError: (["select", "--input", "{dir}/ints.txt", "--k", "5"], 3),
    ResourceLimitError: (
        ["bench", "--n", "64", "--m", "5", "--k", "2", "--modes", "naive",
         "--trials", "1", "--cap", "1048576"],
        1,
    ),
}


class TestMainEntry:
    @pytest.mark.parametrize("kind", list(EXIT_CASES), ids=lambda kind: kind.__name__)
    def test_each_error_kind_has_its_exit_code(self, tmp_path, capsys, monkeypatch, kind):
        """The command raises the kind, and main turns it into its code."""
        (tmp_path / "bad.txt").write_text("1 oops\n")
        (tmp_path / "ints.txt").write_text("1 2\n3 4\n")
        (tmp_path / "huge.txt").write_text("1.7e308\n1.7e308\n")  # sums overflow
        if kind is EmptyInputError:
            monkeypatch.setattr(cli, "read_instance", lambda path: [])
        template, code = EXIT_CASES[kind]
        argv = [arg.format(dir=tmp_path) for arg in template]
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(kind):
            args.func(args)
        got, out, err = run_cli(argv, capsys)
        assert (got, out) == (code, "")
        assert err.startswith("error: ")

    def test_no_arguments_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert cli.main(["frobnicate"]) == 2
