"""Command line front end: instance generation, selection, self-check, benchmark.

Instance files hold one array per line, values separated by spaces or tabs;
blank lines and lines starting with '#' are ignored. All commands are
deterministic given their flags and seed. Exit codes: 0 success, 1 self-check
mismatch or resource refusal, 2 unusable input or flags, 3 k out of range;
EXIT_CODES maps each kind of error to its code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import re
import sys
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    CartselError,
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ParseError,
)
from .loh import DEFAULT_ALPHA, as_value_arrays
from .oracle import DEFAULT_CAP, brute_multi
from .pairwise import MODES
from .tree import TreeConfig, build_tree

__all__ = [
    "BenchRecord",
    "CSV_COLUMNS",
    "VerifyReport",
    "main",
    "parse_k_spec",
    "read_instance",
    "run_bench",
    "run_verification",
    "write_instance",
]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_RANGE = 3

# An error exits with the code of the first row whose kinds it is an instance of.
EXIT_CODES = (
    (ContractError, EXIT_RANGE),
    ((ParseError, ConfigError, EmptyInputError, InvalidValueError, OSError), EXIT_PARSE),
    (CartselError, EXIT_FAIL),
)

BENCH_MODES = MODES + ("naive",)


def read_instance(path) -> list[np.ndarray]:
    """Parse an instance file into one array per non-comment line; the
    arrays get one profile by as_value_arrays' group rule."""
    rows: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            body = line.strip()
            if body and not body.startswith("#"):
                rows.append(_parse_line(body.split(), line_no))
    if not rows:
        raise ParseError("no arrays found in instance file")
    return as_value_arrays(rows)


def _parse_line(tokens, line_no):
    """One line's values, read with one numpy call as int64, else as
    float64. A line that reads as neither, or whose floats may hide a token
    the scan refuses or reads otherwise, is scanned token by token."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    try:
        row = np.array(tokens, dtype=np.float64)
    except ValueError:
        return _scan_line(tokens, line_no)
    # |x| >= 2**63 may be an integer token outside int64 and NaN a non-finite
    # token, both refused; -0.0 may be the integer token -0, which reads as 0
    if np.abs(row).max() < 2.0**63 and not np.signbit(row[row == 0]).any():
        return row
    return _scan_line(tokens, line_no)


def _scan_line(tokens, line_no) -> list:
    """One line's values read token by token, each as an int, else as a
    float; the first token that is neither, an integer outside int64 or a
    non-finite float raises a ParseError naming it and the line."""
    values: list = []
    for tok in tokens:
        try:
            v = int(tok)
        except ValueError:
            pass
        else:
            if not -(2**63) <= v < 2**63:
                raise ParseError(
                    f"line {line_no}: integer {tok!r} is outside the int64 range",
                    line_no,
                )
            values.append(v)
            continue
        try:
            x = float(tok)
        except ValueError:
            raise ParseError(
                f"line {line_no}: cannot read value {tok!r}", line_no
            )
        if not math.isfinite(x):
            raise ParseError(
                f"line {line_no}: non-finite value {tok!r}", line_no
            )
        values.append(x)
    return values


def write_instance(arrays, fh) -> None:
    """Write arrays as an instance file, one line per array."""
    for arr in arrays:
        fh.write(" ".join(map(str, np.asarray(arr).tolist())))
        fh.write("\n")


@contextlib.contextmanager
def _open_out(path):
    """The output file at path, closed afterwards, or stdout, left open."""
    if path is None:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        yield out


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    arrays = _draw_instance(rng, args.n, args.m, args.dist)
    with _open_out(args.out) as out:
        write_instance(arrays, out)
    return EXIT_OK


def _draw_instance(rng, n, m, dist):
    if n < 1 or m < 1:
        raise ConfigError(f"need n >= 1 and m >= 1, got n={n} m={m}")
    if dist == "ints":
        return [rng.integers(0, 1 << 30, size=n, dtype=np.int64) for _ in range(m)]
    if dist == "reals":
        return [rng.random(n) for _ in range(m)]
    raise ConfigError(f"unknown distribution {dist!r}")


def cmd_select(args) -> int:
    arrays = read_instance(args.input)
    config = TreeConfig(alpha=args.alpha, mode=args.mode)
    t0 = time.perf_counter()
    tree = build_tree(arrays, config)
    t1 = time.perf_counter()
    result = tree.select_k(args.k)
    if args.sorted:
        result = np.sort(result)
    t2 = time.perf_counter()
    with _open_out(args.out) as out:
        out.writelines(f"{v}\n" for v in result.tolist())
    snap = tree.stats()
    print(f"runtime_seconds={t2 - t0!r}", file=sys.stderr)
    print(f"runtime_excl_load_seconds={t2 - t1!r}", file=sys.stderr)
    print(f"values_generated={snap.values_generated}", file=sys.stderr)
    print(f"tuple_pops={snap.tuple_pops}", file=sys.stderr)
    print(f"root_pool_size={snap.root_pool_size}", file=sys.stderr)
    return EXIT_OK


@dataclass
class VerifyReport:
    """Outcome of one verification sweep against the brute-force baseline."""

    cases: int = 0
    oracle_failures: list[dict] = field(default_factory=list)
    agreement_failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.oracle_failures and not self.agreement_failures


def run_verification(
    n_max: int = 8, m_max: int = 5, trials: int = 20, seed: int = 0, cap: int = DEFAULT_CAP
) -> VerifyReport:
    """Sweep random instances, checking both modes against full enumeration.

    For every m <= m_max, n <= n_max, and trial a fresh integer instance is
    drawn from (seed, m, n, trial); selections at k in {1, 2, ceil(total/2),
    total} plus ten random k are compared to the sorted enumeration prefix,
    exactly, and the two modes are compared to each other. Each k is asked
    of fresh trees, then of one tree per mode at every k from total down, so
    each later query trims the layers that tree holds; those failures carry
    resumed=1.
    """
    report = VerifyReport()
    for m in range(1, m_max + 1):
        for n in range(1, n_max + 1):
            for trial in range(trials):
                rng = np.random.default_rng([seed, m, n, trial])
                arrays = [rng.integers(0, 4 * n + 4, size=n).astype(np.int64) for _ in range(m)]
                total = n**m
                full = brute_multi(arrays, total, cap)
                ks = {1, total, (total + 1) // 2}
                if total >= 2:
                    ks.add(2)
                ks.update(int(x) for x in rng.integers(1, total + 1, size=10))
                # each k on fresh trees, then from total down on one tree per mode
                shared = {mode: build_tree(arrays, TreeConfig(mode=mode)) for mode in MODES}
                sweep = [(k, {}) for k in sorted(ks)]
                sweep += [(k, {"resumed": 1}) for k in sorted(ks, reverse=True)]
                for k, tag in sweep:
                    key = dict(seed=seed, m=m, n=n, trial=trial, k=k)
                    got = {}
                    for mode in MODES:
                        tree = shared[mode] if tag else build_tree(arrays, TreeConfig(mode=mode))
                        got[mode] = np.sort(tree.select_k(k))
                        report.cases += 1
                        if not np.array_equal(got[mode], full[:k]):
                            report.oracle_failures.append(dict(key, mode=mode, **tag))
                    if not np.array_equal(got["standard"], got["wobbly"]):
                        report.agreement_failures.append(dict(key, **tag))
    return report


def cmd_verify(args) -> int:
    report = run_verification(args.n_max, args.m_max, args.trials, args.seed, args.cap)
    if report.cases == 0:
        print("warning: no cases run", file=sys.stderr)
        print("cases=0")
        return EXIT_OK
    print(
        f"cases={report.cases} oracle_failures={len(report.oracle_failures)} "
        f"agreement_failures={len(report.agreement_failures)}"
    )
    for label, failures in (
        ("MISMATCH", report.oracle_failures),
        ("MODE-DISAGREEMENT", report.agreement_failures),
    ):
        for fail in failures:
            print(label, *(f"{key}={value}" for key, value in fail.items()))
    return EXIT_OK if report.ok else EXIT_FAIL


class BenchRecord(NamedTuple):
    """One CSV row of the benchmark harness, its fields the CSV columns."""

    mode: str
    n: int
    m: int
    alpha: float
    k: int
    trial: str
    seed: int
    runtime_seconds: float
    runtime_excl_load_seconds: float
    values_generated: int | float
    root_pool_size: int | float


CSV_COLUMNS = BenchRecord._fields


def _trim_int(x):
    return int(x) if float(x).is_integer() else x


def _k_exponent(digits: str, spec: str) -> int:
    """An exponent of 2 in a k spec, refused above 62 (k past int64) before any power."""
    e = digits.lstrip("0") or "0"  # long digit strings are not read as ints
    if len(e) > 2 or int(e) > 62:
        raise ConfigError(f"k exponent {e} in {spec!r} is above 62")
    return int(e)


def parse_k_spec(spec: str) -> list[int]:
    """Read a k list: '4,8,64', '2^12', or a power range '2^10..2^20'.

    The result is deduplicated and ascending, so benchmark output is always
    monotone in k.
    """
    spec = spec.strip()
    rng = re.fullmatch(r"2\^(\d+)\.\.2\^(\d+)", spec)
    if rng:
        lo, hi = (_k_exponent(e, spec) for e in rng.groups())
        if lo > hi:
            raise ConfigError(f"empty k range {spec!r}")
        ks = [2**e for e in range(lo, hi + 1)]
    else:
        ks = []
        for tok in spec.split(","):
            tok = tok.strip()
            pw = re.fullmatch(r"2\^(\d+)", tok)
            if pw:
                ks.append(2 ** _k_exponent(pw.group(1), spec))
                continue
            try:
                ks.append(int(tok))
            except ValueError:
                raise ConfigError(f"cannot read k value {tok!r}")
    ks = sorted(set(ks))
    if not ks or ks[0] < 1:
        raise ConfigError(f"k values must be >= 1, got {spec!r}")
    return ks


def run_bench(
    n, m, alpha, ks, modes, trials, seed, dist="ints", cap=DEFAULT_CAP
) -> list[BenchRecord]:
    """Time selections over one seeded instance; one record per (mode, k, trial)
    plus a trailing mean record per (mode, k).

    The whole request is judged before anything is timed.
    """
    for mode in modes:
        if mode not in BENCH_MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {BENCH_MODES}")
    if not modes or not ks:
        raise ConfigError(f"need at least one mode and one k, got modes={modes} ks={ks}")
    if trials < 1:
        raise ConfigError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    arrays = _draw_instance(rng, n, m, dist)
    total = n**m
    if max(ks) > total:
        raise ContractError(f"k={max(ks)} exceeds the product size {total}")
    records: list[BenchRecord] = []
    for mode in modes:
        for k in ks:
            for trial in range(trials):
                if mode == "naive":
                    t0 = time.perf_counter()
                    brute_multi(arrays, k, cap)
                    t1 = time.perf_counter()
                    rt, rx, vg, rp = t1 - t0, t1 - t0, total, total
                else:
                    t0 = time.perf_counter()
                    tree = build_tree(arrays, TreeConfig(alpha=alpha, mode=mode))
                    t1 = time.perf_counter()
                    tree.select_k(k)
                    t2 = time.perf_counter()
                    snap = tree.stats()
                    rt, rx = t2 - t0, t2 - t1
                    vg, rp = snap.values_generated, snap.root_pool_size
                records.append(
                    BenchRecord(mode, n, m, alpha, k, str(trial), seed, rt, rx, vg, rp)
                )
            # the mean of each of the last four columns, the measured ones
            runs = records[-trials:]
            rt, rx, vg, rp = (sum(col) / trials for col in zip(*(r[-4:] for r in runs)))
            records.append(
                BenchRecord(
                    mode, n, m, alpha, k, "mean", seed, rt, rx, _trim_int(vg), _trim_int(rp)
                )
            )
    return records


def cmd_bench(args) -> int:
    ks = parse_k_spec(args.k)
    modes = [tok.strip() for tok in args.modes.split(",") if tok.strip()]
    records = run_bench(
        args.n, args.m, args.alpha, ks, modes, args.trials, args.seed, args.dist, args.cap
    )
    with _open_out(args.csv) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(records)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cartsel",
        description="k smallest sums over the Cartesian product of input arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random instance file")
    gen.add_argument("--n", type=int, required=True, help="values per array")
    gen.add_argument("--m", type=int, required=True, help="number of arrays")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dist", choices=("ints", "reals"), default="ints")
    gen.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=cmd_gen)

    sel = sub.add_parser("select", help="select the k smallest sums of an instance")
    sel.add_argument("--input", required=True, help="instance file path")
    sel.add_argument("--k", type=int, required=True)
    sel.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sel.add_argument("--mode", choices=MODES, default="standard")
    sel.add_argument("--sorted", action="store_true", help="sort the output values")
    sel.add_argument("--out", default=None, help="output path (default stdout)")
    sel.set_defaults(func=cmd_select)

    ver = sub.add_parser("verify", help="check both modes against brute force")
    ver.add_argument("--n-max", type=int, default=8)
    ver.add_argument("--m-max", type=int, default=5)
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="time selections and write a CSV report")
    ben.add_argument("--n", type=int, required=True)
    ben.add_argument("--m", type=int, required=True)
    ben.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    ben.add_argument("--k", required=True, help="k list: '4,8', '2^12', or '2^10..2^20'")
    ben.add_argument("--modes", default="standard,wobbly")
    ben.add_argument("--trials", type=int, default=20)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--csv", default=None, help="CSV path (default stdout)")
    ben.add_argument("--dist", choices=("ints", "reals"), default="ints")
    ben.add_argument("--cap", type=int, default=DEFAULT_CAP)
    ben.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (CartselError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
