"""Command-line front end.

Commands:
    state --config FILE        price/owner distributions and summary
    spectrum --n N [--json]    commutator eigenvalues, ascending; dense,
                               so 2 <= N <= MAX_DENSE_SIZE (2048)
    uncertainty --config FILE  Robertson-relation report for the state
    evolve --config FILE       time evolution per the scenario

state and evolve write through one sink, CSV or JSON per the scenario,
used as a with-block. Each record is written as the evolve iterator
yields it; that iterator computes records a bounded block at a time, so
memory stays O(N) whatever the record count. The CSV sink formats a
record's distribution rows with one % call on a template cached per N
(one call per ROWS_PER_FORMAT rows on larger lattices).
An exception that aborts the block ends the partial output in a
truncation marker (a TRUNCATED row, or "truncated": true) and closes it;
every record before the failure is written first.

Exit codes: 0 success, 1 usage or schema problem, 2 numerical invariant
violation, 3 I/O failure. All emitted numbers are deterministic for a
given scenario.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys
from pathlib import Path

from .errors import StockwaveError
from .lattice import norm
from .operators import MAX_DENSE_SIZE, commutator_spectrum, uncertainty_product_report
from .evolution import evolve
from .scenario import Scenario, ScenarioError, build_initial_state, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

DIST_HEADER = "step,t,n,prob_price,prob_owner"
SUMMARY_HEADER = "step,t,mean_price,mean_owner,delta_price,delta_owner,product,bound,norm_error"
SUMMARY_FIELDS = SUMMARY_HEADER.split(",")[2:]
TRUNCATION_MARKER = "TRUNCATED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def format_number(x: float) -> str:
    """15 significant digits; positional notation within [1e-4, 1e15)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return f"{x:.15g}"


def _rounded(x: float) -> float:
    return float(format_number(x))


def _format_eigenvalue(value: float) -> str:
    # table-style print: 12 decimals truncated toward zero; rounding would
    # flip the boundary digits of the plateau eigenvalues
    scaled = math.trunc(value * 1e12)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**12)
    return f"{sign}{whole}.{frac:012d}"


# Rows per % call: one call per record up to here, a call per chunk of
# rows beyond. One % call building a record's ~46 KB of rows at N = 1031
# raised the evolve-prime peak RSS by ~1 MB; chunks of 256 rows did not.
ROWS_PER_FORMAT = 256


@functools.lru_cache(maxsize=4)
def _dist_templates(size: int) -> tuple:
    """(first row, template) per chunk of one record's distribution rows:
    each row's %s takes "step,t," and %.15g is format_number's format."""
    starts = range(0, size, ROWS_PER_FORMAT)
    rows = [f"%s{n},%.15g,%.15g\n" for n in range(size)]
    return tuple((start, "".join(rows[start:start + ROWS_PER_FORMAT])) for start in starts)


_SUMMARY_ROW = "%s" + ",".join(["%.15g"] * len(SUMMARY_FIELDS)) + "\n"


def _summary(report, norm_error):
    """Summary values in SUMMARY_FIELDS order; all but norm_error are the report's."""
    return [norm_error if key == "norm_error" else getattr(report, key) for key in SUMMARY_FIELDS]


class _CsvSink(contextlib.AbstractContextManager):
    """Distributions at the scenario path, summary at a _summary sibling;
    both are written record by record. Without a path the distributions
    stream to stdout and the summary table follows them at the end. Used
    as a with-block: an exception leaving the block ends both tables in a
    TRUNCATED row; the files are always closed."""

    def __init__(self, path: str | None):
        self._to_stdout = path is None
        with contextlib.ExitStack() as files:
            if self._to_stdout:
                self._dist_file, self._summary_file = sys.stdout, io.StringIO()
            else:
                target = Path(path)
                summary_target = target.with_name(target.stem + "_summary" + target.suffix)
                self._dist_file = files.enter_context(open(target, "w", newline=""))
                self._summary_file = files.enter_context(open(summary_target, "w", newline=""))
            self._dist_file.write(DIST_HEADER + "\n")
            self._summary_file.write(SUMMARY_HEADER + "\n")
            self._files = files.pop_all()

    def write_record(self, step: int, t: float, report, norm_error: float):
        prefix = f"{step},{format_number(t)},"
        size = len(report.prob_price)
        fields = [prefix] * (3 * size)
        # adding 0.0 folds -0.0 as format_number does
        fields[1::3] = (report.prob_price + 0.0).tolist()
        fields[2::3] = (report.prob_owner + 0.0).tolist()
        for start, template in _dist_templates(size):
            chunk = fields[3 * start:3 * (start + ROWS_PER_FORMAT)]
            self._dist_file.write(template % tuple(chunk))
        summary = [value + 0.0 for value in _summary(report, norm_error)]
        self._summary_file.write(_SUMMARY_ROW % (prefix, *summary))

    def __exit__(self, exc_type, exc, tb):
        with self._files:
            if exc_type is not None:
                self._dist_file.write(TRUNCATION_MARKER + "," * DIST_HEADER.count(",") + "\n")
                self._summary_file.write(TRUNCATION_MARKER + "," * SUMMARY_HEADER.count(",") + "\n")
            if self._to_stdout:
                self._dist_file.write("\n" + self._summary_file.getvalue())


class _JsonSink(contextlib.AbstractContextManager):
    """The layout of json.dumps({"n": ..., "records": [...]}, indent=2),
    written one record at a time to the path or stdout. Used as a
    with-block: an exception leaving the block adds "truncated": true
    last; the file is always closed."""

    def __init__(self, path: str | None, size: int):
        with contextlib.ExitStack() as files:
            if path is None:
                self._file = sys.stdout
            else:
                self._file = files.enter_context(open(path, "w", newline=""))
            self._file.write(f'{{\n  "n": {size},\n  "records": [')
            self._files = files.pop_all()
        self._empty = True

    def write_record(self, step: int, t: float, report, norm_error: float):
        record = {
            "step": step,
            "t": _rounded(t),
            "prob_price": [_rounded(p) for p in report.prob_price],
            "prob_owner": [_rounded(o) for o in report.prob_owner],
        }
        record.update(zip(SUMMARY_FIELDS, map(_rounded, _summary(report, norm_error))))
        text = json.dumps(record, indent=2).replace("\n", "\n    ")
        self._file.write(("\n    " if self._empty else ",\n    ") + text)
        self._empty = False

    def __exit__(self, exc_type, exc, tb):
        with self._files:
            end = "]" if self._empty else "\n  ]"
            if exc_type is not None:
                end += ',\n  "truncated": true'
            self._file.write(end + "\n}\n")


def _make_sink(scenario: Scenario):
    if scenario.output.format == "json":
        return _JsonSink(scenario.output.path, scenario.size)
    return _CsvSink(scenario.output.path)


def _load_scenario(path: str) -> Scenario:
    with open(path, "rb") as handle:
        return parse_scenario(handle.read())


def cmd_state(scenario: Scenario, quiet: bool) -> int:
    state = build_initial_state(scenario)
    report = uncertainty_product_report(state)
    with _make_sink(scenario) as sink:
        sink.write_record(0, 0.0, report, abs(norm(state.base) - 1.0))
    if not quiet and scenario.output.path is not None:
        print(f"state: N={scenario.size}, output written to {scenario.output.path}")
    return EXIT_OK


def cmd_uncertainty(scenario: Scenario, quiet: bool) -> int:
    report = uncertainty_product_report(build_initial_state(scenario))
    print(f"delta_price={format_number(report.delta_price)}")
    print(f"delta_owner={format_number(report.delta_owner)}")
    print(f"product={format_number(report.product)}")
    print(f"bound={format_number(report.bound)}")
    print(f"saturated={'true' if report.saturated else 'false'}")
    return EXIT_OK


def cmd_spectrum(size: int, as_json: bool) -> int:
    if size < 2:
        raise UsageError("spectrum requires --n >= 2")
    if size > MAX_DENSE_SIZE:
        raise UsageError(f"spectrum requires --n <= {MAX_DENSE_SIZE} (dense N x N path)")
    result = commutator_spectrum(size)
    if as_json:
        doc = {
            "n": size,
            "eigenvalues_imag": [_rounded(v.imag) for v in result.eigenvalues],
            "residual": _rounded(result.residual),
        }
        print(json.dumps(doc, indent=2))
    else:
        for index, value in enumerate(result.eigenvalues, start=1):
            print(f"{index},{_format_eigenvalue(value.imag)}")
    return EXIT_OK


def cmd_evolve(scenario: Scenario, quiet: bool) -> int:
    if scenario.evolution is None:
        raise ScenarioError("schema violation at evolution: block required for evolve")
    state0 = build_initial_state(scenario)
    params = scenario.evolution.params
    count = 0
    max_norm_error = 0.0
    with _make_sink(scenario) as sink:
        for record in evolve(
            state0, params, scenario.evolution.potential, scenario.output.record_every
        ):
            sink.write_record(record.step, record.time, record.report, record.norm_error)
            count += 1
            max_norm_error = max(max_norm_error, record.norm_error)
            del record  # the last record of a block keeps the block alive
    if not quiet:
        print(f"evolve: {count} records, max norm_error {format_number(max_norm_error)}")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="stockwave", description="Price/ownership lattice simulator")
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")
    sub = parser.add_subparsers(dest="command", required=True)

    state_p = sub.add_parser("state", help="distributions and summary for a scenario state")
    state_p.add_argument("--config", required=True, help="scenario JSON file")

    spectrum_p = sub.add_parser("spectrum", help="commutator eigenvalues")
    spectrum_p.add_argument(
        "--n", type=int, required=True, help=f"lattice size (2 to {MAX_DENSE_SIZE})"
    )
    spectrum_p.add_argument("--json", action="store_true", help="emit JSON with residual")

    unc_p = sub.add_parser("uncertainty", help="Robertson-relation report")
    unc_p.add_argument("--config", required=True, help="scenario JSON file")

    evolve_p = sub.add_parser("evolve", help="run the scenario evolution block")
    evolve_p.add_argument("--config", required=True, help="scenario JSON file")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "state":
            return cmd_state(_load_scenario(args.config), args.quiet)
        if args.command == "spectrum":
            return cmd_spectrum(args.n, args.json)
        if args.command == "uncertainty":
            return cmd_uncertainty(_load_scenario(args.config), args.quiet)
        return cmd_evolve(_load_scenario(args.config), args.quiet)
    except (UsageError, ScenarioError) as exc:
        print(f"stockwave: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StockwaveError as exc:
        print(f"stockwave: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"stockwave: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
