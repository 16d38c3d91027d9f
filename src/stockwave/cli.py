"""Command-line front end.

Commands:
    state --config FILE        price/owner distributions and summary
    spectrum --n N [--json]    commutator eigenvalues, ascending; dense,
                               so 2 <= N <= MAX_DENSE_SIZE (2048)
    uncertainty --config FILE  Robertson-relation report for the state
    evolve --config FILE       time evolution per the scenario

state and evolve write through one sink, CSV or JSON per the scenario,
used as a with-block. A sink takes a whole RecordBlock, as
evolution.record_blocks yields them (state writes a block of one), so
memory stays O(N) whatever the record count, and writes it record by
record. The CSV sink lays out a table of records as two uint8 matrices,
the distribution rows and the summary rows: each record's "step,t,"
prefix, a cached "n," column per N, the number fields and the
separators, all zero-padded. A table is one numfmt.encode pass: it
formats every number of the table, each record's t included, and the t
field is cut to its widest text. One bytes.translate strips the padding
of a whole matrix, and the text is cut at the records' cumulative
lengths, so each record is still one write per file. A table holds the
records whose numbers, t included, fill one numfmt.CHUNK (at least one
record), so its bytes stay O(CHUNK + N). The JSON sink converts the
block's arrays to Python floats with one tolist each. An exception that
aborts the with-block ends the partial output, whole records only, in a
truncation marker (a TRUNCATED row, or "truncated": true) and closes
it; every record before the failure is written first. Status lines go
to stdout only when the output goes to a file.

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

import numpy as np

from . import numfmt
from .errors import StockwaveError
from .operators import MAX_DENSE_SIZE, SUMMARY_COLUMNS, commutator_spectrum
from .evolution import record_blocks, state_record, uncertainty_product_report
from .scenario import Scenario, ScenarioError, build_initial_state, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

DIST_HEADER = "step,t,n,prob_price,prob_owner"
SUMMARY_FIELDS = [*SUMMARY_COLUMNS, "norm_error"]
SUMMARY_HEADER = "step,t," + ",".join(SUMMARY_FIELDS)
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


def _ascii(texts: list) -> np.ndarray:
    """(len(texts), width) uint8: each text's bytes, zero-padded."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


@functools.lru_cache(maxsize=4)
def _level_column(size: int) -> np.ndarray:
    """The "n," field of each distribution row of a lattice, as bytes."""
    column = _ascii([f"{n}," for n in range(size)])
    column.setflags(write=False)
    return column


_COMMA, _NEWLINE = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)
_SUMMARY_ENDS = np.frombuffer(b"," * (len(SUMMARY_FIELDS) - 1) + b"\n", np.uint8)[:, None]


def _numbers(*arrays) -> list:
    """format_number's bytes of each value of each float array, one
    array.shape + (W,) uint8 array each, from one numfmt.encode call;
    adding 0.0 folds -0.0 as format_number does."""
    text = numfmt.encode(np.concatenate([array.ravel() for array in arrays]) + 0.0)
    ends = np.cumsum([array.size for array in arrays])
    return [
        text[end - array.size:end].reshape(*array.shape, numfmt.W)
        for array, end in zip(arrays, ends)
    ]


def _table(shape: tuple, *columns) -> np.ndarray:
    """A shape + (width,) uint8 table of the byte columns side by side,
    each broadcast to shape + (its width,). Zero bytes are padding
    wherever they sit."""
    table = np.empty((*shape, sum(column.shape[-1] for column in columns)), np.uint8)
    start = 0
    for column in columns:
        table[..., start:start + column.shape[-1]] = column
        start += column.shape[-1]
    return table


def _record_texts(table: np.ndarray):
    """The text of each record of a table with one record per leading
    index, its zero pad bytes dropped; the whole table is stripped in
    one translate and cut at the records' cumulative lengths."""
    ends = np.cumsum(np.count_nonzero(table.reshape(len(table), -1), axis=1)).tolist()
    text = table.tobytes().translate(None, b"\0").decode("ascii")
    return (text[start:end] for start, end in zip([0, *ends], ends))


def _block_rows(block):
    """(mark, prob_price, prob_owner, summary) per record of a RecordBlock,
    the values as Python floats from one tolist per array and the summary
    in SUMMARY_FIELDS order; adding 0.0 folds -0.0 as format_number does."""
    observables = block.observables
    summary = np.column_stack((observables.summary, block.norm_errors)) + 0.0
    return zip(
        block.marks,
        (observables.prob_price + 0.0).tolist(),
        (observables.prob_owner + 0.0).tolist(),
        summary.tolist(),
    )


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

    def write_block(self, block):
        observables = block.observables
        summary = np.column_stack((observables.summary, block.norm_errors))
        size = observables.prob_price.shape[1]
        # a table holds the records whose numbers, t included, fill one
        # kernel chunk, or one
        records = max(1, numfmt.CHUNK // (2 * size + summary.shape[1] + 1))
        for start in range(0, len(block.marks), records):
            rows = slice(start, start + records)
            prices, owners = observables.prob_price[rows], observables.prob_owner[rows]
            self._write_table(block.marks[rows], prices, owners, summary[rows])

    def _write_table(self, marks, prob_price, prob_owner, summary):
        records, size = prob_price.shape
        steps, times = zip(*marks)
        prices, owners, scalars, t_texts = _numbers(prob_price, prob_owner, summary, np.array(times))
        t_texts = t_texts[:, :np.count_nonzero(t_texts, axis=1).max()]  # the widest t text
        prefix = _table((records,), _ascii([f"{step}," for step in steps]), t_texts, _COMMA)
        dist_texts = _record_texts(_table(
            (records, size), prefix[:, None], _level_column(size), prices, _COMMA, owners, _NEWLINE
        ))
        fields = _table(scalars.shape[:2], scalars, _SUMMARY_ENDS).reshape(records, -1)
        summary_texts = _record_texts(_table((records,), prefix, fields))
        for dist_text, summary_text in zip(dist_texts, summary_texts):
            self._dist_file.write(dist_text)
            self._summary_file.write(summary_text)

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

    def write_block(self, block):
        for (step, t), prices, owners, summary in _block_rows(block):
            record = {
                "step": step,
                "t": _rounded(t),
                "prob_price": [_rounded(p) for p in prices],
                "prob_owner": [_rounded(o) for o in owners],
            }
            record.update(zip(SUMMARY_FIELDS, map(_rounded, summary)))
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
    # evolve's step-0 record, so the two summary rows agree byte for byte
    t0 = scenario.evolution.params.t0 if scenario.evolution is not None else 0.0
    block = state_record(build_initial_state(scenario), t0)
    with _make_sink(scenario) as sink:
        sink.write_block(block)
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
        for block in record_blocks(
            state0, params, scenario.evolution.potential, scenario.output.record_every
        ):
            sink.write_block(block)
            count += len(block)
            max_norm_error = max(max_norm_error, block.norm_errors.max().item())
            del block  # freed before the next block is computed
    if not quiet and scenario.output.path is not None:
        print(f"evolve: {count} records, max norm_error {format_number(max_norm_error)}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
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
