"""Command-line front end.

Commands:
    state --config FILE        price/owner distributions and summary
    spectrum --n N [--json]    commutator eigenvalues, ascending; two
                               dense N/2 x N/2 Jacobi problems, so
                               2 <= N <= MAX_DENSE_SIZE (2048)
    uncertainty --config FILE  Robertson-relation report for the state
    evolve --config FILE       time evolution per the scenario

state and evolve write through one sink, CSV or JSON per the scenario,
used as a with-block. A sink takes a whole RecordBlock, as
evolution.record_blocks yields them (state writes a block of one), so
memory stays O(N) whatever the record count: the block's marks, both
distributions and its summary, whose columns are SUMMARY_FIELDS,
norm_error last. The CSV sink writes each record block as one table:
two uint8 matrices, the distribution rows and the summary rows, of each
record's "step,t," prefix, a cached "n," column per N, the number fields
and the separators, all zero-padded. One numfmt.encode call formats the
block's numbers, one row of 2N + 8 per record (t included), in passes
of whole records; the t field is cut to the widest t text. One
bytes.translate strips the padding of a whole matrix, and a block is one
write per file. A block holds at most evolution.RECORD_BLOCK_SIZE
amplitudes or one record, so a table's bytes stay
O(RECORD_BLOCK_SIZE + N). The JSON sink formats a block the same way,
reads the text back as float64 (float(format_number(x)) bit for bit, so
both formats carry the same numbers), converts it to Python floats with
one tolist and writes one record at a time. An exception that
aborts the with-block ends the partial output, whole records only, in a
truncation marker (a TRUNCATED row, or "truncated": true) and closes it;
every block or record written before the failure stays. Status lines go
to stdout only when the output goes to a file.

Exit codes: 0 success, 1 usage or schema problem, 2 numerical invariant
violation, 3 I/O failure, 4 out of memory, 130 interrupted (SIGINT),
143 terminated (SIGTERM, which the console entry point raises as
Terminated). All emitted numbers are deterministic for a given scenario.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import numfmt
from .errors import StockwaveError
from .operators import MAX_DENSE_SIZE, commutator_spectrum
from .evolution import SUMMARY_FIELDS, record_blocks, state_record, uncertainty_product_report
from .scenario import Scenario, ScenarioError, build_initial_state, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_MEMORY = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_TERMINATED = 143  # 128 + SIGTERM

DIST_HEADER = "step,t,n,prob_price,prob_owner"
SUMMARY_HEADER = "step,t," + ",".join(SUMMARY_FIELDS)
TRUNCATION_MARKER = "TRUNCATED"


class UsageError(Exception):
    pass


class Terminated(BaseException):
    """SIGTERM, raised in the main thread; a BaseException, as
    KeyboardInterrupt is, so that no ``except Exception`` stops it."""


def _terminate(signum, frame):
    raise Terminated


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def format_number(x: float) -> str:
    """15 significant digits; positional notation within [1e-4, 1e15)."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0
    return f"{x:.15g}"


def _format_eigenvalue(value: float) -> str:
    # table-style print: 12 decimals truncated toward zero; rounding would
    # flip the boundary digits of the plateau eigenvalues. The product is
    # exact: value * 1e12 in floating point rounds before it truncates.
    numerator, denominator = value.as_integer_ratio()
    scaled = abs(numerator) * 10**12 // denominator
    sign = "-" if numerator < 0 and scaled else ""  # no "-0.000000000000"
    whole, frac = divmod(scaled, 10**12)
    return f"{sign}{whole}.{frac:012d}"


def _ascii(texts: list) -> np.ndarray:
    """(len(texts), width) uint8: each text's bytes, zero-padded."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


_COMMA, _NEWLINE = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)


@functools.lru_cache(maxsize=4)
def _level_column(size: int) -> np.ndarray:
    """The "n," field of each distribution row of a lattice, as bytes: the
    numfmt text of each level n, cut to the widest, then a comma. %.15g
    writes an integer below 10^15 as its digits."""
    levels = numfmt.encode(np.arange(size, dtype=np.float64))
    width = np.count_nonzero(levels.any(axis=0))
    column = _table((size,), levels[:, :width], _COMMA)
    column.setflags(write=False)
    return column
_SUMMARY_ENDS = np.frombuffer(b"," * (len(SUMMARY_FIELDS) - 1) + b"\n", np.uint8)[:, None]


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


def _encoded(*columns) -> np.ndarray:
    """numfmt text of np.column_stack(columns), one encode call. Adding
    0.0 in place to the fresh stack folds -0.0 as format_number does."""
    numbers = np.column_stack(columns)
    numbers += 0.0
    return numfmt.encode(numbers)


def _block_text(block) -> np.ndarray:
    """A record block's numbers as text, one row of 2N + 8 per record in
    the order both sinks read them: prob_price, prob_owner, the summary
    columns and t."""
    return _encoded(block.prob_price, block.prob_owner, block.summary, [t for _, t in block.marks])


def _read_back(text: np.ndarray) -> np.ndarray:
    """The float64 of each numfmt text: float(format_number(x)) for the x
    it was encoded from, bit for bit."""
    return text.view(f"S{numfmt.W}")[..., 0].astype(np.float64)


def _stripped(table: np.ndarray) -> str:
    """A table's text: its bytes in order, the zero pad bytes dropped."""
    return table.tobytes().translate(None, b"\0").decode("ascii")


def _truncation_row(header: str) -> str:
    return TRUNCATION_MARKER + "," * header.count(",") + "\n"


class _CsvSink(contextlib.AbstractContextManager):
    """Distributions at the scenario path, summary at a _summary sibling;
    a table is one record block, one write to each. Without a path the
    distributions stream to stdout and the summary table, spooled to a
    temporary file, follows them at the end. Used as a with-block: an
    exception leaving the block ends both tables in a TRUNCATED row, as a
    summary file that cannot be opened ends the distributions table; the
    files are always closed."""

    def __init__(self, path: str | None):
        self._to_stdout = path is None
        with contextlib.ExitStack() as files:
            if self._to_stdout:
                self._dist_file = sys.stdout
                self._summary_file = files.enter_context(tempfile.TemporaryFile("w+", newline=""))
            else:
                target = Path(path)
                summary_target = target.with_name(target.stem + "_summary" + target.suffix)
                self._dist_file = files.enter_context(open(target, "w", newline=""))
                try:
                    self._summary_file = files.enter_context(open(summary_target, "w", newline=""))
                except OSError:  # the distributions file ends as an aborted run's does
                    self._dist_file.write(DIST_HEADER + "\n" + _truncation_row(DIST_HEADER))
                    raise
            self._dist_file.write(DIST_HEADER + "\n")
            self._summary_file.write(SUMMARY_HEADER + "\n")
            self._files = files.pop_all()

    def write_block(self, block):
        records, size = block.prob_price.shape
        steps = [step for step, _ in block.marks]
        text = _block_text(block)
        # each record's "step,t," prefix, the t field cut to the widest t
        # text: texts are left-aligned and hold no zero byte
        t_width = np.count_nonzero(text[:, -1].any(axis=0))
        prefix = _table((records,), _ascii([f"{step}," for step in steps]), text[:, -1, :t_width], _COMMA)
        fields = _table((records, len(SUMMARY_FIELDS)), text[:, 2 * size:-1], _SUMMARY_ENDS)
        summary = _stripped(_table((records,), prefix, fields.reshape(records, -1)))
        dist = _table(
            (records, size), prefix[:, None], _level_column(size),
            text[:, :size], _COMMA, text[:, size:2 * size], _NEWLINE,
        )
        # the block's texts, its table, their bytes and the stripped bytes
        # each go once the next stage exists, so at most two are alive
        del text
        dist = dist.tobytes()
        dist = dist.translate(None, b"\0")
        dist = dist.decode("ascii")
        self._dist_file.write(dist)
        self._summary_file.write(summary)

    def __exit__(self, exc_type, exc, tb):
        with self._files:
            if exc_type is not None:
                self._dist_file.write(_truncation_row(DIST_HEADER))
                self._summary_file.write(_truncation_row(SUMMARY_HEADER))
            if self._to_stdout:
                self._dist_file.write("\n")
                self._summary_file.seek(0)
                shutil.copyfileobj(self._summary_file, self._dist_file)


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
        size = block.prob_price.shape[1]
        for (step, _), row in zip(block.marks, _read_back(_block_text(block)).tolist()):
            record = {"step": step, "t": row[-1], "prob_price": row[:size],
                      "prob_owner": row[size:2 * size]}
            record.update(zip(SUMMARY_FIELDS, row[2 * size:-1]))
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


def cmd_uncertainty(scenario: Scenario) -> int:
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
        raise UsageError(f"spectrum requires --n <= {MAX_DENSE_SIZE} (dense Jacobi path)")
    result = commutator_spectrum(size)
    if as_json:
        values = _read_back(_encoded(np.append(result.eigenvalues.imag, result.residual)))
        *eigenvalues, residual = values.ravel().tolist()
        print(json.dumps({"n": size, "eigenvalues_imag": eigenvalues, "residual": residual}, indent=2))
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
            max_norm_error = max(max_norm_error, block.summary[:, -1].max().item())
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
            return cmd_uncertainty(_load_scenario(args.config))
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
    except MemoryError:
        print("stockwave: out of memory", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("stockwave: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:
        print("stockwave: terminated", file=sys.stderr)
        return EXIT_TERMINATED


def console_main() -> int:
    """The console script and ``python -m stockwave``: ``main`` with SIGTERM
    raised as Terminated. In-process callers of ``main`` keep their own
    SIGTERM handling."""
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        return main()
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(console_main())
