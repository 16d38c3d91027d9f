"""Command-line front end.

Commands:
    state --config FILE        price/owner distributions and summary
    spectrum --n N [--json]    commutator eigenvalues, ascending
    uncertainty --config FILE  Robertson-relation report for the state
    evolve --config FILE       time evolution per the scenario

Exit codes: 0 success, 1 usage or schema problem, 2 numerical invariant
violation, 3 I/O failure. All emitted numbers are deterministic for a
given scenario.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    ConservationError,
    ContractError,
    ConvergenceError,
    DegenerateStateError,
    DimensionError,
    InvariantViolationError,
    NumericalConsistencyError,
)
from .fourier import plan_for
from .lattice import norm
from .operators import commutator_spectrum, uncertainty_product_report
from .evolution import evolve
from .scenario import Scenario, ScenarioError, build_initial_state, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

_NUMERIC_ERRORS = (
    ConservationError,
    ContractError,
    ConvergenceError,
    DegenerateStateError,
    DimensionError,
    InvariantViolationError,
    NumericalConsistencyError,
)

DIST_HEADER = "step,t,n,prob_price,prob_owner"
SUMMARY_HEADER = "step,t,mean_price,mean_owner,delta_price,delta_owner,product,bound,norm_error"
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


def _write_record(sink, step, t, state, *, delta_price, delta_owner, product, bound, norm_error):
    probs = np.abs(state.values) ** 2
    owner = np.abs(plan_for(state.size, "forward").apply(state.values)) ** 2
    idx = np.arange(state.size)
    sink.write_record(step, t, probs, owner, {
        "mean_price": float(np.dot(idx, probs)),
        "mean_owner": float(np.dot(idx, owner)),
        "delta_price": delta_price,
        "delta_owner": delta_owner,
        "product": product,
        "bound": bound,
        "norm_error": norm_error,
    })


class _CsvSink:
    """Distributions at the scenario path, summary at a _summary sibling;
    both stream row by row. Without a path the tables buffer and print to
    stdout at the end."""

    def __init__(self, path: str | None):
        self._dist_lines = None
        self._summary_lines = None
        self._dist_file = None
        self._summary_file = None
        if path is None:
            self._dist_lines = []
            self._summary_lines = []
        else:
            target = Path(path)
            summary_target = target.with_name(target.stem + "_summary" + target.suffix)
            self._dist_file = open(target, "w", newline="")
            self._summary_file = open(summary_target, "w", newline="")
            self._dist_file.write(DIST_HEADER + "\n")
            self._summary_file.write(SUMMARY_HEADER + "\n")

    def _emit_dist(self, line: str):
        if self._dist_file is not None:
            self._dist_file.write(line + "\n")
        else:
            self._dist_lines.append(line)

    def _emit_summary(self, line: str):
        if self._summary_file is not None:
            self._summary_file.write(line + "\n")
        else:
            self._summary_lines.append(line)

    def write_record(self, step: int, t: float, probs, owner, summary: dict):
        t_text = format_number(t)
        for n, (p, o) in enumerate(zip(probs, owner)):
            self._emit_dist(f"{step},{t_text},{n},{format_number(p)},{format_number(o)}")
        self._emit_summary(
            f"{step},{t_text},"
            + ",".join(
                format_number(summary[key])
                for key in (
                    "mean_price",
                    "mean_owner",
                    "delta_price",
                    "delta_owner",
                    "product",
                    "bound",
                    "norm_error",
                )
            )
        )

    def write_truncation_marker(self):
        self._emit_dist(TRUNCATION_MARKER + "," * (DIST_HEADER.count(",")))
        self._emit_summary(TRUNCATION_MARKER + "," * (SUMMARY_HEADER.count(",")))

    def close(self):
        if self._dist_file is not None:
            self._dist_file.close()
            self._summary_file.close()
        else:
            print(DIST_HEADER)
            for line in self._dist_lines:
                print(line)
            print()
            print(SUMMARY_HEADER)
            for line in self._summary_lines:
                print(line)


class _JsonSink:
    def __init__(self, path: str | None, size: int):
        self._path = path
        self._doc = {"n": size, "records": []}

    def write_record(self, step, t, probs, owner, summary):
        record = {"step": step, "t": _rounded(t)}
        record["prob_price"] = [_rounded(p) for p in probs]
        record["prob_owner"] = [_rounded(o) for o in owner]
        record.update({key: _rounded(value) for key, value in summary.items()})
        self._doc["records"].append(record)

    def write_truncation_marker(self):
        self._doc["truncated"] = True

    def close(self):
        text = json.dumps(self._doc, indent=2) + "\n"
        if self._path is None:
            sys.stdout.write(text)
        else:
            with open(self._path, "w", newline="") as handle:
                handle.write(text)


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
    sink = _make_sink(scenario)
    _write_record(
        sink, 0, 0.0, state,
        delta_price=report.delta_price,
        delta_owner=report.delta_owner,
        product=report.product,
        bound=report.bound,
        norm_error=abs(norm(state.base) - 1.0),
    )
    sink.close()
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
    sink = _make_sink(scenario)
    count = 0
    max_norm_error = 0.0
    try:
        for record in evolve(
            state0, params, scenario.evolution.potential, scenario.output.record_every
        ):
            step = round((record.time - params.t0) / params.dt)
            _write_record(
                sink, step, record.time, record.state,
                delta_price=record.delta_price,
                delta_owner=record.delta_owner,
                product=record.uncertainty_product,
                bound=record.uncertainty_bound,
                norm_error=record.norm_error,
            )
            count += 1
            max_norm_error = max(max_norm_error, record.norm_error)
    except _NUMERIC_ERRORS:
        # close both outputs with the marker; main() reports the error
        sink.write_truncation_marker()
        sink.close()
        raise
    sink.close()
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
    spectrum_p.add_argument("--n", type=int, required=True, help="lattice size (>= 2)")
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
    except _NUMERIC_ERRORS as exc:
        print(f"stockwave: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"stockwave: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
