"""The benchmark's own checks: corrupted outputs must count as failed ops.

Run from the repository root with ``python -m pytest perfbench``.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from checks import Ledger  # noqa: E402
from workloads import make_cases  # noqa: E402
from stockwave import cli  # noqa: E402


def _run(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(case.argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def stream_case(tmp_path_factory):
    case = make_cases("stream-n21", 7, tmp_path_factory.mktemp("stream"))[0]
    code, stdout = _run(case)
    return case, code, stdout, case.out_path.read_text(), case.summary_path.read_text()


@pytest.fixture(scope="module")
def spectrum_output():
    case = make_cases("spectrum-n101", 7, None)[0]
    code, stdout = _run(case)
    return case, code, stdout


def _restore(case, dist, summary):
    case.out_path.write_text(dist)
    case.summary_path.write_text(summary)


def test_good_evolve_output_passes_and_repeats(stream_case):
    case, code, stdout, dist, summary = stream_case
    _restore(case, dist, summary)
    ledger = Ledger()
    ledger.record(case, code, stdout)
    ledger.record(case, code, stdout)
    assert (ledger.attempted, ledger.failed) == (2, 0), ledger.problems
    assert 0.0 < ledger.max_norm_error <= 1e-8


def test_truncated_csv_fails(stream_case):
    case, code, stdout, dist, summary = stream_case
    _restore(case, dist[: len(dist) // 2], summary)
    ledger = Ledger()
    ledger.record(case, code, stdout)
    assert ledger.failed == 1
    # cut at a line boundary: the row count gives it away
    _restore(case, "".join(dist.splitlines(keepends=True)[:-3]), summary)
    ledger.record(case, code, stdout)
    assert ledger.failed == 2


def test_norm_error_above_budget_fails(stream_case):
    case, code, stdout, dist, summary = stream_case
    lines = summary.splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[-1] = "2e-08"
    lines[5] = ",".join(fields) + "\n"
    _restore(case, dist, "".join(lines))
    ledger = Ledger()
    ledger.record(case, code, stdout)
    assert ledger.failed == 1
    assert any("norm_error" in p for p in ledger.problems)


def test_later_output_must_match_the_first(stream_case):
    case, code, stdout, dist, summary = stream_case
    _restore(case, dist, summary)
    ledger = Ledger()
    ledger.record(case, code, stdout)
    # a change in the last digit keeps every invariant but breaks identity
    lines = dist.splitlines(keepends=True)
    lines[-1] = lines[-1].rstrip("\n")[:-1] + ("1" if lines[-1].rstrip("\n")[-1] != "1" else "2") + "\n"
    _restore(case, "".join(lines), summary)
    ledger.record(case, code, stdout)
    assert (ledger.attempted, ledger.failed) == (2, 1)


def test_nonzero_exit_fails(stream_case):
    case, _, stdout, dist, summary = stream_case
    _restore(case, dist, summary)
    ledger = Ledger()
    ledger.record(case, 2, stdout)
    assert ledger.failed == 1


def test_good_spectrum_passes(spectrum_output):
    case, code, stdout = spectrum_output
    ledger = Ledger()
    ledger.record(case, code, stdout)
    assert ledger.failed == 0, ledger.problems
    assert ledger.max_residual > 0.0


def test_perturbed_eigenvalue_fails(spectrum_output):
    case, code, stdout = spectrum_output
    doc = json.loads(stdout)
    doc["eigenvalues_imag"][-1] += 1e-6  # keeps the order and the plateau
    ledger = Ledger()
    ledger.record(case, code, json.dumps(doc, indent=2) + "\n")
    assert ledger.failed == 1
    assert any("eigvalsh" in p for p in ledger.problems)


def test_residual_above_bound_fails(spectrum_output):
    case, code, stdout = spectrum_output
    doc = json.loads(stdout)
    doc["residual"] = 1.0
    ledger = Ledger()
    ledger.record(case, code, json.dumps(doc, indent=2) + "\n")
    assert ledger.failed == 1
