import builtins
import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stockwave import (
    ConservationError,
    DimensionError,
    InvariantViolationError,
    NumericalConsistencyError,
    cli,
    evolution,
    evolve,
    operators,
)
from stockwave.scenario import MAX_LATTICE_SIZE, build_initial_state, parse_scenario
from helpers import powers_of_ten_and_neighbours, primes_to


def run_cli(args):
    return cli.main(args)


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def delta_doc(tmp_path, out_name="out.csv"):
    return {
        "N": 21,
        "state": {"type": "delta", "m": 7},
        "output": {"format": "csv", "path": str(tmp_path / out_name)},
    }


def test_state_delta_owner_column_uniform(tmp_path, capsys):
    config = write_config(tmp_path, delta_doc(tmp_path))
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    header, rows = read_csv(tmp_path / "out.csv")
    assert header == "step,t,n,prob_price,prob_owner"
    assert len(rows) == 21
    for row in rows:
        assert row[4].startswith("0.047619047619")
        assert float(row[4]) == pytest.approx(1.0 / 21.0, abs=1e-12)
    assert sum(float(row[3]) for row in rows) == pytest.approx(1.0, abs=1e-9)
    assert sum(float(row[4]) for row in rows) == pytest.approx(1.0, abs=1e-9)


def test_state_summary_saturation(tmp_path):
    doc = {
        "N": 21,
        "state": {"type": "gaussian", "kappa": 1.0, "n0": 10, "k0": 10},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    header, rows = read_csv(tmp_path / "out_summary.csv")
    assert header == "step,t,mean_price,mean_owner,delta_price,delta_owner,product,bound,norm_error"
    (row,) = rows
    product, bound = float(row[6]), float(row[7])
    assert product == pytest.approx(bound, rel=1e-3)
    assert product >= bound


def test_state_custom_uniform(tmp_path):
    doc = {
        "N": 4,
        "state": {"type": "custom", "re": [1.0] * 4, "im": [0.0] * 4},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert [row[3] for row in rows] == ["0.25"] * 4


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [2.0**700, 2.0**-600, 2.0**-1074])
def test_state_custom_amplitudes_of_any_magnitude(tmp_path, scale):
    # 2^700 overflowed the norm (a traceback), 2^-600 underflowed it (exit
    # 2); a power of two scales exactly, so the bytes match those of 1
    outputs = []
    for factor in (1.0, scale):
        doc = {
            "N": 3,
            "state": {"type": "custom", "re": [factor, factor, 0.0], "im": [0.0, 0.0, 0.0]},
            "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
        }
        assert run_cli(["--quiet", "state", "--config", write_config(tmp_path, doc)]) == 0
        outputs.append([(tmp_path / name).read_bytes() for name in ("out.csv", "out_summary.csv")])
    assert outputs[1] == outputs[0]


def test_state_stdout_when_no_path(tmp_path, capsys):
    doc = {"N": 4, "state": {"type": "delta", "m": 1}}
    config = write_config(tmp_path, doc)
    assert run_cli(["state", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step,t,n,prob_price,prob_owner")
    assert "step,t,mean_price" in out


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    size=st.integers(2, 199),
    kappa=st.floats(0.2, 5.0),
    n0=st.integers(0, 198),
    k0=st.integers(0, 198),
)
def test_state_writes_the_step_zero_record_of_evolve(size, kappa, n0, k0):
    state = {"type": "gaussian", "kappa": kappa, "n0": n0 % size, "k0": k0 % size}
    with tempfile.TemporaryDirectory() as tmp:
        outputs = {}
        for command in ("state", "evolve"):
            doc = {
                "N": size,
                "state": state,
                "evolution": {"mu": 1.0, "dt": 0.01, "steps": 1},
                "output": {"format": "csv", "path": str(Path(tmp) / f"{command}.csv")},
            }
            config = write_config(Path(tmp), doc, f"{command}.json")
            assert run_cli(["--quiet", command, "--config", config]) == 0
            _, rows = read_csv(Path(tmp) / f"{command}.csv")
            _, summary = read_csv(Path(tmp) / f"{command}_summary.csv")
            outputs[command] = rows[:size], summary[0]
        assert outputs["state"] == outputs["evolve"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_state_record_starts_at_the_scenario_t0(tmp_path, fmt):
    outputs = {}
    for command in ("state", "evolve"):
        path = tmp_path / f"{command}.{fmt}"
        doc = {
            "N": 4,
            "state": {"type": "delta", "m": 1},
            "evolution": {"mu": 1.0, "dt": 0.5, "steps": 1, "t0": 5.0},
            "output": {"format": fmt, "path": str(path)},
        }
        assert run_cli(["--quiet", command, "--config", write_config(tmp_path, doc)]) == 0
        if fmt == "json":
            outputs[command] = json.loads(path.read_text())["records"][0]
        else:
            outputs[command] = read_csv(tmp_path / f"{command}_summary.csv")[1][0]
    assert outputs["state"] == outputs["evolve"]


def test_spectrum_row_11(capsys):
    assert run_cli(["spectrum", "--n", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    index, value = lines[10].split(",")
    assert index == "11"
    assert value == "3.342253804929"


@pytest.mark.parametrize("value, text", [
    (685.3032613873299, "685.303261387329"),  # spectrum --n 101, row 100
    (234.916782144276, "234.916782144275"),  # spectrum --n 32, row 32: just under ...276
])
def test_spectrum_rows_truncate_the_exact_value(value, text):
    # value * 1e12 rounds up to the next integer in floating point
    assert cli._format_eigenvalue(value) == text


@given(st.floats(min_value=-1e6, max_value=1e6))
@example(-0.0)
@example(-1e-13)
@example(685.3032613873299)
def test_spectrum_text_truncates_toward_zero(value):
    text = cli._format_eigenvalue(value)
    assert len(text.partition(".")[2]) == 12
    printed, exact = Fraction(text), Fraction(value)
    assert abs(printed) <= abs(exact) < abs(printed) + Fraction(1, 10**12)
    assert printed * exact >= 0
    assert text.startswith("-") == (printed < 0)  # no "-0.000000000000"


def test_spectrum_n2_traceless(capsys):
    assert run_cli(["spectrum", "--n", "2"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split(",")[1]) for line in out.splitlines()]
    assert sum(values) == pytest.approx(0.0, abs=1e-12)
    assert out == "1,-0.500000000000\n2,0.500000000000\n"  # the exact +-1/2


def test_spectrum_json(capsys):
    assert run_cli(["spectrum", "--n", "4", "--json"]) == 0
    result = operators.commutator_spectrum(4)
    values = [float(cli.format_number(x)) for x in (*result.eigenvalues.imag, result.residual)]
    doc = {"n": 4, "eigenvalues_imag": values[:-1], "residual": values[-1]}
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
    assert len(doc["eigenvalues_imag"]) == 4
    assert doc["residual"] < 1e-10


def test_spectrum_usage_error(capsys):
    assert run_cli(["spectrum", "--n", "1"]) == 1
    assert "stockwave:" in capsys.readouterr().err


def test_spectrum_size_limit_rejected_before_work(monkeypatch, capsys):
    def never(size):
        raise AssertionError("commutator_spectrum must not run")

    monkeypatch.setattr(cli, "commutator_spectrum", never)
    assert run_cli(["spectrum", "--n", "100000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stockwave: ") and err.count("\n") == 1
    assert str(cli.MAX_DENSE_SIZE) in err


def test_uncertainty_command(tmp_path, capsys):
    doc = {"N": 21, "state": {"type": "gaussian", "kappa": 1.0, "n0": 10, "k0": 10}}
    config = write_config(tmp_path, doc)
    assert run_cli(["uncertainty", "--config", config]) == 0
    out = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
    assert set(out) == {"delta_price", "delta_owner", "product", "bound", "saturated"}
    assert float(out["product"]) >= float(out["bound"])


def test_evolve_stationary_owner_column(tmp_path):
    size = 21
    values = np.exp(2j * np.pi * 3 * np.arange(size) / size) / np.sqrt(size)
    doc = {
        "N": size,
        "state": {
            "type": "custom",
            "re": list(values.real),
            "im": list(values.imag),
        },
        "evolution": {"mu": 1.0, "dt": 0.01, "steps": 1000},
        "output": {"format": "csv", "path": str(tmp_path / "run.csv"), "record_every": 200},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 0
    _, rows = read_csv(tmp_path / "run.csv")
    assert len(rows) == 6 * size  # records at steps 0,200,...,1000
    for row in rows:
        expected = 1.0 if row[2] == "3" else 0.0
        assert float(row[4]) == pytest.approx(expected, abs=1e-10)
    # probability columns sum to 1 within every recorded row group
    for start in range(0, len(rows), size):
        group = rows[start:start + size]
        assert sum(float(r[3]) for r in group) == pytest.approx(1.0, abs=1e-9)
        assert sum(float(r[4]) for r in group) == pytest.approx(1.0, abs=1e-9)
    _, srows = read_csv(tmp_path / "run_summary.csv")
    assert [row[0] for row in srows] == ["0", "200", "400", "600", "800", "1000"]
    assert all(float(row[8]) <= 1e-8 for row in srows)


def test_evolve_requires_evolution_block(tmp_path, capsys):
    config = write_config(tmp_path, {"N": 4, "state": {"type": "delta", "m": 0}})
    assert run_cli(["evolve", "--config", config]) == 1
    assert "evolution" in capsys.readouterr().err


def test_evolve_dt_zero_rejected(tmp_path, capsys):
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {"mu": 1.0, "dt": 0.0, "steps": 5},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", config]) == 1
    assert "evolution.dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "error", [ConservationError, NumericalConsistencyError, InvariantViolationError, DimensionError]
)
def test_evolve_truncation_marker(tmp_path, monkeypatch, capsys, error):
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {"mu": 1.0, "dt": 0.01, "steps": 5},
        "output": {"format": "csv", "path": str(tmp_path / "run.csv")},
    }
    config = write_config(tmp_path, doc)

    def failing_blocks(phi0, params, potential, record_every=1):
        from stockwave.evolution import record_blocks

        yield next(record_blocks(phi0, params, potential, record_every))
        raise error("synthetic failure")

    monkeypatch.setattr(evolution, "RECORD_BLOCK_SIZE", 1)  # one record per block
    monkeypatch.setattr(cli, "record_blocks", failing_blocks)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 2
    assert capsys.readouterr().err == "stockwave: synthetic failure\n"
    header, rows = read_csv(tmp_path / "run.csv")
    assert rows[-1][0] == "TRUNCATED"
    assert len(rows) == 4 + 1  # one record group plus the marker
    _, srows = read_csv(tmp_path / "run_summary.csv")
    assert srows[-1][0] == "TRUNCATED"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("error, code, message", [
    (KeyboardInterrupt, 130, "stockwave: interrupted\n"),
    (MemoryError, 4, "stockwave: out of memory\n"),
])
def test_interrupt_and_out_of_memory_end_in_exit_codes(
    tmp_path, monkeypatch, capsys, fmt, error, code, message
):
    doc = failure_doc(steps=250)  # blocks of 195 and 56 records
    _, clean, _ = evolve_records(tmp_path, doc, fmt)
    sinks, make_sink = [], cli._make_sink

    def recorded_sink(scenario):
        sinks.append(make_sink(scenario))
        return sinks[-1]

    def failing_blocks(phi0, params, potential, record_every=1):
        yield next(evolution.record_blocks(phi0, params, potential, record_every))
        raise error

    monkeypatch.setattr(cli, "_make_sink", recorded_sink)
    monkeypatch.setattr(cli, "record_blocks", failing_blocks)
    exit_code, records, truncated = evolve_records(tmp_path, doc, fmt)
    assert exit_code == code and capsys.readouterr().err == message
    assert truncated and records == clean[:195]
    files = ["_file"] if fmt == "json" else ["_dist_file", "_summary_file"]
    assert all(getattr(sinks[0], name).closed for name in files)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sigterm_ends_in_exit_143_with_markers(tmp_path, fmt):
    # the console entry point's handler raises in the main thread, so the
    # sink ends its output in the marker; the run would take minutes, and
    # is terminated once its output has grown past the header
    path = tmp_path / f"run.{fmt}"
    doc = {**failure_doc(steps=10**7), "output": {"format": fmt, "path": str(path)}}
    argv = [sys.executable, "-m", "stockwave", "evolve", "--config", write_config(tmp_path, doc)]
    header = len(cli.DIST_HEADER if fmt == "csv" else '{\n  "n": 21,\n  "records": [') + 1
    run = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not path.exists() or path.stat().st_size <= header:
            assert run.poll() is None and time.monotonic() < deadline, run.returncode
            time.sleep(0.01)
        run.send_signal(signal.SIGTERM)
        out, err = run.communicate(timeout=60)
    except BaseException:
        run.kill()
        run.communicate()
        raise
    assert run.returncode == 143 and err == "stockwave: terminated\n" and out == ""
    if fmt == "json":
        document = json.loads(path.read_text())
        assert document["truncated"] and document["records"]
    else:
        # whole blocks in each file, the first at least; the distributions
        # are written first, so the summary may be a block behind
        _, rows = read_csv(path)
        _, srows = read_csv(tmp_path / "run_summary.csv")
        assert rows[-1][0] == srows[-1][0] == "TRUNCATED"
        assert (len(rows) - 1) % 21 == 0 and len(rows) - 1 >= 21 * 195 and len(srows) - 1 >= 195


# at N = 4 a block holds 4096 // 4 = 1024 records, each block one write
# per file; the distributions table is written before the summary table
@pytest.mark.parametrize("file_attr, dist_kept, summary_kept", [
    ("_dist_file", 1024, 1024),
    ("_summary_file", 1501, 1024),
])
def test_evolve_io_failure_closes_marked_outputs(
    tmp_path, monkeypatch, capsys, file_attr, dist_kept, summary_kept
):
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {"mu": 1.0, "dt": 0.01, "steps": 1500},  # 1501 records, two blocks
        "output": {"format": "csv", "path": str(tmp_path / "run.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 0
    _, clean = read_csv(tmp_path / "run.csv")
    _, sclean = read_csv(tmp_path / "run_summary.csv")
    sinks, _ = fail_write(monkeypatch, cli._CsvSink, file_attr, 2)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 3
    assert capsys.readouterr().err == "stockwave: synthetic write failure\n"
    assert sinks[0]._dist_file.closed and sinks[0]._summary_file.closed
    _, rows = read_csv(tmp_path / "run.csv")
    assert rows[:-1] == clean[:4 * dist_kept] and rows[-1][0] == "TRUNCATED"
    _, srows = read_csv(tmp_path / "run_summary.csv")
    assert srows[:-1] == sclean[:summary_kept] and srows[-1][0] == "TRUNCATED"


def reference_output(doc):
    """The outputs of an evolve scenario, written record by record from
    the library's evolve iterator: CSV rows of format_number values, or
    the whole document through json.dumps(doc, indent=2)."""
    scenario = parse_scenario(json.dumps(doc).encode())
    records = evolve(
        build_initial_state(scenario),
        scenario.evolution.params,
        scenario.evolution.potential,
        scenario.output.record_every,
    )
    rows, summary, documents = [cli.DIST_HEADER], [cli.SUMMARY_HEADER], []
    for record in records:
        report, fmt = record.report, cli.format_number
        head = f"{record.step},{fmt(record.time)}"
        rows += [
            f"{head},{n},{fmt(p)},{fmt(o)}"
            for n, (p, o) in enumerate(zip(report.prob_price, report.prob_owner))
        ]
        values = [getattr(report, f) for f in cli.SUMMARY_FIELDS[:-1]] + [record.norm_error]
        summary.append(",".join([head, *map(fmt, values)]))
        documents.append({
            "step": record.step,
            "t": float(fmt(record.time)),
            "prob_price": [float(fmt(p)) for p in report.prob_price],
            "prob_owner": [float(fmt(o)) for o in report.prob_owner],
            **{f: float(fmt(v)) for f, v in zip(cli.SUMMARY_FIELDS, values)},
        })
    if doc["output"]["format"] == "json":
        return [json.dumps({"n": doc["N"], "records": documents}, indent=2) + "\n"]
    return ["\n".join(rows) + "\n", "\n".join(summary) + "\n"]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    size=st.one_of(st.integers(1, 300), st.sampled_from(primes_to(300))),
    steps=st.integers(1, 40),
    record_every=st.integers(1, 4),
    fmt=st.sampled_from(["csv", "json"]),
    kappa=st.floats(0.3, 3.0),
    # 999999999999999.875 is "1e+15" in CSV and 1000000000000000.0 in JSON
    t0=st.sampled_from([0.0, -0.0, 999999999999999.875, 1e16]),
)
def test_block_sinks_write_what_each_record_writes(size, steps, record_every, fmt, kappa, t0):
    # at N = 300 a block holds 13 records, so longer runs span several
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"run.{fmt}"
        doc = {
            "N": size,
            "state": {"type": "gaussian", "kappa": kappa, "n0": size // 3, "k0": size // 2},
            "evolution": {
                "mu": 1.0,
                "dt": 1e-3,
                "steps": steps,
                "t0": t0,
                "potential": {
                    "type": "modulated",
                    "base": {"type": "harmonic", "center": size / 2.0, "strength": 4.0 / size},
                    "amplitude": 1.5,
                    "omega": 3.0,
                },
            },
            "output": {"format": fmt, "path": str(out), "record_every": record_every},
        }
        config = write_config(Path(tmp), doc)
        assert run_cli(["--quiet", "evolve", "--config", config]) == 0
        paths = [out] if fmt == "json" else [out, out.with_name("run_summary.csv")]
        assert [path.read_text() for path in paths] == reference_output(doc)


# a table is one record block (195 records at N = 21, 4 at N = 1020 and
# 1021); numfmt.encode formats it in passes of whole records
@pytest.mark.parametrize("size, steps, passes", [
    (21, 500, 8),  # passes of 81 records: 81, 81, 33 in each full block
    (1020, 9, 5),  # two records fill numfmt.CHUNK exactly
    (1021, 9, 10),  # one record per pass
])
def test_csv_tables_span_blocks_one_format_pass_each(tmp_path, monkeypatch, size, steps, passes):
    doc = {
        "N": size,
        "state": {"type": "gaussian", "kappa": 1.0, "n0": size // 3, "k0": size // 2},
        "evolution": {
            "mu": 1.0,
            "dt": 1.5e-4,  # t texts of several widths in one table
            "steps": steps,
            "potential": {"type": "harmonic", "center": size / 2.0, "strength": 4.0 / size},
        },
        "output": {"format": "csv", "path": str(tmp_path / "run.csv"), "record_every": 1},
    }
    sizes, decimal = [], cli.numfmt._decimal
    cli._level_column(size)  # formatted once per size and cached: count the tables only

    def counted_decimal(values):
        sizes.append(values.size)
        return decimal(values)

    monkeypatch.setattr(cli.numfmt, "_decimal", counted_decimal)
    _, dist_writes = fail_write(monkeypatch, cli._CsvSink, "_dist_file")
    _, summary_writes = fail_write(monkeypatch, cli._CsvSink, "_summary_file")
    assert run_cli(["--quiet", "evolve", "--config", write_config(tmp_path, doc)]) == 0
    assert len(sizes) == passes and max(sizes) <= cli.numfmt.CHUNK
    assert len(dist_writes) == len(summary_writes) == 3  # blocks
    paths = [tmp_path / "run.csv", tmp_path / "run_summary.csv"]
    assert [path.read_text() for path in paths] == reference_output(doc)


@pytest.mark.parametrize("size", [1, 10, 11, 100, 1001, 2**20])
def test_level_column_is_the_f_string_column(size):
    # numfmt's text of each level, cut to the widest, then a comma: row
    # for row the bytes of f"{n}," once the zero padding goes
    rows = cli._table((size,), cli._level_column(size), cli._NEWLINE)
    expected = "".join(f"{n},\n" for n in range(size))
    assert rows.tobytes().translate(None, b"\0").decode("ascii") == expected


def fail_write(monkeypatch, sink_class, file_attr, failing=None):
    """Make the given write to each sink's file raise OSError, counting
    the writes after the header (written on opening): one per record for
    JSON, one per record block for CSV. Return the sinks and the list of texts
    passed to the patched writes."""
    sinks, calls, write_block = [], [], sink_class.write_block

    def write_failing_block(self, block):
        if self not in sinks:
            sinks.append(self)
            file = getattr(self, file_attr)
            write = file.write

            def failing_write(text):
                calls.append(text)
                if len(calls) == failing:
                    raise OSError("synthetic write failure")
                return write(text)

            file.write = failing_write
        write_block(self, block)

    monkeypatch.setattr(sink_class, "write_block", write_failing_block)
    return sinks, calls


# at N = 21 a block holds 195 records, one CSV write per file
@pytest.mark.parametrize("fmt, failing, kept", [
    pytest.param("csv", 2, 195, id="csv"),
    pytest.param("json", 201, 200, id="json"),
])
def test_evolve_io_failure_in_the_second_block_keeps_whole_records(
    tmp_path, monkeypatch, capsys, fmt, failing, kept
):
    doc = failure_doc(steps=250)
    code, clean, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 0 and not truncated
    sink_class, file_attr = {"csv": (cli._CsvSink, "_dist_file"), "json": (cli._JsonSink, "_file")}[fmt]
    fail_write(monkeypatch, sink_class, file_attr, failing)
    code, records, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 3 and capsys.readouterr().err == "stockwave: synthetic write failure\n"
    assert truncated and records == clean[:kept]


@pytest.mark.parametrize("command", ["state", "uncertainty", "evolve"])
def test_observables_paths_hold_no_dense_matrix(tmp_path, capsys, command):
    size = 1031  # prime; one dense complex matrix is 16 * N^2 B, ~17 MB
    doc = {
        "N": size,
        "state": {"type": "gaussian", "kappa": 1.0, "n0": 500, "k0": 300},
        "evolution": {
            "mu": 1.0,
            "dt": 1e-4,
            "steps": 4,
            "potential": {"type": "harmonic", "center": 515.0, "strength": 1e-3},
        },
        "output": {"format": "csv", "path": str(tmp_path / "run.csv"), "record_every": 4},
    }
    config = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        assert run_cli(["--quiet", command, "--config", config]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * size**2
    if command == "evolve":
        _, srows = read_csv(tmp_path / "run_summary.csv")
        assert [row[0] for row in srows] == ["0", "4"]


@pytest.mark.filterwarnings("error")
def test_evolve_overflowing_potential_truncates(tmp_path, capsys):
    doc = {
        "N": 21,
        "state": {"type": "delta", "m": 3},
        "evolution": {
            "mu": 1.0,
            "dt": 0.01,
            "steps": 5,
            "potential": {"type": "harmonic", "center": 0.0, "strength": 1e308},
        },
        "output": {"format": "csv", "path": str(tmp_path / "run.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stockwave: ") and err.count("\n") == 1
    for name in ("run.csv", "run_summary.csv"):
        _, rows = read_csv(tmp_path / name)
        assert rows[-1][0] == "TRUNCATED"


def failure_doc(steps, potential=None, t0=0.0):
    potential = potential or {"type": "harmonic", "center": 10.0, "strength": 0.1}
    return {
        "N": 21,
        "state": {"type": "gaussian", "kappa": 1.0, "n0": 10, "k0": 3},
        "evolution": {"mu": 1.0, "dt": 0.01, "steps": steps, "t0": t0, "potential": potential},
    }


def evolve_records(tmp_path, doc, fmt):
    """Exit code, the records written (row groups for CSV, parsed for
    JSON) and whether the output ends in the truncation marker."""
    doc = {**doc, "output": {"format": fmt, "path": str(tmp_path / f"run.{fmt}")}}
    code = run_cli(["--quiet", "evolve", "--config", write_config(tmp_path, doc)])
    if fmt == "json":
        out = json.loads((tmp_path / "run.json").read_text())
        return code, out["records"], out.get("truncated", False)
    _, rows = read_csv(tmp_path / "run.csv")
    _, srows = read_csv(tmp_path / "run_summary.csv")
    truncated = rows[-1][0] == "TRUNCATED"
    assert (srows[-1][0] == "TRUNCATED") == truncated
    if truncated:
        rows, srows = rows[:-1], srows[:-1]
    size = doc["N"]
    assert len(rows) == size * len(srows)
    return code, [(rows[i * size:(i + 1) * size], row) for i, row in enumerate(srows)], truncated


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("drift_at", [7, 200])  # at N = 21 a block holds 195 records
def test_norm_drift_leaves_the_records_before_it(tmp_path, monkeypatch, capsys, fmt, drift_at):
    doc = failure_doc(steps=250)
    code, clean, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 0 and not truncated
    strang_steps = evolution._strang_steps

    def drifting(*args):
        for record, (step, t, values) in enumerate(strang_steps(*args)):
            yield step, t, values * 1.01 if record == drift_at else values

    monkeypatch.setattr(evolution, "_strang_steps", drifting)
    code, records, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 2 and capsys.readouterr().err.startswith("stockwave: norm drifted by")
    assert truncated and records == clean[:drift_at]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_robertson_violation_leaves_the_records_before_it(tmp_path, monkeypatch, capsys, fmt):
    doc = failure_doc(steps=30)
    code, clean, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 0 and not truncated
    moments, violating_row = operators._moments, 12

    def undercut(levels, probs):
        mean, spread = moments(levels, probs)
        spread[violating_row] = 0.0  # its product drops to 0, under the bound
        return mean, spread

    monkeypatch.setattr(operators, "_moments", undercut)
    code, records, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 2 and "undercuts bound" in capsys.readouterr().err
    assert truncated and records == clean[:violating_row]


@pytest.mark.parametrize("command", ["state", "uncertainty", "evolve"])
def test_comb_at_the_bound_passes_the_robertson_check_at_large_n(tmp_path, capsys, command):
    # the product undercut the bound by 2.5e-9 of rounding, which an
    # absolute 1e-9 slack called a violation (exit 2)
    doc = {
        "N": 30011,
        "state": {"type": "gaussian", "kappa": 2.02, "n0": 15339, "k0": 8096},
        "evolution": {"mu": 1.0, "dt": 1e-3, "steps": 1},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    assert run_cli(["--quiet", command, "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.filterwarnings("error")
def test_potential_overflow_at_a_step_leaves_the_records_before_it(
    tmp_path, monkeypatch, capsys, fmt
):
    # V(n, t) = 1e307 * cos(t) * 10 n starts at cos(pi/2) ~ 6e-17 and first
    # overflows (at n = 20) at the midpoint of step 10, t0 + 0.095
    potential = {
        "type": "modulated",
        "base": {"type": "linear", "slope": 10.0},
        "amplitude": 1e307,
        "omega": 1.0,
    }
    doc = failure_doc(steps=30, potential=potential, t0=np.pi / 2)
    code, records, truncated = evolve_records(tmp_path, doc, fmt)
    assert code == 2 and "potential is not finite" in capsys.readouterr().err
    assert truncated and len(records) == 10
    monkeypatch.setattr(evolution, "RECORD_BLOCK_SIZE", 1)  # one record per block
    assert evolve_records(tmp_path, doc, fmt) == (code, records, truncated)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("overflow, message", [
    # omega * t overflows, so cos(omega * t) has no value
    ({"t0": 1e200, "potential": {
        "type": "modulated", "amplitude": 1.0, "omega": 1e200,
        "base": {"type": "harmonic", "center": 10.0, "strength": 0.1},
    }}, "potential is not finite at t = 1e+200"),
    # V is finite, dt * V is not
    ({"dt": 1e10, "potential": {"type": "harmonic", "center": 10.0, "strength": 1e300}},
     "potential phase is not finite at t = 5000000000.0"),
], ids=["omega-t", "angle"])
@pytest.mark.filterwarnings("error")
def test_evolve_overflow_in_a_step_exits_with_one_line(tmp_path, capsys, fmt, overflow, message):
    doc = failure_doc(steps=5)
    doc["evolution"].update(overflow)
    code, records, truncated = evolve_records(tmp_path, doc, fmt)
    err = capsys.readouterr().err
    assert code == 2 and err == f"stockwave: {message}\n"
    assert truncated and len(records) == 1  # step 0 needs no potential


@pytest.mark.filterwarnings("error")
def test_kinetic_phase_of_a_huge_step_is_formed_without_overflow(tmp_path, capsys):
    # dt * k overflowed before the division by 2 mu (exit 2), though the
    # largest phase, 1e308 / 20 * 2^2 = 2e307, is finite
    doc = {
        "N": 3,
        "state": {"type": "delta", "m": 1},
        "evolution": {"mu": 10.0, "dt": 1e308, "steps": 1},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    assert run_cli(["--quiet", "evolve", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "out.csv")
    assert [row[0] for row in rows] == ["0"] * 3 + ["1"] * 3
    for record in (rows[:3], rows[3:]):
        for column in (3, 4):
            assert sum(float(row[column]) for row in record) == pytest.approx(1.0, abs=1e-12)
    _, summary = read_csv(tmp_path / "out_summary.csv")
    assert [abs(float(row[-1])) < evolution.NORM_DRIFT_TOL for row in summary] == [True, True]


# Scenario numbers from the subnormal 1e-320 to 1e308, either sign
MAGNITUDES = st.floats(1e-320, 1e308)
SIGNED = st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x))


@st.composite
def scenario_runs(draw):
    """(command, scenario document): N <= 8, at most 3 steps, output to stdout."""
    size = draw(st.integers(1, 8))
    index, levels = st.integers(0, size - 1), st.lists(SIGNED, min_size=size, max_size=size)
    state = draw(st.one_of(
        st.builds(lambda m: {"type": "delta", "m": m}, index),
        st.builds(lambda kappa, n0, k0: {"type": "gaussian", "kappa": kappa, "n0": n0, "k0": k0},
                  MAGNITUDES, index, index),
        st.builds(lambda re, im: {"type": "custom", "re": re, "im": im}, levels, levels),
    ))
    potential = st.recursive(
        st.one_of(
            st.just({"type": "zero"}),
            st.builds(lambda c, k: {"type": "harmonic", "center": c, "strength": k},
                      SIGNED, SIGNED),
            st.builds(lambda s: {"type": "linear", "slope": s}, SIGNED),
            st.builds(lambda v: {"type": "tabulated", "values": v}, levels),
        ),
        lambda base: st.builds(
            lambda b, a, w: {"type": "modulated", "base": b, "amplitude": a, "omega": w},
            base, SIGNED, SIGNED,
        ),
        max_leaves=3,
    )
    doc = {
        "N": size,
        "state": state,
        "evolution": {
            "mu": draw(MAGNITUDES), "dt": draw(MAGNITUDES), "steps": draw(st.integers(1, 3)),
            "t0": draw(SIGNED), "potential": draw(potential),
        },
        "output": {"format": draw(st.sampled_from(["csv", "json"])),
                   "record_every": draw(st.integers(1, 3))},
    }
    return draw(st.sampled_from(["state", "uncertainty", "evolve"])), doc


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def _bug_case(command, fmt="csv", **evolution):
    doc = {"N": 3, "state": {"type": "delta", "m": 1},
           "evolution": {"mu": 1.0, "dt": 0.1, "steps": 1, **evolution},
           "output": {"format": fmt}}
    return command, doc


def _path_case(path, fmt="csv"):
    return "state", {"N": 3, "state": {"type": "delta", "m": 1},
                     "output": {"format": fmt, "path": path}}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(run=scenario_runs())
# dt * k^2 overflowed in the kick: RuntimeWarnings, then "norm drifted by nan"
@example(run=_bug_case("evolve", dt=1e308))
# t0 + steps * dt overflowed: exit 0 with "t": Infinity
@example(run=_bug_case("evolve", "json", t0=1.79e308, dt=1e306, steps=2))
# custom amplitudes whose squares overflowed (a traceback) or underflowed
@example(run=("state", {"N": 3, "state": {"type": "custom", "re": [1e200, 1e200, 0.0],
                                          "im": [0.0, 0.0, 0.0]}}))
@example(run=("uncertainty", {"N": 3, "state": {"type": "custom", "re": [1e-200, 1e-170, 0.0],
                                                "im": [0.0, 0.0, 0.0]}}))
# output paths that name no file: tracebacks from pathlib, open() or the
# file system encoding
@example(run=_path_case(""))
@example(run=_path_case("."))
@example(run=_path_case("/"))
@example(run=_path_case("a\0b.csv"))
@example(run=_path_case("a\0b.json", "json"))
@example(run=_path_case("\ud800.csv"))
def test_every_run_ends_in_a_documented_exit_code(tmp_path_factory, run):
    command, doc = run
    config = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    config.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("stockwave: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""
    if command == "uncertainty":
        values = [float(line.split("=")[1]) for line in out.splitlines() if "saturated" not in line]
        assert all(map(np.isfinite, values))
    elif doc.get("output", {}).get("format") == "json":
        if out:
            json.loads(out, parse_constant=_reject_constant)
    else:
        fields = [f for line in out.splitlines() for f in line.split(",") if f]
        assert not {"inf", "-inf", "nan"} & set(fields)


def test_missing_config_is_io_error(tmp_path, capsys):
    assert run_cli(["state", "--config", str(tmp_path / "nope.json")]) == 3


def test_unwritable_output_is_io_error(tmp_path, capsys):
    doc = delta_doc(tmp_path)
    doc["output"]["path"] = str(tmp_path / "no_such_dir" / "out.csv")
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "state", "--config", config]) == 3


def test_quiet_suppresses_status_line(tmp_path, capsys):
    config = write_config(tmp_path, delta_doc(tmp_path))
    run_cli(["state", "--config", config])
    assert "output written" in capsys.readouterr().out
    run_cli(["--quiet", "state", "--config", config])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_evolve_to_stdout_writes_the_document_alone(tmp_path, capsys, fmt):
    doc = failure_doc(steps=30)
    doc["output"] = {"format": fmt, "path": str(tmp_path / f"run.{fmt}"), "record_every": 3}
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out.startswith("evolve: 11 records, max norm_error ")
    del doc["output"]["path"]
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out) == json.loads((tmp_path / "run.json").read_text())
    else:
        assert out == "\n".join((tmp_path / name).read_text() for name in ("run.csv", "run_summary.csv"))


def test_json_output_format(tmp_path):
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 1},
        "output": {"format": "json", "path": str(tmp_path / "out.json")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["n"] == 4
    record = data["records"][0]
    assert record["prob_price"] == [0.0, 1.0, 0.0, 0.0]
    assert sum(record["prob_owner"]) == pytest.approx(1.0, abs=1e-9)


def test_usage_error_exit_code():
    assert run_cli(["no-such-command"]) == 1


def test_evolve_step_labels_at_large_t0(tmp_path):
    # (t - t0) / dt loses the step at t0 = 1e12: labels read 0,1,2,2,4,5,6
    doc = {
        "N": 8,
        "state": {"type": "delta", "m": 3},
        "evolution": {"mu": 1.0, "dt": 1e-4, "steps": 6, "t0": 1e12},
        "output": {"format": "csv", "path": str(tmp_path / "run.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 0
    _, srows = read_csv(tmp_path / "run_summary.csv")
    assert [row[0] for row in srows] == [str(step) for step in range(7)]
    _, rows = read_csv(tmp_path / "run.csv")
    assert [row[0] for row in rows] == [str(step) for step in range(7) for _ in range(8)]


def one_record_block(step, t, prob_price, prob_owner, summary, norm_error):
    """A RecordBlock of one record with every summary column (but
    norm_error) set to ``summary``; the sinks do not read its state."""
    return evolution.RecordBlock(
        marks=[(step, t)],
        states=np.zeros((1, len(prob_price)), np.complex128),
        prob_price=prob_price[None, :],
        prob_owner=prob_owner[None, :],
        summary=np.array([[summary] * (len(cli.SUMMARY_FIELDS) - 1) + [norm_error]]),
    )


def test_csv_rows_format_like_format_number(tmp_path):
    values = np.array(
        [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-5, 1e-20, 0.1, 1.0 / 3.0]
    )
    block = one_record_block(4, 0.25, values, -values, -0.0, -0.0)
    with cli._CsvSink(str(tmp_path / "rows.csv")) as sink:
        sink.write_block(block)
    _, rows = read_csv(tmp_path / "rows.csv")
    assert rows == [
        ["4", "0.25", str(n), cli.format_number(p), cli.format_number(-p)]
        for n, p in enumerate(values)
    ]
    _, srows = read_csv(tmp_path / "rows_summary.csv")
    assert srows == [["4", "0.25"] + ["0"] * 7]


READ_BACK_EDGES = [
    *powers_of_ten_and_neighbours().tolist(),
    5e-324, 2.2250738585072014e-308 / 3, np.nextafter(2.2250738585072014e-308, 0.0),  # subnormals
    0.0, -0.0,
    cli.numfmt.SMALLEST, cli.numfmt.LARGEST,
    1e15, 1e16, 2.0**53,
]
FINITE_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: np.array(bits, np.uint64).view(np.float64).item()
).filter(np.isfinite)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), FINITE_BIT_PATTERNS)))
def test_read_back_is_float_of_format_number(values):
    # the JSON sink's and spectrum --json's values, against the scalar
    # definition, bit for bit: -0.0 must read back as 0.0
    values = [*values, *READ_BACK_EDGES]
    read = cli._read_back(cli._encoded(values))[:, 0]
    expected = np.array([float(cli.format_number(v)) for v in values])
    assert read.view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_csv_rows_span_format_chunks(tmp_path):
    size = 2 * cli.numfmt.CHUNK + 3
    values = np.random.default_rng(5).random(size)
    block = one_record_block(7, 1.5, values, values / 3.0, 0.5, 0.0)
    with cli._CsvSink(str(tmp_path / "rows.csv")) as sink:
        sink.write_block(block)
    _, rows = read_csv(tmp_path / "rows.csv")
    assert rows == [
        ["7", "1.5", str(n), cli.format_number(p), cli.format_number(p / 3.0)]
        for n, p in enumerate(values)
    ]


def test_state_write_failure_closes_marked_outputs(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, delta_doc(tmp_path))
    sinks = []

    def failing_write(self, *args):
        sinks.append(self)
        raise OSError("synthetic write failure")

    monkeypatch.setattr(cli._CsvSink, "write_block", failing_write)
    assert run_cli(["--quiet", "state", "--config", config]) == 3
    assert capsys.readouterr().err == "stockwave: synthetic write failure\n"
    assert sinks[0]._dist_file.closed and sinks[0]._summary_file.closed
    for name in ("out.csv", "out_summary.csv"):
        _, rows = read_csv(tmp_path / name)
        assert [row[0] for row in rows] == ["TRUNCATED"]


def test_csv_sink_closes_distributions_when_summary_open_fails(tmp_path, monkeypatch, capsys):
    (tmp_path / "out_summary.csv").mkdir()
    config = write_config(tmp_path, delta_doc(tmp_path))
    opened = []

    def tracking_open(*args, **kwargs):
        handle = builtins.open(*args, **kwargs)
        opened.append(handle)
        return handle

    monkeypatch.setattr(cli, "open", tracking_open, raising=False)
    assert run_cli(["--quiet", "state", "--config", config]) == 3
    assert "out_summary.csv" in capsys.readouterr().err
    assert opened and all(handle.closed for handle in opened)


def test_json_evolve_memory_does_not_grow_with_records(tmp_path):
    def peak(records):
        doc = {
            "N": 64,
            "state": {"type": "gaussian", "kappa": 1.0, "n0": 20, "k0": 10},
            "evolution": {"mu": 1.0, "dt": 0.01, "steps": records - 1},
            "output": {"format": "json", "path": str(tmp_path / "run.json")},
        }
        config = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert run_cli(["--quiet", "evolve", "--config", config]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(50)  # warm the caches the first run fills
    few = peak(50)
    many = peak(500)
    assert len(json.loads((tmp_path / "run.json").read_text())["records"]) == 500
    # holding every record costs ~22 KB each at N = 64: 1.1 MB -> 10.8 MB
    assert many < 2 * few


def test_csv_stdout_memory_does_not_grow_with_records(tmp_path):
    def peak(records):
        doc = {
            "N": 4,
            "state": {"type": "delta", "m": 1},
            "evolution": {"mu": 1.0, "dt": 0.01, "steps": records - 1},
            "output": {"format": "csv", "record_every": 1},
        }
        config = write_config(tmp_path, doc)
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            tracemalloc.start()
            try:
                assert run_cli(["--quiet", "evolve", "--config", config]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(2_000)  # warm the caches the first run fills
    # a summary table held in memory costs ~370 B a record: 1.5 -> 8.2 MB.
    # Spooled, the peak levels off near 1.2 MB from ~3 000 records on
    # (within 10 KB up to 40 000); these two differ by 11-21 KB
    assert abs(peak(20_000) - peak(2_000)) < 2**16


@pytest.mark.parametrize("command, written", [("state", 0), ("evolve", 2)])
def test_json_failure_leaves_parseable_truncated_document(
    tmp_path, monkeypatch, capsys, command, written
):
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 1},
        "evolution": {"mu": 1.0, "dt": 0.01, "steps": 5},
        "output": {"format": "json", "path": str(tmp_path / "run.json")},
    }
    config = write_config(tmp_path, doc)
    fail_write(monkeypatch, cli._JsonSink, "_file", written + 1)
    assert run_cli(["--quiet", command, "--config", config]) == 3
    text = (tmp_path / "run.json").read_text()
    data = json.loads(text)
    assert text == json.dumps(data, indent=2) + "\n"
    assert list(data) == ["n", "records", "truncated"] and data["truncated"] is True
    assert [record["step"] for record in data["records"]] == list(range(written))


@pytest.mark.parametrize("text", [
    '{"N": %d, "state": {"type": "delta", "m": 0}}' % 10**30,
    '{"N": %d, "state": {"type": "delta", "m": 0}}' % 10**12,
    '{"N": 2, "state": {"type": "delta", "m": 0}, "output": %s}' % ("[" * 100_000 + "]" * 100_000),
])
def test_oversized_or_deep_scenario_exits_1_with_one_line(tmp_path, capsys, text):
    config = tmp_path / "scenario.json"
    config.write_text(text)
    assert run_cli(["state", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stockwave: ") and captured.err.count("\n") == 1


def test_tiny_kappa_state_builds(tmp_path):
    doc = {
        "N": 21,
        "state": {"type": "gaussian", "kappa": 1e-14, "n0": 3, "k0": 5},
        "output": {"format": "csv", "path": str(tmp_path / "out.csv")},
    }
    assert run_cli(["--quiet", "state", "--config", write_config(tmp_path, doc)]) == 0
    _, rows = read_csv(tmp_path / "out.csv")
    assert [float(row[3]) for row in rows] == pytest.approx([1.0 / 21.0] * 21, abs=1e-15)


def test_subnormal_kappa_exits_1_with_one_line(tmp_path, capsys):
    doc = {"N": 21, "state": {"type": "gaussian", "kappa": 1e-310, "n0": 3, "k0": 5}}
    assert run_cli(["uncertainty", "--config", write_config(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("stockwave: range violation at state.kappa")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("size", [1024, 1031])
def test_lattice_size_limit_fits_memory_budget(tmp_path, size):
    # MAX_LATTICE_SIZE assumes each scenario command's peak grows as N
    # from here; 1031 is prime, so its kicks run zero-padded
    custom = {"type": "custom", "re": [1.0 + i % 3 for i in range(size)], "im": [0.5] * size}
    comb = {"type": "gaussian", "kappa": 1.0 / size, "n0": 7, "k0": 14}  # widest translate sum
    trap = {"type": "tabulated", "values": [1e-3 * i for i in range(size)]}
    evolution = {
        "mu": 1.0, "dt": 1e-3, "steps": 10,
        "potential": {"type": "modulated", "base": trap, "amplitude": 0.5, "omega": 2.0},
    }
    for state in (custom, comb):
        for command in ("state", "evolve"):
            for fmt in ("json", "csv"):
                output = {"format": fmt, "path": str(tmp_path / f"out.{fmt}"), "record_every": 5}
                doc = {"N": size, "state": state, "evolution": evolution, "output": output}
                argv = ["--quiet", command, "--config", write_config(tmp_path, doc)]
                assert run_cli(argv) == 0  # one-time allocations
                tracemalloc.start()
                try:
                    assert run_cli(argv) == 0
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak * (MAX_LATTICE_SIZE / size) <= 2**30, (
                    command, state["type"], fmt, peak / size
                )


def test_scenario_peak_grows_under_1_kib_per_level(tmp_path):
    # MAX_LATTICE_SIZE levels at 1 KiB each fill the 1 GiB budget. From
    # N = 4099 a record block holds one record, so the slope between these
    # sizes is the per-level cost alone, without the fixed buffers (the
    # format kernel's chunk, a CSV table) that the test above scales by N
    sizes = (4099, 16411)

    def peak(size, command, fmt):
        doc = {
            "N": size,
            "state": {"type": "custom", "re": [1.0 + i % 3 for i in range(size)], "im": [0.5] * size},
            "evolution": {
                "mu": 1.0, "dt": 1e-3, "steps": 10,
                "potential": {
                    "type": "modulated",
                    "base": {"type": "tabulated", "values": [1e-3 * i for i in range(size)]},
                    "amplitude": 0.5,
                    "omega": 2.0,
                },
            },
            "output": {"format": fmt, "path": str(tmp_path / f"out.{fmt}"), "record_every": 5},
        }
        argv = ["--quiet", command, "--config", write_config(tmp_path, doc)]
        assert run_cli(argv) == 0  # one-time allocations
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for command in ("state", "evolve"):
        for fmt in ("csv", "json"):
            small, large = (peak(size, command, fmt) for size in sizes)
            per_level = (large - small) / (sizes[1] - sizes[0])
            assert per_level <= 1024, (command, fmt, per_level)
