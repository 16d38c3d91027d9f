import json
import subprocess
import sys

import numpy as np
import pytest

from stockwave import (
    ConservationError,
    DimensionError,
    InvariantViolationError,
    NumericalConsistencyError,
    cli,
)


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


def test_state_stdout_when_no_path(tmp_path, capsys):
    doc = {"N": 4, "state": {"type": "delta", "m": 1}}
    config = write_config(tmp_path, doc)
    assert run_cli(["state", "--config", config]) == 0
    out = capsys.readouterr().out
    assert out.startswith("step,t,n,prob_price,prob_owner")
    assert "step,t,mean_price" in out


def test_spectrum_row_11(capsys):
    assert run_cli(["spectrum", "--n", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    index, value = lines[10].split(",")
    assert index == "11"
    assert value == "3.342253804929"


def test_spectrum_n2_traceless(capsys):
    assert run_cli(["spectrum", "--n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(line.split(",")[1]) for line in lines]
    assert sum(values) == pytest.approx(0.0, abs=1e-12)


def test_spectrum_json(capsys):
    assert run_cli(["spectrum", "--n", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 4
    assert len(doc["eigenvalues_imag"]) == 4
    assert doc["residual"] < 1e-10


def test_spectrum_usage_error(capsys):
    assert run_cli(["spectrum", "--n", "1"]) == 1
    assert "stockwave:" in capsys.readouterr().err


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

    def failing_evolve(phi0, params, potential, record_every=1):
        from stockwave.evolution import evolve as lib_evolve

        yield next(lib_evolve(phi0, params, potential, record_every))
        raise error("synthetic failure")

    monkeypatch.setattr(cli, "evolve", failing_evolve)
    assert run_cli(["--quiet", "evolve", "--config", config]) == 2
    assert capsys.readouterr().err == "stockwave: synthetic failure\n"
    header, rows = read_csv(tmp_path / "run.csv")
    assert rows[-1][0] == "TRUNCATED"
    assert len(rows) == 4 + 1  # one record group plus the marker
    _, srows = read_csv(tmp_path / "run_summary.csv")
    assert srows[-1][0] == "TRUNCATED"


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


def test_determinism_byte_identical(tmp_path):
    doc = {
        "N": 21,
        "state": {"type": "gaussian", "kappa": 0.6667, "n0": 7, "k0": 14},
        "output": {"format": "csv", "path": str(tmp_path / "fig2.csv")},
    }
    config = write_config(tmp_path, doc)
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    first = (tmp_path / "fig2.csv").read_bytes()
    first_summary = (tmp_path / "fig2_summary.csv").read_bytes()
    assert run_cli(["--quiet", "state", "--config", config]) == 0
    assert (tmp_path / "fig2.csv").read_bytes() == first
    assert (tmp_path / "fig2_summary.csv").read_bytes() == first_summary


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "stockwave", "spectrum", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert len(result.stdout.splitlines()) == 2


def test_usage_error_exit_code():
    assert run_cli(["no-such-command"]) == 1
