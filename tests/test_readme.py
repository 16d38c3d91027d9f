import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stockwave

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_values():
    """Run the README "Library tour" block; return its bare expressions' values."""
    text = README.read_text()
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_library_tour_results_match_its_comments():
    price_argmax, owner_argmax, product_ok, eigenvalue, norm_error = _tour_values()
    assert price_argmax == 7
    assert owner_argmax == 14
    assert product_ok
    assert eigenvalue == pytest.approx(3.342253804930j, abs=1e-12)
    assert norm_error < 1e-12


def test_readme_scenario_runs_through_the_module(tmp_path):
    # the CLI's end-to-end checks, through python -m stockwave in a fresh
    # directory. The subprocesses import the package from where this test
    # did: src/ in tier-1, the installed package when CI runs this module
    # from outside the checkout
    scenario = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    (tmp_path / "scenario.json").write_text(scenario)
    doc = json.loads(scenario)
    del doc["output"]["path"]  # CSV to stdout, the summary table last
    (tmp_path / "stdout.json").write_text(json.dumps(doc))
    package = str(Path(stockwave.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": package + (os.pathsep + path if path else "")}
    # they import that very package, or CI could test the checkout, not the install
    where = subprocess.run(
        [sys.executable, "-c", "import stockwave; print(stockwave.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert Path(where.stdout.rstrip("\n")).resolve() == Path(stockwave.__file__).resolve()

    def run(*args, **environ):
        result = subprocess.run(
            [sys.executable, "-m", "stockwave", *args],
            cwd=tmp_path, env={**env, **environ}, capture_output=True,
        )
        assert result.returncode == 0 and result.stderr == b"", result.stderr
        return result.stdout.decode()  # strict UTF-8: equal text is equal bytes

    for command in ("state", "uncertainty", "evolve"):
        run(command, "--config", "scenario.json")
    # evolve ran last: a header and 5 records of 21 rows, and 5 summary rows
    assert len((tmp_path / "run.csv").read_text().splitlines()) == 106
    assert len((tmp_path / "run_summary.csv").read_text().splitlines()) == 6
    assert run("evolve", "--config", "stdout.json").splitlines()[-1].startswith("2000,")
    # the same run as one JSON document: json.dumps(indent=2)'s layout, and
    # the last record's prices are the floats of run.csv's last 21 rows
    doc["output"]["format"] = "json"
    (tmp_path / "stdout_json.json").write_text(json.dumps(doc))
    text = run("evolve", "--config", "stdout_json.json")
    records = json.loads(text)["records"]
    assert json.dumps(json.loads(text), indent=2) + "\n" == text and len(records) == 5
    rows = (tmp_path / "run.csv").read_text().splitlines()[-21:]
    assert records[-1]["prob_price"] == [float(row.split(",")[3]) for row in rows]
    # reruns are byte-identical across interpreters: the same evolve, as CSV
    # files and as JSON, under two hash seeds
    reruns = []
    for seed in ("0", "1"):
        run("evolve", "--config", "scenario.json", PYTHONHASHSEED=seed)
        tables = [(tmp_path / name).read_bytes() for name in ("run.csv", "run_summary.csv")]
        reruns.append((tables, run("evolve", "--config", "stdout_json.json", PYTHONHASHSEED=seed)))
    assert reruns[0] == reruns[1]
    # a prime N, so the kicks run zero-padded, as two half-length rows
    doc = json.loads(scenario)
    doc.update(N=1031, output={"format": "csv", "path": "prime.csv", "record_every": 10})
    doc["evolution"]["steps"] = 20
    (tmp_path / "prime.json").write_text(json.dumps(doc))
    run("evolve", "--config", "prime.json")
    # a header and 3 records (steps 0, 10 and 20) of 1031 rows, and 3 summary rows
    assert len((tmp_path / "prime.csv").read_text().splitlines()) == 3094
    assert len((tmp_path / "prime_summary.csv").read_text().splitlines()) == 4
    # a comb wider than a lattice spacing (kappa*N < 1) at a prime N, built
    # through its dual comb's transform
    comb = {"type": "gaussian", "kappa": 1e-6, "n0": 0, "k0": 0}
    doc = {"N": 65537, "state": comb, "output": {"format": "csv", "path": "comb.csv"}}
    (tmp_path / "comb.json").write_text(json.dumps(doc))
    run("state", "--config", "comb.json")
    # a header and one record of 65537 rows, and one summary row
    assert len((tmp_path / "comb.csv").read_text().splitlines()) == 65538
    assert len((tmp_path / "comb_summary.csv").read_text().splitlines()) == 2
    # a kinetic phase of 2e307, finite although dt * k is not
    doc = {"N": 3, "state": {"type": "delta", "m": 1},
           "evolution": {"mu": 10.0, "dt": 1e308, "steps": 1},
           "output": {"format": "csv", "path": "huge_step.csv"}}
    (tmp_path / "huge_step.json").write_text(json.dumps(doc))
    run("evolve", "--config", "huge_step.json")
    # the exact +-1/2 at N = 2, and Table 1's last row at N = 21
    assert run("spectrum", "--n", "2") == "1,-0.500000000000\n2,0.500000000000\n"
    assert run("spectrum", "--n", "21").endswith("\n21,92.750113443389\n")
