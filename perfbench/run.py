#!/usr/bin/env python3
"""stockwave benchmark: the real CLI, run in-process on seeded scenarios.

Usage (from the repository root):

    python3 perfbench/run.py --workload stream-n21 --seed 1 --seconds 30 --trace 0

Workloads: stream-n21, evolve-prime, spectrum-n101 (see perfbench/README.md).
One op is one ``stockwave.cli.main(argv)`` call; the loop is closed with a
single client, so the next op starts when the previous one returns. Every
op's output is checked, and each scenario's first output is also compared
with an oracle built from numpy alone.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics from spans placed around each package module's entry points.
The package is imported from ``src/`` beside this directory and nowhere
else; without that source tree the run fails before printing a result.
"""
import os

# One BLAS thread, set before numpy loads here or in any child interpreter.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

from checks import Ledger
from layertrace import Instrumentation, Tracer, layer_metrics, plan_metrics
from reference import reference_seconds, scaled
from workloads import WORKLOADS, make_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5      # fresh interpreters timed per run for setup_s
MIN_WARM_OPS = 24      # floor on timed ops, so the tail has ten beyond it
TAIL_BEYOND = 10


def tail_percentile(samples):
    """Highest whole percentile with at least TAIL_BEYOND samples above it
    (nearest-rank), and the sample at that percentile."""
    ordered = sorted(samples)
    count = len(ordered)
    pct = math.floor(100 * (count - TAIL_BEYOND) / count)
    rank = max(1, math.ceil(pct * count / 100))
    return pct, ordered[rank - 1]


def run_op(cli, case):
    """One timed CLI call between two runs of the reference kernel; returns
    exit code, captured stdout, wall seconds and mean kernel seconds."""
    out, err = io.StringIO(), io.StringIO()
    before = reference_seconds()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv))
    except Exception:  # an op that crashes is a failed op, not a crashed run
        code = -1
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - started
    kernel = (before + reference_seconds()) / 2.0
    if code != 0:
        print(f"op {case.name} exited {code}: {err.getvalue()[-400:]}", file=sys.stderr)
    return code, out.getvalue(), elapsed, kernel


def load_package():
    if not (SRC / "stockwave" / "__init__.py").is_file():
        sys.exit(f"perfbench: no stockwave source tree at {SRC}")
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.exit("perfbench: byte-compiling src/ failed")
    sys.path.insert(0, str(SRC))
    from stockwave import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported stockwave from {cli.__file__}, not {SRC}")
    return cli


def cold_setups(case, ledger):
    """Time SETUP_SAMPLES fresh interpreters through import and first op;
    returns (wall seconds, kernel seconds) pairs."""
    times = []
    command = [sys.executable, str(HERE / "cold.py"), str(SRC), "--", *case.argv]
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=150)
        if proc.returncode != 0:
            ledger.record(case, -1, "", [f"cold interpreter failed: {proc.stderr[-400:]}"])
            times.append((time.perf_counter() - started, reference_seconds()))
            continue
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        module_ok = Path(doc["module"]).resolve().is_relative_to(SRC.resolve())
        ledger.record(case, doc["exit"], doc["stdout"], [] if module_ok else ["foreign stockwave"])
        times.append((doc["setup_s"], doc["kernel_s"]))
    return times


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(workload, seed, seconds, trace):
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stockwave").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to name
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
            sha = proc.stdout.strip() or None
        except OSError:
            pass
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        caches[f"L{level}-{kind}"] = _read(index / "size").strip()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "cpu_model": model,
        "caches": caches,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_package()
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = make_cases(args.workload, args.seed, workdir)
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger()
    setup_times = [] if args.trace else cold_setups(cases[0], ledger)

    tracer = Tracer()
    instrumentation = Instrumentation(tracer) if args.trace else None
    op_id = 0

    def op(case, traced):
        nonlocal op_id
        tracer.op = op_id
        op_id += 1
        if traced:
            instrumentation.install()
        try:
            code, stdout, elapsed, kernel = run_op(cli, case)
        finally:
            if traced:
                instrumentation.uninstall()
        return tracer.op, ledger.record(case, code, stdout), (elapsed, kernel)

    # First in-process pass over the pool fills the caches; untimed.
    warmup_ops = [op(case, bool(args.trace))[0] for case in cases]

    timings = {False: [], True: []}
    traced_ops, results = [], {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while time.perf_counter() < deadline or index < MIN_WARM_OPS:
        case = cases[index % len(cases)]
        # in a traced run, whole passes over the pool alternate on and off
        traced = bool(args.trace) and (index // len(cases)) % 2 == 1
        ident, result, timing = op(case, traced)
        timings[traced].append(timing)
        results[traced].append(result)
        if traced:
            traced_ops.append(ident)
        index += 1

    warm = [wall for wall, _ in timings[False]]
    warm_scaled = [scaled(*t) for t in timings[False]]
    busy = sum(warm)
    steps = sum(r.steps for r in results[False])
    records = sum(r.records for r in results[False])
    failed_frac = ledger.failed / ledger.attempted
    rows = [
        ("steps_per_s", steps / busy, "1/s", f"{steps} steps over {busy:.3f} s untraced"),
        ("records_per_s", records / busy, "1/s", f"{records} records over {busy:.3f} s untraced"),
        ("failed_frac", failed_frac, "1", f"{ledger.failed} of {ledger.attempted} ops"),
    ]
    if args.trace:
        metrics = layer_metrics(tracer, traced_ops)
        metrics.update(plan_metrics(tracer, warmup_ops))
        traced_p50 = statistics.median(scaled(*t) for t in timings[True]) * 1e3
        metrics.update({
            "cli.bytes_out": statistics.median_low(r.bytes_out for r in results[True]),
            "evolution.max_norm_error": ledger.max_norm_error,
            "operators.min_product_minus_bound": 0.0 if math.isinf(ledger.min_margin) else ledger.min_margin,
            "eigen.max_residual": ledger.max_residual,
            "trace.op_p50_ms": traced_p50,
            "trace.overhead_ms": traced_p50 - statistics.median(warm_scaled) * 1e3,
        })
        metrics.update({name: value for name, value, _, _ in rows})
        notes = {name: note for name, _, _, note in rows}
        units = _spec_units("per_layer")
        rows = [(name, metrics[name], unit, notes.get(name, "")) for name, unit in units.items()]
        tracer.write(workdir / "spans.jsonl")
        print(f"{args.workload}: {len(timings[True])} traced ops, {len(warm)} untraced ops, "
              f"{len(tracer.names)} spans written to {workdir / 'spans.jsonl'}")
    else:
        pct, tail = tail_percentile(warm_scaled)
        wall_pct, wall_tail = tail_percentile(warm)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernels = [k for _, k in timings[False]] + [k for _, k in setup_times]
        rows = [
            ("setup_s", statistics.median(scaled(*t) for t in setup_times), "s",
             f"median of {len(setup_times)} cold interpreters, reference speed"),
            ("op_p50_ms", statistics.median(warm_scaled) * 1e3, "ms",
             f"median of {len(warm)} warm ops, reference speed"),
            ("op_tail_ms", tail * 1e3, "ms", f"p{pct} of {len(warm)} warm ops, reference speed"),
            ("peak_rss_mb", rss, "MB", "ru_maxrss of this process"),
            ("wall.setup_s", statistics.median(w for w, _ in setup_times), "s", "as above, wall clock"),
            ("wall.op_p50_ms", statistics.median(warm) * 1e3, "ms", "as above, wall clock"),
            ("wall.op_tail_ms", wall_tail * 1e3, "ms", f"p{wall_pct}, wall clock"),
            ("reference.kernel_ms", statistics.median(kernels) * 1e3, "ms",
             f"median of {len(kernels)} reference kernel runs"),
        ] + rows
        units = _spec_units("end_to_end")
        print(f"{args.workload}: {len(warm)} warm ops, {len(setup_times)} cold interpreters")
    for name, value, unit, note in rows:
        print(f"  {name:36s} {value:>16.8g} {unit:8s} {note}")
    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    values = {name: value for name, value, _, _ in rows}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0


def _spec_units(section):
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


if __name__ == "__main__":
    sys.exit(main())
