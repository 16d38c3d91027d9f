"""Seeded scenario generation and the CLI invocation of each workload.

The seed draws only the physical parameters (comb width, price and owner
centres, potential shape). Lattice size, step count and record cadence are
fixed per workload, so the work in one op does not depend on the seed.
The library sees nothing but the scenario files written here.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

POOL_SIZE = 4  # distinct scenarios per run; ops cycle through them


@dataclass(frozen=True)
class Case:
    """One op's input: the CLI argv and what its output must look like."""

    name: str
    argv: tuple
    kind: str                 # "evolve" or "spectrum"
    size: int
    scenario: dict | None     # the parsed scenario document, None for spectrum
    out_path: Path | None     # distributions CSV; the summary is its sibling

    @property
    def summary_path(self) -> Path:
        return self.out_path.with_name(self.out_path.stem + "_summary" + self.out_path.suffix)

    @property
    def record_steps(self) -> list:
        evo = self.scenario["evolution"]
        steps, every = evo["steps"], self.scenario["output"]["record_every"]
        marks = [s for s in range(0, steps + 1) if s % every == 0]
        if marks[-1] != steps:
            marks.append(steps)
        return marks


def _stream_n21(rng: random.Random) -> dict:
    # Static harmonic trap, a record at every step: record-heavy. The step
    # keeps the Strang splitting error of the final price distribution
    # about ten times below the eigh-propagator oracle's 1e-6 tolerance
    # over the whole parameter box (worst 1.3e-7 in 1000 draws).
    return {
        "N": 21,
        "state": {
            "type": "gaussian",
            "kappa": rng.uniform(0.5, 1.5),
            "n0": rng.randint(4, 16),
            "k0": rng.randint(0, 20),
        },
        "evolution": {
            "mu": 1.0,
            "dt": 1.5e-4,
            "steps": 500,
            "t0": 0.0,
            "potential": {
                "type": "harmonic",
                "center": rng.uniform(8.0, 12.0),
                "strength": rng.uniform(0.05, 0.15),
            },
        },
        "output": {"format": "csv", "record_every": 1},
    }


def _evolve_prime(rng: random.Random) -> dict:
    # Prime N takes the Bluestein path; the modulated trap is evaluated at
    # every step; records only at the first and last step: step-heavy.
    size = 1031
    return {
        "N": size,
        "state": {
            "type": "gaussian",
            "kappa": rng.uniform(0.5, 2.0),
            "n0": rng.randint(300, 730),
            "k0": rng.randint(0, size - 1),
        },
        "evolution": {
            "mu": 1.0,
            "dt": 1e-4,
            "steps": 100,
            "t0": 0.0,
            "potential": {
                "type": "modulated",
                "base": {
                    "type": "harmonic",
                    "center": rng.uniform(400.0, 630.0),
                    "strength": rng.uniform(1e-4, 1e-3),
                },
                "amplitude": rng.uniform(0.5, 1.5),
                "omega": rng.uniform(1.0, 10.0),
            },
        },
        "output": {"format": "csv", "record_every": 100},
    }


_EVOLVE_GENERATORS = {"stream-n21": _stream_n21, "evolve-prime": _evolve_prime}
SPECTRUM_SIZE = 101
WORKLOADS = ("stream-n21", "evolve-prime", "spectrum-n101")


def make_cases(workload: str, seed: int, workdir: Path) -> list:
    """Write the seeded scenario files under ``workdir``; return the cases."""
    if workload == "spectrum-n101":
        argv = ("spectrum", "--n", str(SPECTRUM_SIZE), "--json")
        return [Case("spectrum", argv, "spectrum", SPECTRUM_SIZE, None, None)]
    generate = _EVOLVE_GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for index in range(POOL_SIZE):
        doc = generate(rng)
        out_path = (workdir / f"case{index}.csv").resolve()
        doc["output"]["path"] = str(out_path)
        config = workdir / f"case{index}.json"
        config.write_text(json.dumps(doc, indent=2) + "\n")
        argv = ("evolve", "--config", str(config.resolve()))
        cases.append(Case(f"case{index}", argv, "evolve", doc["N"], doc, out_path))
    return cases
