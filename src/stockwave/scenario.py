"""Scenario files: strict JSON schema, validation, round-trip serialization.

Unknown fields are rejected so a typo can never silently change the
physics. Custom amplitudes arrive as separate real/imaginary arrays.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .evolution import (
    EvolutionParams,
    HarmonicPotential,
    LinearPotential,
    ModulatedPotential,
    Potential,
    TabulatedPotential,
    ZeroPotential,
)
from .lattice import LatticeFunction, NormalizedState, normalize
from .states import PacketParams, ThetaParams, delta_state, gaussian_packet


class ScenarioError(ValueError):
    """Syntax, schema, or range violation in a scenario file."""


@dataclass(frozen=True)
class DeltaStateSpec:
    m: int


@dataclass(frozen=True)
class GaussianStateSpec:
    kappa: float
    n0: int
    k0: int


@dataclass(frozen=True)
class CustomStateSpec:
    re: tuple
    im: tuple


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None
    record_every: int = 1


@dataclass(frozen=True)
class EvolutionSpec:
    params: EvolutionParams
    potential: Potential


@dataclass(frozen=True)
class Scenario:
    size: int
    state: DeltaStateSpec | GaussianStateSpec | CustomStateSpec
    evolution: EvolutionSpec | None = None
    output: OutputSpec = OutputSpec()


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"schema violation at {path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"schema violation at {path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"schema violation at {path}: missing field {key!r}")


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"schema violation at {path}: expected an integer")
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"schema violation at {path}: expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"schema violation at {path}: expected a finite number")
    return value


def _as_str(value, path):
    if not isinstance(value, str):
        raise ScenarioError(f"schema violation at {path}: expected a string")
    return value


def _as_number_list(value, path):
    if not isinstance(value, list):
        raise ScenarioError(f"schema violation at {path}: expected an array of numbers")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _index_in_range(value, size, path):
    if not 0 <= value < size:
        raise ScenarioError(f"range violation at {path}: {value} not in [0, {size})")
    return value


def _parse_state(obj, size):
    path = "state"
    _check_keys(obj, path, required=("type",), optional=("m", "kappa", "n0", "k0", "re", "im"))
    kind = _as_str(obj["type"], f"{path}.type")
    if kind == "delta":
        _check_keys(obj, path, required=("type", "m"))
        return DeltaStateSpec(m=_index_in_range(_as_int(obj["m"], f"{path}.m"), size, f"{path}.m"))
    if kind == "gaussian":
        _check_keys(obj, path, required=("type", "kappa", "n0", "k0"))
        kappa = _as_number(obj["kappa"], f"{path}.kappa")
        if kappa <= 0.0:
            raise ScenarioError(f"range violation at {path}.kappa: must be > 0")
        return GaussianStateSpec(
            kappa=kappa,
            n0=_index_in_range(_as_int(obj["n0"], f"{path}.n0"), size, f"{path}.n0"),
            k0=_index_in_range(_as_int(obj["k0"], f"{path}.k0"), size, f"{path}.k0"),
        )
    if kind == "custom":
        _check_keys(obj, path, required=("type", "re", "im"))
        re = _as_number_list(obj["re"], f"{path}.re")
        im = _as_number_list(obj["im"], f"{path}.im")
        if len(re) != size or len(im) != size:
            raise ScenarioError(
                f"range violation at {path}: re/im must each hold {size} entries"
            )
        if not any(r != 0.0 or i != 0.0 for r, i in zip(re, im)):
            raise ScenarioError(f"range violation at {path}: amplitudes are all zero")
        return CustomStateSpec(re=re, im=im)
    raise ScenarioError(f"schema violation at {path}.type: unknown state type {kind!r}")


def _parse_potential(obj, size, path):
    _check_keys(
        obj, path,
        required=("type",),
        optional=("center", "strength", "slope", "values", "base", "amplitude", "omega"),
    )
    kind = _as_str(obj["type"], f"{path}.type")
    if kind == "zero":
        _check_keys(obj, path, required=("type",))
        return ZeroPotential()
    if kind == "harmonic":
        _check_keys(obj, path, required=("type", "center", "strength"))
        return HarmonicPotential(
            center=_as_number(obj["center"], f"{path}.center"),
            strength=_as_number(obj["strength"], f"{path}.strength"),
        )
    if kind == "linear":
        _check_keys(obj, path, required=("type", "slope"))
        return LinearPotential(slope=_as_number(obj["slope"], f"{path}.slope"))
    if kind == "tabulated":
        _check_keys(obj, path, required=("type", "values"))
        values = _as_number_list(obj["values"], f"{path}.values")
        if len(values) != size:
            raise ScenarioError(
                f"range violation at {path}.values: expected {size} entries, got {len(values)}"
            )
        return TabulatedPotential(values=values)
    if kind == "modulated":
        _check_keys(obj, path, required=("type", "base", "amplitude", "omega"))
        return ModulatedPotential(
            base=_parse_potential(obj["base"], size, f"{path}.base"),
            amplitude=_as_number(obj["amplitude"], f"{path}.amplitude"),
            omega=_as_number(obj["omega"], f"{path}.omega"),
        )
    raise ScenarioError(f"schema violation at {path}.type: unknown potential type {kind!r}")


def _parse_evolution(obj, size):
    path = "evolution"
    _check_keys(obj, path, required=("mu", "dt", "steps"), optional=("t0", "potential"))
    mu = _as_number(obj["mu"], f"{path}.mu")
    dt = _as_number(obj["dt"], f"{path}.dt")
    steps = _as_int(obj["steps"], f"{path}.steps")
    t0 = _as_number(obj.get("t0", 0.0), f"{path}.t0")
    if mu <= 0.0:
        raise ScenarioError(f"schema violation at {path}.mu: must be > 0")
    if dt <= 0.0:
        raise ScenarioError(f"schema violation at {path}.dt: must be > 0")
    if steps < 1:
        raise ScenarioError(f"schema violation at {path}.steps: must be >= 1")
    potential = ZeroPotential()
    if "potential" in obj:
        potential = _parse_potential(obj["potential"], size, f"{path}.potential")
    return EvolutionSpec(
        params=EvolutionParams(mu=mu, dt=dt, steps=steps, t0=t0),
        potential=potential,
    )


def _parse_output(obj):
    path = "output"
    _check_keys(obj, path, required=(), optional=("format", "path", "record_every"))
    fmt = _as_str(obj.get("format", "csv"), f"{path}.format")
    if fmt not in ("csv", "json"):
        raise ScenarioError(f"schema violation at {path}.format: must be 'csv' or 'json'")
    out_path = None
    if "path" in obj:
        out_path = _as_str(obj["path"], f"{path}.path")
    record_every = _as_int(obj.get("record_every", 1), f"{path}.record_every")
    if record_every < 1:
        raise ScenarioError(f"schema violation at {path}.record_every: must be >= 1")
    return OutputSpec(format=fmt, path=out_path, record_every=record_every)


def parse_scenario(text) -> Scenario:
    """Parse and validate one scenario document (UTF-8 JSON)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"syntax error: not valid UTF-8 ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    _check_keys(doc, "top level", required=("N", "state"), optional=("evolution", "output"))
    size = _as_int(doc["N"], "N")
    if size < 1:
        raise ScenarioError("range violation at N: must be >= 1")
    state = _parse_state(doc["state"], size)
    evolution = _parse_evolution(doc["evolution"], size) if "evolution" in doc else None
    output = _parse_output(doc["output"]) if "output" in doc else OutputSpec()
    return Scenario(size=size, state=state, evolution=evolution, output=output)


def _potential_doc(potential: Potential):
    if isinstance(potential, ZeroPotential):
        return {"type": "zero"}
    if isinstance(potential, HarmonicPotential):
        return {"type": "harmonic", "center": potential.center, "strength": potential.strength}
    if isinstance(potential, LinearPotential):
        return {"type": "linear", "slope": potential.slope}
    if isinstance(potential, TabulatedPotential):
        return {"type": "tabulated", "values": list(potential.values)}
    if isinstance(potential, ModulatedPotential):
        return {
            "type": "modulated",
            "base": _potential_doc(potential.base),
            "amplitude": potential.amplitude,
            "omega": potential.omega,
        }
    raise ScenarioError(f"cannot serialize potential {potential!r}")


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; parse_scenario(serialize_scenario(s)) == s."""
    doc = {"N": scenario.size}
    state = scenario.state
    if isinstance(state, DeltaStateSpec):
        doc["state"] = {"type": "delta", "m": state.m}
    elif isinstance(state, GaussianStateSpec):
        doc["state"] = {"type": "gaussian", "kappa": state.kappa, "n0": state.n0, "k0": state.k0}
    elif isinstance(state, CustomStateSpec):
        doc["state"] = {"type": "custom", "re": list(state.re), "im": list(state.im)}
    else:
        raise ScenarioError(f"cannot serialize state {state!r}")
    if scenario.evolution is not None:
        params = scenario.evolution.params
        doc["evolution"] = {
            "mu": params.mu,
            "dt": params.dt,
            "steps": params.steps,
            "t0": params.t0,
            "potential": _potential_doc(scenario.evolution.potential),
        }
    doc["output"] = {
        "format": scenario.output.format,
        "record_every": scenario.output.record_every,
    }
    if scenario.output.path is not None:
        doc["output"]["path"] = scenario.output.path
    return json.dumps(doc, indent=2) + "\n"


def build_initial_state(scenario: Scenario) -> NormalizedState:
    """Materialize the declared initial state."""
    state = scenario.state
    if isinstance(state, DeltaStateSpec):
        return delta_state(state.m, scenario.size)
    if isinstance(state, GaussianStateSpec):
        return gaussian_packet(
            PacketParams(
                theta=ThetaParams(kappa=state.kappa, size=scenario.size),
                n0=state.n0,
                k0=state.k0,
            )
        )
    values = np.asarray(state.re, dtype=np.float64) + 1j * np.asarray(state.im, dtype=np.float64)
    return normalize(LatticeFunction(values))
