"""Scenario files: strict JSON schema, validation, round-trip serialization.

Unknown fields are rejected so a typo can never silently change the
physics. Custom amplitudes arrive as separate real/imaginary arrays.

States and potentials are tagged objects: "type" picks a dataclass from
_STATE_TYPES or _POTENTIAL_TYPES, and the object holds exactly its
fields(), each checked by the one reader _READERS keeps for that name
(an index in [0, N), a positive number, N numbers, a nested potential).
Serializing writes the fields back in field order, so a kind's field
list lives only in its dataclass; a new potential is one dataclass plus
one table entry.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .evolution import (
    EvolutionParams, HarmonicPotential, LinearPotential, ModulatedPotential, Potential,
    TabulatedPotential, ZeroPotential,
)
from .lattice import LatticeFunction, NormalizedState, normalize
from .states import PacketParams, ThetaParams, delta_state, gaussian_packet

__all__ = [
    "CustomStateSpec",
    "DeltaStateSpec",
    "EvolutionSpec",
    "GaussianStateSpec",
    "OutputSpec",
    "Scenario",
    "ScenarioError",
    "build_initial_state",
    "parse_scenario",
    "serialize_scenario",
]

# Largest lattice for a scenario; state, uncertainty and evolve are O(N).
# Their CLI peak (tracemalloc after a warm-up, N in {1024, 1031, 4099,
# 16411}, primes zero-padded) is largest for an evolve of a custom state
# under a modulated tabulated trap (a comb at kappa*N = 1: ~65 B less):
# ~595 B per level from N = 4099 for JSON (377 for CSV), where a record
# block holds one record, and ~950 B at N = 1031 for CSV, where the
# fixed buffers (a format pass, a block's table: ~0.9 MB) weigh more per
# level. 595 B * 2^20 = 595 MiB of a 1 GiB budget.
MAX_LATTICE_SIZE = 2**20


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


_STATE_TYPES = {"delta": DeltaStateSpec, "gaussian": GaussianStateSpec, "custom": CustomStateSpec}
_POTENTIAL_TYPES = {
    "zero": ZeroPotential, "harmonic": HarmonicPotential, "linear": LinearPotential,
    "tabulated": TabulatedPotential, "modulated": ModulatedPotential,
}
_TYPE_NAMES = {cls: kind for kind, cls in {**_STATE_TYPES, **_POTENTIAL_TYPES}.items()}


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"schema violation at {path}: expected an object")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"schema violation at {path}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"schema violation at {path}: missing field {key!r}")


# Readers: (JSON value, lattice size N, field path) -> checked value.

def _integer(value, size, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"schema violation at {path}: expected an integer")
    return value


def _number(value, size, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"schema violation at {path}: expected a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"schema violation at {path}: expected a finite number")
    return value


def _string(value, size, path):
    if not isinstance(value, str):
        raise ScenarioError(f"schema violation at {path}: expected a string")
    return value


def _path(value, size, path):
    """An output path that can name a file: text the file system encoding
    can write, no NUL, and a last component (the CSV summary file is
    named after it)."""
    _string(value, size, path)
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        raise ScenarioError(f"range violation at {path}: not encodable as a file name") from None
    if "\0" in value:
        raise ScenarioError(f"range violation at {path}: contains a NUL character")
    if not Path(value).name:
        raise ScenarioError(f"range violation at {path}: {value!r} names no file")
    return value


def _index(value, size, path):
    if not 0 <= _integer(value, size, path) < size:
        raise ScenarioError(f"range violation at {path}: {value} not in [0, {size})")
    return value


def _positive(value, size, path):
    value = _number(value, size, path)
    if value <= 0.0:
        raise ScenarioError(f"range violation at {path}: must be > 0")
    return value


def _count(value, size, path):
    if _integer(value, size, path) < 1:
        raise ScenarioError(f"range violation at {path}: must be >= 1")
    return value


def _levels(value, size, path):
    """One number per price level."""
    if not isinstance(value, list):
        raise ScenarioError(f"schema violation at {path}: expected an array of numbers")
    if len(value) != size:
        raise ScenarioError(f"range violation at {path}: expected {size} entries, got {len(value)}")
    return tuple(_number(v, size, f"{path}[{i}]") for i, v in enumerate(value))


def _format(value, size, path):
    if _string(value, size, path) not in ("csv", "json"):
        raise ScenarioError(f"schema violation at {path}: must be 'csv' or 'json'")
    return value


def _potential(value, size, path):
    return _parse_tagged(value, _POTENTIAL_TYPES, "potential", size, path)


_READERS = {
    "type": _string,
    "m": _index, "n0": _index, "k0": _index,
    "kappa": _positive, "mu": _positive, "dt": _positive,
    "steps": _count, "record_every": _count,
    "re": _levels, "im": _levels, "values": _levels,
    "center": _number, "strength": _number, "slope": _number,
    "amplitude": _number, "omega": _number, "t0": _number,
    "base": _potential, "potential": _potential,
    "format": _format, "path": _path,
}


def _read(obj, path, size, required, optional=()):
    """The fields present in obj, each through its reader, after the key check."""
    _check_keys(obj, path, required, optional)
    return {key: _READERS[key](value, size, f"{path}.{key}") for key, value in obj.items()}


def _parse_tagged(obj, table, family, size, path):
    """The dataclass that obj's "type" names in table, built from exactly its fields."""
    _check_keys(obj, path, required=("type",), optional=_READERS)  # exact once kind is known
    kind = _string(obj["type"], size, f"{path}.type")
    if kind not in table:
        raise ScenarioError(f"schema violation at {path}.type: unknown {family} type {kind!r}")
    values = _read(obj, path, size, required=("type",) + tuple(f.name for f in fields(table[kind])))
    del values["type"]
    return table[kind](**values)


def _tagged_doc(spec):
    """The inverse of _parse_tagged: "type", then the fields in field order."""
    if type(spec) not in _TYPE_NAMES:
        raise ScenarioError(f"cannot serialize {spec!r}")
    doc = {"type": _TYPE_NAMES[type(spec)]}
    for field in fields(spec):
        value = getattr(spec, field.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, Potential):
            value = _tagged_doc(value)
        doc[field.name] = value
    return doc


def _parse_state(obj, size):
    state = _parse_tagged(obj, _STATE_TYPES, "state", size, "state")
    if isinstance(state, GaussianStateSpec):
        try:
            ThetaParams(kappa=state.kappa, size=size)
        except ValueError as exc:
            raise ScenarioError(f"range violation at state.kappa: {exc}") from None
    if isinstance(state, CustomStateSpec) and not (any(state.re) or any(state.im)):
        raise ScenarioError("range violation at state: amplitudes are all zero")
    return state


def _parse_evolution(obj, size):
    values = _read(obj, "evolution", size, ("mu", "dt", "steps"), ("t0", "potential"))
    potential = values.pop("potential", ZeroPotential())
    try:
        params = EvolutionParams(**values)
    except ValueError as exc:  # the fields passed their readers; their span did not
        raise ScenarioError(f"range violation at evolution: {exc}") from None
    return EvolutionSpec(params=params, potential=potential)


def _load_json(text):
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past int()'s digit limit
        raise ScenarioError(f"syntax error: {exc}") from exc


def parse_scenario(text) -> Scenario:
    """Parse and validate one scenario document (UTF-8 JSON)."""
    try:  # the JSON decoder and nested potentials both recurse
        doc = _load_json(text)
        _check_keys(doc, "top level", required=("N", "state"), optional=("evolution", "output"))
        size = _integer(doc["N"], None, "N")
        if not 1 <= size <= MAX_LATTICE_SIZE:
            raise ScenarioError(f"range violation at N: must be in [1, {MAX_LATTICE_SIZE}]")
        state = _parse_state(doc["state"], size)
        evolution = _parse_evolution(doc["evolution"], size) if "evolution" in doc else None
        out = _read(doc.get("output", {}), "output", size, (), ("format", "path", "record_every"))
        return Scenario(size=size, state=state, evolution=evolution, output=OutputSpec(**out))
    except RecursionError:
        raise ScenarioError("syntax error: nested too deeply") from None


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text; parse_scenario(serialize_scenario(s)) == s."""
    doc = {"N": scenario.size, "state": _tagged_doc(scenario.state)}
    if scenario.evolution is not None:
        params, potential = scenario.evolution.params, scenario.evolution.potential
        doc["evolution"] = {**asdict(params), "potential": _tagged_doc(potential)}
    out = scenario.output
    doc["output"] = {"format": out.format, "record_every": out.record_every}
    if out.path is not None:
        doc["output"]["path"] = out.path
    return json.dumps(doc, indent=2) + "\n"


def build_initial_state(scenario: Scenario) -> NormalizedState:
    """Materialize the declared initial state."""
    state = scenario.state
    if isinstance(state, DeltaStateSpec):
        return delta_state(state.m, scenario.size)
    if isinstance(state, GaussianStateSpec):
        theta = ThetaParams(kappa=state.kappa, size=scenario.size)
        return gaussian_packet(PacketParams(theta=theta, n0=state.n0, k0=state.k0))
    values = np.asarray(state.re, dtype=np.float64) + 1j * np.asarray(state.im, dtype=np.float64)
    return normalize(LatticeFunction(values))
