"""Complex amplitudes on the cyclic price lattice {0, ..., N-1}.

The ambient space is C^N with the usual inner product. For a normalized
state Phi, |Phi(n)|^2 is the probability that a trade happens at price n,
and |F[Phi](k)|^2 the probability that trader k currently owns the stock.
This module holds the amplitudes and normalized states, the norm at any
finite magnitude, normalization, and the norm budget of time evolution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError

__all__ = [
    "LatticeFunction",
    "NormalizedState",
    "norm",
    "normalize",
]

NORMALIZATION_TOL = 1e-12
# Norm conservation budget of time evolution: evolve raises once
# | ||Phi|| - 1 | exceeds it, so the distributions of every state it
# yields sum to 1 within (1 + NORM_DRIFT_TOL)^2 - 1.
NORM_DRIFT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """A complex amplitude for each of the N price levels."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amplitudes must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "LatticeFunction":
        # Integrator internals: a row of a read-only record block, kept as a
        # view. Its norm drift is policed against the looser conservation
        # budget, and that check covers its finiteness.
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        return obj

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class NormalizedState(LatticeFunction):
    """A LatticeFunction whose probabilities sum to one."""

    def __post_init__(self):
        super().__post_init__()
        total = float(np.sum(np.abs(self.values) ** 2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state is not normalized: sum of |Phi(n)|^2 = {total!r}")


def _scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """values / 2^e and e, where 2^-e brings the largest real or imaginary
    part into [0.5, 1) (e = 0 for the zero function): the squares in their
    norm cannot overflow, and any that underflow are negligible. Exact but
    for parts below 2^(e - 1022), which round to subnormals."""
    parts = values.view(np.float64)  # re, im interleaved
    peak = float(np.abs(parts).max())
    exponent = math.frexp(peak)[1]
    return np.ldexp(parts, -exponent).view(np.complex128), exponent


def norm(phi: LatticeFunction) -> float:
    """||phi|| for amplitudes of any finite magnitude; inf where the norm
    itself exceeds the float range."""
    values, exponent = _scaled(phi.values)
    try:
        return math.ldexp(float(np.linalg.norm(values)), exponent)
    except OverflowError:
        return math.inf


def normalize(phi: LatticeFunction) -> NormalizedState:
    """Scale to unit norm; rejects the zero function. Amplitudes of any
    finite magnitude are accepted: the quotient is taken on the scaled
    values (see ``_scaled``), so an entry can differ from values / ||values||
    only below 2^-1021, in its last bits."""
    values = _scaled(phi.values)[0]
    length = np.linalg.norm(values)
    if length == 0.0:
        raise DegenerateStateError("zero-norm function has no normalized form")
    return NormalizedState(values / length)

