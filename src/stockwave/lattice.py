"""Complex amplitudes on the cyclic price lattice {0, ..., N-1}.

The ambient space is C^N with the usual inner product. For a normalized
state Phi, |Phi(n)|^2 is the probability that a trade happens at price n,
and |F[Phi](k)|^2 the probability that trader k currently owns the stock.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStateError, DimensionError

NORMALIZATION_TOL = 1e-12
# Norm conservation budget of time evolution: evolve raises once
# | ||Phi|| - 1 | exceeds it, so the distributions of every state it
# yields sum to 1 within (1 + NORM_DRIFT_TOL)^2 - 1.
NORM_DRIFT_TOL = 1e-8
PROBABILITY_SUM_TOL = (1.0 + NORM_DRIFT_TOL) ** 2 - 1.0
# norm and normalize take the plain norm while the largest real or
# imaginary part lies in this range: the sum of the squares then stays far
# from overflow, and a square small enough to underflow is below 1e-107 of
# the total.
PLAIN_NORM_RANGE = (1e-100, 1e100)


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """A complex amplitude for each of the N price levels."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.complex128)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("amplitudes must form a non-empty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("amplitudes must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _trusted(cls, values: np.ndarray) -> "LatticeFunction":
        # Integrator internals: a row of a read-only record block whose
        # finiteness the norm check already covers; kept as a view.
        obj = object.__new__(cls)
        object.__setattr__(obj, "values", values)
        return obj

    @property
    def size(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class NormalizedState:
    """A LatticeFunction whose probabilities sum to one."""

    base: LatticeFunction

    def __post_init__(self):
        total = float(np.sum(np.abs(self.base.values) ** 2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"state is not normalized: sum of |Phi(n)|^2 = {total!r}")

    @classmethod
    def _trusted(cls, base: LatticeFunction) -> "NormalizedState":
        # Integrator internals: norm drift there is policed against a looser
        # conservation budget, so skip the strict construction check.
        obj = object.__new__(cls)
        object.__setattr__(obj, "base", base)
        return obj

    @property
    def values(self) -> np.ndarray:
        return self.base.values

    @property
    def size(self) -> int:
        return self.base.size


@dataclass(frozen=True, eq=False)
class ProbabilityVector:
    """Non-negative weights over the N lattice points, summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probabilities must form a non-empty 1-d sequence")
        if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
            raise ValueError("probabilities must be finite and non-negative")
        if abs(float(arr.sum()) - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(arr.sum())!r}, not 1")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def size(self) -> int:
        return self.probs.size

    def mean(self) -> float:
        """First moment with the lattice index as the value."""
        return float(np.dot(np.arange(self.size), self.probs))


def inner_product(phi: LatticeFunction, psi: LatticeFunction) -> complex:
    """Scalar product, conjugate-linear in the first argument."""
    if phi.size != psi.size:
        raise DimensionError(f"size mismatch: {phi.size} vs {psi.size}")
    return complex(np.vdot(phi.values, psi.values))


def _scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """values / 2^e and e. While the largest real or imaginary part lies in
    PLAIN_NORM_RANGE, e = 0 and values come back as they are; otherwise
    they are scaled exactly by the power of two that brings that part into
    [0.5, 1), so the squares in their norm neither overflow nor underflow."""
    parts = values.view(np.float64)  # re, im interleaved
    peak = float(np.abs(parts).max())
    if PLAIN_NORM_RANGE[0] <= peak <= PLAIN_NORM_RANGE[1]:
        return values, 0
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
    finite magnitude are accepted (see ``_scaled``)."""
    values = _scaled(phi.values)[0]
    length = np.linalg.norm(values)
    if length == 0.0:
        raise DegenerateStateError("zero-norm function has no normalized form")
    return NormalizedState(LatticeFunction(values / length))


def price_distribution(state: NormalizedState) -> ProbabilityVector:
    """Probability of each trade price: |Phi(n)|^2."""
    return ProbabilityVector(np.abs(state.values) ** 2)


def owner_distribution(state: NormalizedState) -> ProbabilityVector:
    """Probability of each owner: |F[Phi](k)|^2, by the observables
    report's transform (np.fft for every N), so the two agree bit for bit."""
    return ProbabilityVector(np.abs(np.fft.fft(state.values, norm="ortho")) ** 2)
