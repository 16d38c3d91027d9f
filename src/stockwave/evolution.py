"""Schrodinger-type time evolution of the price state.

The generator splits into a kinetic part, diagonal in the owner basis
(the square of the ownership operator over twice the inertia mu), and a
trader-interaction potential, diagonal in the price basis. One Strang
step is

    K(dt/2) . V(dt, t + dt/2) . K(dt/2),

which is exactly unitary and second-order accurate in dt. Between two
records the adjacent half kicks merge, K(dt/2) K(dt/2) = K(dt) (the
Feit-Fleck-Steiger form), so a segment of m steps runs as

    K(dt/2) . V . K(dt) . V . ... . K(dt) . V . K(dt/2)

and the kicks split again only where a record is taken. Each kick
F^-1 diag(K) F is a fixed cyclic convolution, built once per run by
``fourier.circulant``: one dense product for N <= NAIVE_CUTOFF, otherwise
one FFT pair, zero-padded when N has a large prime factor. A segment
thus costs 2 transforms per step plus 2 per segment (one matrix product
per step plus one for small N), and no step goes through the owner basis
and back; records take the owner transform pair of the observables
report. The state is never renormalized: norm drift is reported and
policed, not hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConservationError, DimensionError, NumericalConsistencyError
from .fourier import circulant
from .lattice import LatticeFunction, NormalizedState
from .operators import (
    LinearOperatorRepr,
    UncertaintyReport,
    ownership_operator,
    uncertainty_product_report,
)

NORM_DRIFT_TOL = 1e-8
PROPAGATOR_UNITARITY_FACTOR = 1e-10


class Potential:
    """Real, price-diagonal interaction term V(n, t)."""

    time_dependent = False

    def evaluate(self, n: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(Potential):

    def evaluate(self, n, t):
        return np.zeros(np.shape(n), dtype=np.float64)


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """(strength/2) * (n - center)^2."""

    center: float
    strength: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.strength)):
            raise ValueError("harmonic parameters must be finite")

    def evaluate(self, n, t):
        return 0.5 * self.strength * (np.asarray(n, dtype=np.float64) - self.center) ** 2


@dataclass(frozen=True)
class LinearPotential(Potential):
    """slope * n."""

    slope: float

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")

    def evaluate(self, n, t):
        return self.slope * np.asarray(n, dtype=np.float64)


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """One fixed real value per price level."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1 or not all(math.isfinite(v) for v in vals):
            raise ValueError("tabulated values must be a non-empty finite sequence")
        object.__setattr__(self, "values", vals)

    def evaluate(self, n, t):
        n = np.asarray(n)
        if len(self.values) != n.size:
            raise DimensionError(
                f"tabulated potential has {len(self.values)} entries for {n.size} levels"
            )
        return np.asarray(self.values, dtype=np.float64)[n]


@dataclass(frozen=True)
class ModulatedPotential(Potential):
    """Base potential scaled by amplitude * cos(omega * t)."""

    base: Potential
    amplitude: float
    omega: float
    time_dependent = True

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.omega)):
            raise ValueError("modulation parameters must be finite")

    def evaluate(self, n, t):
        return self.amplitude * math.cos(self.omega * t) * self.base.evaluate(n, t)


@dataclass(frozen=True)
class EvolutionParams:
    """Inertia mu, step dt, step count, and start time."""

    mu: float
    dt: float
    steps: int
    t0: float = 0.0

    def __post_init__(self):
        if not (self.mu > 0.0) or not math.isfinite(self.mu):
            raise ValueError("mu must be a positive finite real")
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValueError("dt must be a positive finite real")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not math.isfinite(self.t0):
            raise ValueError("t0 must be finite")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Observables logged at one recorded step; norm_error stays raw."""

    step: int
    time: float
    state: NormalizedState
    report: UncertaintyReport
    norm_error: float


def _kick(size: int, duration: float, mu: float) -> Callable:
    """Kinetic kick exp(-i*duration*O^2/(2*mu)) as a circulant operator on
    price amplitudes; in the owner basis it is exp(-i*duration*k^2/(2*mu))."""
    k = np.arange(size, dtype=np.float64)
    return circulant(np.exp(-1j * duration * k * k / (2.0 * mu)))


def _kicks(size: int, dt: float, mu: float) -> tuple[Callable, Callable]:
    """K(dt/2) and K(dt)."""
    return _kick(size, dt / 2.0, mu), _kick(size, dt, mu)


def _potential_phase(potential: Potential, size: int, dt: float, t: float) -> np.ndarray:
    return np.exp(-1j * dt * _evaluated_potential(potential, size, t))


def _strang_segment(values, phases: Iterable[np.ndarray], half_kick, full_kick):
    """Strang steps, one per potential phase exp(-i*dt*V(t_mid)), with the
    inner half kicks merged: K(dt/2) . V . K(dt) . V ... V . K(dt/2).

    The kicks are the circulant operators of ``_kicks``. ``phases`` is
    consumed lazily; with one phase this is one Strang step.
    """
    kick = half_kick
    for phase in phases:
        values = kick(values) * phase
        kick = full_kick
    return half_kick(values)


def kinetic_half_step(phi, dt: float, mu: float) -> LatticeFunction:
    """Apply exp(-i*(dt/2)*O^2/(2*mu)), the owner-diagonal half kick."""
    if not (mu > 0.0):
        raise ValueError("mu must be positive")
    return LatticeFunction(_kick(phi.size, dt / 2.0, mu)(phi.values))


def potential_full_step(phi, dt: float, potential: Potential, t_mid: float) -> LatticeFunction:
    """Multiply by the pure phase exp(-i*dt*V(n, t_mid))."""
    return LatticeFunction(phi.values * _potential_phase(potential, phi.size, dt, t_mid))


def strang_step(phi, t: float, params: EvolutionParams, potential: Potential) -> LatticeFunction:
    """Advance one step dt from time t; the potential is sampled at the
    interval midpoint to keep second-order accuracy."""
    phase = _potential_phase(potential, phi.size, params.dt, t + params.dt / 2.0)
    half_kick = _kick(phi.size, params.dt / 2.0, params.mu)
    # a segment of one step never reaches its full kick
    return LatticeFunction(_strang_segment(phi.values, (phase,), half_kick, half_kick))


def _evaluated_potential(potential: Potential, size: int, t: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        v = np.asarray(potential.evaluate(np.arange(size), t), dtype=np.float64)
    if v.shape != (size,):
        raise DimensionError(f"potential produced shape {v.shape} for size {size}")
    if not np.all(np.isfinite(v)):
        raise NumericalConsistencyError(f"potential is not finite at t = {t!r}")
    return v


def _record(step_time: float, values: np.ndarray, step: int = 0) -> TrajectoryRecord:
    norm_error = abs(float(np.linalg.norm(values)) - 1.0)
    if norm_error > NORM_DRIFT_TOL:
        raise ConservationError(
            f"norm drifted by {norm_error!r} at t = {step_time!r}"
        )
    state = NormalizedState._trusted(LatticeFunction(values))
    return TrajectoryRecord(
        step=step,
        time=step_time,
        state=state,
        report=uncertainty_product_report(state),
        norm_error=norm_error,
    )


def evolve(
    phi0: NormalizedState,
    params: EvolutionParams,
    potential: Potential,
    record_every: int = 1,
) -> Iterator[TrajectoryRecord]:
    """Run the Strang integrator, yielding observables as they appear.

    Records are emitted at step 0, every ``record_every`` steps, and at
    the final step. Norm drift beyond the conservation budget raises
    ConservationError at the offending record; everything yielded before
    that stays valid.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    # eager shape/finite check; a static potential's phase is reused
    phase = _potential_phase(potential, phi0.size, params.dt, params.t0)
    static_phase = None if potential.time_dependent else phase
    return _evolve_iter(phi0, params, potential, record_every, static_phase)


def _evolve_iter(phi0, params, potential, record_every, static_phase):
    size, dt = phi0.size, params.dt
    half_kick, full_kick = _kicks(size, dt, params.mu)

    def phase(step):
        """exp(-i*dt*V) at the midpoint of the given step, evaluated when asked."""
        if static_phase is not None:
            return static_phase
        return _potential_phase(potential, size, dt, params.t0 + (step - 1) * dt + dt / 2.0)

    values = phi0.values  # LatticeFunction copies what each record keeps
    yield _record(params.t0, values)
    for start in range(0, params.steps, record_every):
        end = min(start + record_every, params.steps)
        values = _strang_segment(values, map(phase, range(start + 1, end + 1)), half_kick, full_kick)
        yield _record(params.t0 + end * dt, values, end)


def static_hamiltonian(
    size: int, mu: float, potential: Potential, t_snapshot: float
) -> LinearOperatorRepr:
    """Dense O^2/(2*mu) + diag(V(., t_snapshot)); hermitian."""
    if not (mu > 0.0):
        raise ValueError("mu must be positive")
    o = ownership_operator(size).matrix
    h = (o @ o) / (2.0 * mu) + np.diag(
        _evaluated_potential(potential, size, t_snapshot).astype(np.complex128)
    )
    return LinearOperatorRepr((h + h.conj().T) / 2.0)


def exact_propagator(
    size: int,
    mu: float,
    potential: Potential,
    t_snapshot: float,
    duration: float,
) -> LinearOperatorRepr:
    """Matrix exponential of the frozen Hamiltonian, via eigendecomposition.

    Oracle path for the split-operator integrator: the potential is held
    fixed at t_snapshot and U exp(-i*duration*Lambda) U^dagger is formed
    from the LAPACK eigensystem (np.linalg.eigh).
    """
    h = static_hamiltonian(size, mu, potential, t_snapshot)
    eigenvalues, vectors = np.linalg.eigh(h.matrix)
    propagator = (vectors * np.exp(-1j * duration * eigenvalues)[None, :]) @ vectors.conj().T
    defect = float(
        np.linalg.norm(propagator.conj().T @ propagator - np.eye(size))
    )
    if defect > PROPAGATOR_UNITARITY_FACTOR * math.sqrt(size):
        raise NumericalConsistencyError(f"propagator unitarity defect {defect!r}")
    return LinearOperatorRepr(propagator)
