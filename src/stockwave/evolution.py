"""Schrodinger-type time evolution of the price state.

The generator splits into a kinetic part, diagonal in the owner basis
(the square of the ownership operator over twice the inertia mu), and a
trader-interaction potential, diagonal in the price basis. One Strang
step is

    K(dt/2) . V(dt, t + dt/2) . K(dt/2),

which is exactly unitary and second-order accurate in dt. The state is
never renormalized: norm drift is reported and policed, not hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConservationError, DimensionError, NumericalConsistencyError
from .fourier import plan_for
from .lattice import LatticeFunction, NormalizedState
from .operators import (
    LinearOperatorRepr,
    ownership_operator,
    uncertainty_product_report,
)
from .eigen import hermitian_eigensystem

NORM_DRIFT_TOL = 1e-8
PROPAGATOR_UNITARITY_FACTOR = 1e-10


class Potential:
    """Real, price-diagonal interaction term V(n, t)."""

    kind = "abstract"
    time_dependent = False

    def evaluate(self, n: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class ZeroPotential(Potential):
    kind = "zero"

    def evaluate(self, n, t):
        return np.zeros(np.shape(n), dtype=np.float64)


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """(strength/2) * (n - center)^2."""

    center: float
    strength: float
    kind = "harmonic"

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.strength)):
            raise ValueError("harmonic parameters must be finite")

    def evaluate(self, n, t):
        return 0.5 * self.strength * (np.asarray(n, dtype=np.float64) - self.center) ** 2


@dataclass(frozen=True)
class LinearPotential(Potential):
    """slope * n."""

    slope: float
    kind = "linear"

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")

    def evaluate(self, n, t):
        return self.slope * np.asarray(n, dtype=np.float64)


@dataclass(frozen=True)
class TabulatedPotential(Potential):
    """One fixed real value per price level."""

    values: tuple

    kind = "tabulated"

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
    kind = "modulated"
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

    time: float
    state: NormalizedState
    mean_price: float
    delta_price: float
    delta_owner: float
    uncertainty_product: float
    uncertainty_bound: float
    norm_error: float


def _values_of(phi) -> np.ndarray:
    return phi.values


def _kinetic_phases(size: int, dt: float, mu: float) -> np.ndarray:
    k = np.arange(size, dtype=np.float64)
    return np.exp(-1j * dt * k * k / (2.0 * mu))


def _apply_kinetic(values, phases, fwd_plan, inv_plan):
    return inv_plan.apply(fwd_plan.apply(values) * phases)


def kinetic_half_step(phi, dt: float, mu: float) -> LatticeFunction:
    """Apply exp(-i*(dt/2)*O^2/(2*mu)) through the owner basis."""
    if not (mu > 0.0):
        raise ValueError("mu must be positive")
    values = _values_of(phi)
    size = values.size
    phases = _kinetic_phases(size, dt / 2.0, mu)
    return LatticeFunction(
        _apply_kinetic(values, phases, plan_for(size, "forward"), plan_for(size, "inverse"))
    )


def potential_full_step(phi, dt: float, potential: Potential, t_mid: float) -> LatticeFunction:
    """Multiply by the pure phase exp(-i*dt*V(n, t_mid))."""
    values = _values_of(phi)
    v = _evaluated_potential(potential, values.size, t_mid)
    return LatticeFunction(values * np.exp(-1j * dt * v))


def strang_step(phi, t: float, params: EvolutionParams, potential: Potential) -> LatticeFunction:
    """Advance one step dt from time t; the potential is sampled at the
    interval midpoint to keep second-order accuracy."""
    half = kinetic_half_step(phi, params.dt, params.mu)
    kicked = potential_full_step(half, params.dt, potential, t + params.dt / 2.0)
    return kinetic_half_step(kicked, params.dt, params.mu)


def _evaluated_potential(potential: Potential, size: int, t: float) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        v = np.asarray(potential.evaluate(np.arange(size), t), dtype=np.float64)
    if v.shape != (size,):
        raise DimensionError(f"potential produced shape {v.shape} for size {size}")
    if not np.all(np.isfinite(v)):
        raise NumericalConsistencyError(f"potential is not finite at t = {t!r}")
    return v


def _record(step_time: float, values: np.ndarray) -> TrajectoryRecord:
    norm_error = abs(float(np.linalg.norm(values)) - 1.0)
    if norm_error > NORM_DRIFT_TOL:
        raise ConservationError(
            f"norm drifted by {norm_error!r} at t = {step_time!r}"
        )
    state = NormalizedState._trusted(LatticeFunction(values))
    probs = np.abs(state.values) ** 2
    report = uncertainty_product_report(state)
    return TrajectoryRecord(
        time=step_time,
        state=state,
        mean_price=float(np.dot(np.arange(values.size), probs)),
        delta_price=report.delta_price,
        delta_owner=report.delta_owner,
        uncertainty_product=report.product,
        uncertainty_bound=report.bound,
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
    size = phi0.size
    fwd = plan_for(size, "forward")
    inv = plan_for(size, "inverse")
    half_phases = _kinetic_phases(size, params.dt / 2.0, params.mu)
    static_phase = None
    v = _evaluated_potential(potential, size, params.t0)  # eager shape/finite check
    if not potential.time_dependent:
        static_phase = np.exp(-1j * params.dt * v)
    return _evolve_iter(phi0, params, potential, record_every, fwd, inv, half_phases, static_phase)


def _evolve_iter(phi0, params, potential, record_every, fwd, inv, half_phases, static_phase):
    size = phi0.size
    values = phi0.values.copy()
    yield _record(params.t0, values.copy())
    for step in range(1, params.steps + 1):
        t_mid = params.t0 + (step - 1) * params.dt + params.dt / 2.0
        if static_phase is None:
            v = _evaluated_potential(potential, size, t_mid)
            phase = np.exp(-1j * params.dt * v)
        else:
            phase = static_phase
        values = _apply_kinetic(values, half_phases, fwd, inv)
        values *= phase
        values = _apply_kinetic(values, half_phases, fwd, inv)
        if step % record_every == 0 or step == params.steps:
            yield _record(params.t0 + step * params.dt, values.copy())


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
    from the Jacobi eigensystem.
    """
    h = static_hamiltonian(size, mu, potential, t_snapshot)
    eigenvalues, vectors = hermitian_eigensystem(h.matrix)
    propagator = (vectors * np.exp(-1j * duration * eigenvalues)[None, :]) @ vectors.conj().T
    defect = float(
        np.linalg.norm(propagator.conj().T @ propagator - np.eye(size))
    )
    if defect > PROPAGATOR_UNITARITY_FACTOR * math.sqrt(size):
        raise NumericalConsistencyError(f"propagator unitarity defect {defect!r}")
    return LinearOperatorRepr(propagator)
