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
and back. Records are taken in blocks: the states of consecutive records
are buffered into one read-only (B, N) array, whose norm drift is
checked and whose observables come from the report's np.fft pair along
the last axis, once per block. Each record views its row, and is bitwise
what a block of one would give; a failure yields the records before it
first. The oracle's kinetic term F^-1 diag(k^2) F / (2*mu) comes from
the small-N kick's dense builder, ``fourier.circulant_matrix``. The
state is never renormalized: norm drift is reported and policed, not
hidden.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConservationError, DimensionError, NumericalConsistencyError
from .fourier import circulant, circulant_matrix
from .lattice import NORM_DRIFT_TOL, LatticeFunction, NormalizedState
from .operators import LinearOperatorRepr, UncertaintyReport, uncertainty_reports

PROPAGATOR_UNITARITY_FACTOR = 1e-10
# Records are taken in blocks of at most this many amplitudes (rows * N,
# at least one row): 195 records at N = 21, one from N = 4096. It is the
# largest power of two that keeps memory flat in the record count: a JSON
# evolve of 500 records at N = 64 (tracemalloc after a warm-up) peaks at
# 0.41 MB with 2^12, 0.71 MB with 2^13 and 1.12 MB with 2^14, against the
# 0.55 MB, twice its 50-record peak, that its memory test allows.
RECORD_BLOCK_SIZE = 2**12


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


def _block_records(block: np.ndarray, marks: list) -> Iterator[TrajectoryRecord]:
    """The records of a (B, N) block of states taken at (step, time) marks.

    Norm drift, and with it finiteness, is checked for the whole block at
    once, and the observables of the rows before the first drifted one
    come from one ``uncertainty_reports`` call. Records are yielded in
    order and view rows of the block, which is made read-only; a drifted
    row raises ConservationError after the rows before it.
    """
    block.setflags(write=False)
    norm_errors = np.abs(np.sqrt((block.real ** 2 + block.imag ** 2).sum(axis=-1)) - 1.0)
    drifted = np.flatnonzero(~(norm_errors <= NORM_DRIFT_TOL))  # NaN drifts too
    good = int(drifted[0]) if drifted.size else len(marks)
    rows = zip(block[:good], marks, norm_errors.tolist(), uncertainty_reports(block[:good]))
    for values, (step, time), norm_error, report in rows:
        state = NormalizedState._trusted(LatticeFunction._trusted(values))
        yield TrajectoryRecord(step, time, state, report, norm_error)
    if good < len(marks):
        raise ConservationError(
            f"norm drifted by {norm_errors[good].item()!r} at t = {marks[good][1]!r}"
        )


def evolve(
    phi0: NormalizedState,
    params: EvolutionParams,
    potential: Potential,
    record_every: int = 1,
) -> Iterator[TrajectoryRecord]:
    """Run the Strang integrator, yielding one record per recorded step.

    Records are emitted at step 0, every ``record_every`` steps, and at
    the final step, a block of up to RECORD_BLOCK_SIZE amplitudes at a
    time. Norm drift beyond the conservation budget raises
    ConservationError at the offending record; every record before it is
    yielded first and stays valid, whatever fails.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    # eager shape/finite check; a static potential's phase is reused
    phase = _potential_phase(potential, phi0.size, params.dt, params.t0)
    static_phase = None if potential.time_dependent else phase
    return _evolve_iter(phi0, params, potential, record_every, static_phase)


def _record(step_time: float, values: np.ndarray, step: int = 0) -> TrajectoryRecord:
    """One record: ``_block_records`` on a block of one."""
    return next(_block_records(np.array(values, np.complex128, ndmin=2), [(step, step_time)]))


def _evolve_iter(phi0, params, potential, record_every, static_phase):
    size, dt = phi0.size, params.dt
    half_kick, full_kick = _kicks(size, dt, params.mu)

    def phase(step):
        """exp(-i*dt*V) at the midpoint of the given step, evaluated when asked."""
        if static_phase is not None:
            return static_phase
        return _potential_phase(potential, size, dt, params.t0 + (step - 1) * dt + dt / 2.0)

    def recorded_states():
        """(step, time, amplitudes) at each record, integrating on demand."""
        values = phi0.values
        yield 0, params.t0, values
        for start in range(0, params.steps, record_every):
            end = min(start + record_every, params.steps)
            phases = map(phase, range(start + 1, end + 1))
            values = _strang_segment(values, phases, half_kick, full_kick)
            yield end, params.t0 + end * dt, values

    states = recorded_states()
    remaining = 1 + -(-params.steps // record_every)
    while remaining:
        block = np.empty((min(remaining, max(1, RECORD_BLOCK_SIZE // size)), size), np.complex128)
        marks, failure = [], None
        try:
            for row, (step, time, values) in zip(range(len(block)), states):
                block[row] = values
                marks.append((step, time))
        except Exception as exc:  # raised again below
            failure = exc
        # the records before a failing step are yielded first, as unblocked
        yield from _block_records(block[:len(marks)], marks)
        if failure is not None:
            raise failure
        remaining -= len(block)


def static_hamiltonian(
    size: int, mu: float, potential: Potential, t_snapshot: float
) -> LinearOperatorRepr:
    """Dense O^2/(2*mu) + diag(V(., t_snapshot)); hermitian."""
    if not (mu > 0.0):
        raise ValueError("mu must be positive")
    k = np.arange(size, dtype=np.float64)
    h = circulant_matrix(k * k) / (2.0 * mu) + np.diag(
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
