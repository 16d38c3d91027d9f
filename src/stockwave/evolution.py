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
and back. Records are taken in blocks: ``record_blocks`` buffers the
states of consecutive records into one read-only (B, N) array, checks
its norm drift and takes its observables (``block_observables``, one
np.fft pair along the last axis) once per block, and hands the block on
whole, as the CLI sinks write it. ``evolve`` flattens the blocks into one
TrajectoryRecord per row, each viewing its row and bitwise what a block
of one would give. On a failure the records before it are handed on
first. The oracle's kinetic term F^-1 diag(k^2) F / (2*mu) comes from
the small-N kick's dense builder, ``fourier.circulant_matrix``. The
state is never renormalized: norm drift is reported and policed, not
hidden.

A potential is a static profile times scalar factors, innermost first
(``Potential.profile`` and ``Potential.scales``). ``_phases`` evaluates
and checks the profile once per run; a step multiplies the factors in,
checking one scalar each, or reuses the last phase while they repeat,
as a static potential's always do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConservationError, DimensionError, NumericalConsistencyError
from .fourier import circulant, circulant_matrix
from .lattice import NORM_DRIFT_TOL, LatticeFunction, NormalizedState
from .operators import (
    BlockObservables,
    LinearOperatorRepr,
    UncertaintyReport,
    block_observables,
)

PROPAGATOR_UNITARITY_FACTOR = 1e-10
# Records are taken in blocks of at most this many amplitudes (rows * N,
# at least one row): 195 records at N = 21, one from N = 4096. It is the
# largest power of two that keeps memory flat in the record count: a JSON
# evolve of 500 records at N = 64 (tracemalloc after a warm-up) peaks at
# 0.56 MB with 2^12, 1.00 MB with 2^13 and 1.84 MB with 2^14, against the
# 0.90 MB, twice its 50-record peak, that its memory test allows.
RECORD_BLOCK_SIZE = 2**12
# A block also closes once this many steps have been integrated since the
# last one closed, so the first record waits at most
# max(RECORD_BLOCK_STEPS, record_every) + record_every steps. Closing a
# block early costs one block's fixed work (transform calls, reductions,
# the sink's conversions): 70-130 us, the time of 5-55 steps at N <= 256
# (2-core x86-64 VM), so this is the smallest power of two at which that
# costs under 1% of the integration.
RECORD_BLOCK_STEPS = 2**13


class Potential:
    """Real, price-diagonal V(n, t) = s_k(t) * ... * s_1(t) * profile(n). A kind
    defines ``profile`` and, if V varies in time, ``scales(t)``: (s_1, ..., s_k)."""

    def profile(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} defines no profile")

    def scales(self, t: float) -> tuple:
        return ()

    def evaluate(self, n: np.ndarray, t: float) -> np.ndarray:
        return _scaled(self.profile(n), self.scales(t))


def _scaled(values, scales):
    """s_k * (... (s_1 * values)), the one order every caller multiplies in."""
    for scale in scales:
        values = scale * values
    return values


@dataclass(frozen=True)
class ZeroPotential(Potential):

    def profile(self, n):
        return np.zeros(np.shape(n), dtype=np.float64)


@dataclass(frozen=True)
class HarmonicPotential(Potential):
    """(strength/2) * (n - center)^2."""

    center: float
    strength: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.strength)):
            raise ValueError("harmonic parameters must be finite")

    def profile(self, n):
        return 0.5 * self.strength * (np.asarray(n, dtype=np.float64) - self.center) ** 2


@dataclass(frozen=True)
class LinearPotential(Potential):
    """slope * n."""

    slope: float

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ValueError("slope must be finite")

    def profile(self, n):
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

    def profile(self, n):
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

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and math.isfinite(self.omega)):
            raise ValueError("modulation parameters must be finite")

    def profile(self, n):
        return self.base.profile(n)

    def scales(self, t):
        if not math.isfinite(self.omega * t):  # math.cos would raise a bare ValueError
            raise NumericalConsistencyError(f"potential is not finite at t = {t!r}")
        return (*self.base.scales(t), self.amplitude * math.cos(self.omega * t))


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


def _phases(potential: Potential, size: int, dt: float) -> Callable[[float], np.ndarray]:
    """t -> exp(-i*dt*V(n, t)) as cos and sin of the real angle, the complex
    exp's values at less cost. One scalar check for V and one for the angle
    are exact: rounding is monotonic, so |s| * max|v| overflows exactly when
    some s * v[n] does."""
    profile = _checked(potential.profile, size)
    peak, last = float(np.abs(profile).max()), [None, None]  # last scales, phase

    def phase(t: float) -> np.ndarray:
        scales = potential.scales(t)
        if scales != last[0]:
            bound = math.prod(map(abs, scales), start=peak)
            if not math.isfinite(bound):
                raise NumericalConsistencyError(f"potential is not finite at t = {t!r}")
            if not math.isfinite(dt * bound):
                raise NumericalConsistencyError(f"potential phase is not finite at t = {t!r}")
            angle = -dt * _scaled(profile, scales)
            angle += 0.0  # V = 0 gives 1 + 0i, as the complex exp does, not 1 - 0i
            out = np.empty(size, np.complex128)
            np.cos(angle, out=out.real)
            np.sin(angle, out=out.imag)
            out.setflags(write=False)  # shared by the steps that reuse it
            last[:] = scales, out
        return last[1]

    return phase


def _potential_phase(potential: Potential, size: int, dt: float, t: float) -> np.ndarray:
    return _phases(potential, size, dt)(t)


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


def _checked(values_at: Callable, size: int, where: str = "") -> np.ndarray:
    """values_at(np.arange(size)) as float64, its shape and finiteness checked."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        v = np.asarray(values_at(np.arange(size)), dtype=np.float64)
    if v.shape != (size,):
        raise DimensionError(f"potential produced shape {v.shape} for size {size}")
    if not np.all(np.isfinite(v)):
        raise NumericalConsistencyError(f"potential is not finite{where}")
    return v


@dataclass(frozen=True, eq=False)
class RecordBlock:
    """Consecutive records of one run as arrays: their (step, time) marks,
    the read-only (B, N) states, the (B,) raw norm errors and the block's
    observables. ``records`` gives the TrajectoryRecord of each row."""

    marks: list
    states: np.ndarray
    norm_errors: np.ndarray
    observables: BlockObservables

    def __len__(self) -> int:
        return len(self.marks)

    def records(self) -> Iterator[TrajectoryRecord]:
        """One record per row, in order; states and reports view the block."""
        rows = zip(self.states, self.marks, self.norm_errors.tolist(), self.observables.reports())
        for values, (step, time), norm_error, report in rows:
            state = NormalizedState._trusted(LatticeFunction._trusted(values))
            yield TrajectoryRecord(step, time, state, report, norm_error)


def _observed(block: np.ndarray, marks: list) -> tuple[RecordBlock, Exception | None]:
    """The valid prefix of a (B, N) block of states taken at (step, time)
    marks, and the error of the first invalid row, if any.

    Norm drift, and with it finiteness, is checked for the whole block at
    once; the observables of the rows before the first drifted one come
    from one ``block_observables`` call, whose Robertson check may end the
    prefix earlier. The block is made read-only and the prefix views it.
    """
    block.setflags(write=False)
    norm_errors = np.abs(np.sqrt((block.real ** 2 + block.imag ** 2).sum(axis=-1)) - 1.0)
    drifted = np.flatnonzero(~(norm_errors <= NORM_DRIFT_TOL))  # NaN drifts too
    good = int(drifted[0]) if drifted.size else len(marks)
    observables = block_observables(block[:good])
    rows, error = observables.robertson_prefix()
    if error is None and good < len(marks):
        error = ConservationError(
            f"norm drifted by {norm_errors[good].item()!r} at t = {marks[good][1]!r}"
        )
    return RecordBlock(marks[:rows], block[:rows], norm_errors[:rows], observables[:rows]), error


def record_blocks(
    phi0: NormalizedState,
    params: EvolutionParams,
    potential: Potential,
    record_every: int = 1,
) -> Iterator[RecordBlock]:
    """Run the Strang integrator, yielding the records in RecordBlocks.

    Records are taken at step 0, every ``record_every`` steps, and at the
    final step. A block closes when it holds RECORD_BLOCK_SIZE amplitudes
    (at least one record) or when RECORD_BLOCK_STEPS steps have been
    integrated since the last block closed, whichever comes first. If a
    step or a record fails (norm drift beyond the conservation budget, a
    Robertson violation, a non-finite potential, or any exception from a
    segment), the records before it are yielded first, as a block that
    stays valid, and then the error is raised.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    phase = _phases(potential, phi0.size, params.dt)  # checks the profile, eagerly
    return _record_blocks(phi0, params, phase, record_every)


def evolve(
    phi0: NormalizedState,
    params: EvolutionParams,
    potential: Potential,
    record_every: int = 1,
) -> Iterator[TrajectoryRecord]:
    """Run the Strang integrator, yielding one record per recorded step.

    The records of ``record_blocks``, one at a time: at step 0, every
    ``record_every`` steps, and at the final step. Norm drift beyond the
    conservation budget raises ConservationError at the offending record;
    every record before it is yielded first and stays valid, whatever
    fails.
    """
    blocks = record_blocks(phi0, params, potential, record_every)
    return (record for block in blocks for record in block.records())


def _record_blocks(phi0, params, phase, record_every):
    size, t0, dt = phi0.size, params.t0, params.dt
    half_kick, full_kick = _kicks(size, dt, params.mu)

    def recorded_states():
        """(step, time, amplitudes) at each record, integrating on demand."""
        values = phi0.values
        yield 0, t0, values
        for start in range(0, params.steps, record_every):
            end = min(start + record_every, params.steps)
            midpoints = (t0 + (step - 1) * dt + dt / 2.0 for step in range(start + 1, end + 1))
            values = _strang_segment(values, map(phase, midpoints), half_kick, full_kick)
            yield end, t0 + end * dt, values

    states = recorded_states()
    remaining, closed_at = 1 + -(-params.steps // record_every), 0
    while remaining:
        block = np.empty((min(remaining, max(1, RECORD_BLOCK_SIZE // size)), size), np.complex128)
        marks, failure = [], None
        try:
            for step, time, values in states:
                block[len(marks)] = values
                marks.append((step, time))
                if len(marks) == len(block) or step - closed_at >= RECORD_BLOCK_STEPS:
                    break
        except Exception as exc:  # raised again below
            failure = exc
        # the records before a failing step or record are yielded first
        records, error = _observed(block[:len(marks)], marks)
        if len(records):
            yield records
        del records  # freed before the next block is computed
        if error is not None or failure is not None:
            raise error or failure
        remaining -= len(marks)
        closed_at = marks[-1][0]


def static_hamiltonian(
    size: int, mu: float, potential: Potential, t_snapshot: float
) -> LinearOperatorRepr:
    """Dense O^2/(2*mu) + diag(V(., t_snapshot)); hermitian."""
    if not (mu > 0.0):
        raise ValueError("mu must be positive")
    k = np.arange(size, dtype=np.float64)
    v = _checked(lambda n: potential.evaluate(n, t_snapshot), size, f" at t = {t_snapshot!r}")
    h = circulant_matrix(k * k) / (2.0 * mu) + np.diag(v.astype(np.complex128))
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
