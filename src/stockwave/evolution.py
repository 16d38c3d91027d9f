"""Schrodinger-type time evolution of the price state.

The generator splits into a kinetic part, diagonal in the owner basis
(the square of the ownership operator over twice the inertia mu), and a
trader-interaction potential, diagonal in the price basis. One Strang
step is

    K(dt/2) . V(dt, t + dt/2) . K(dt/2),

which is exactly unitary and second-order accurate in dt. Between two
records the adjacent half kicks merge, K(dt/2) K(dt/2) = K(dt) (the
Feit-Fleck-Steiger form), so the m steps between two records run as

    K(dt/2) . V . K(dt) . V . ... . K(dt) . V . K(dt/2)

and the kicks split again only where a record is taken. One lazy
generator, ``_strang_steps``, runs every step of a run this way and
yields the state at each record step; it is the one step body. Each
kick F^-1 diag(K) F is a fixed cyclic convolution. ``_kicks`` builds
K(dt/2) and K(dt) once per run, from one ``fourier.circulant`` call on
their (2, N) phases: one dense product each for N <= NAIVE_CUTOFF,
otherwise one FFT pair each, of length N, or, when N has a large prime
factor, over the two half-length rows of a zero-padded convolution, the
two kicks sharing one staging buffer and one twist table. A run thus
costs 2 transforms per step plus 2 per record interval (one matrix
product per step plus one for small N), and no step goes through the
owner basis and back. Records are taken in blocks: ``record_blocks``
buffers the states of consecutive records into one read-only (B, N)
array, takes its observables (``block_observables``, one np.fft pair
along the last axis) and checks its norm drift and Robertson bound once
per block, in ``_observed``, the one check of the library's report and
of every CLI record. It hands the block on whole, as one RecordBlock of
the arrays the CLI sinks write: the marks, the states, both
distributions and one summary array, the norm errors as its last column.
``evolve`` flattens the blocks into one TrajectoryRecord per row, each
viewing its row and bitwise what a block of one would give. On a failure
the records before it are handed on first. The state is never
renormalized: norm drift is reported and policed, not hidden.

A potential is a static profile times scalar factors, innermost first
(``Potential.profile`` and ``Potential.scales``). ``_phases`` evaluates
and checks the profile once per run; a step multiplies the factors in,
checking one scalar each, or reuses the last phase while they repeat,
as a static potential's always do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import (
    ConservationError, DimensionError, InvariantViolationError, NumericalConsistencyError,
)
from .fourier import circulant
from .lattice import NORM_DRIFT_TOL, LatticeFunction, NormalizedState
from .operators import UncertaintyReport, block_observables

# The relation holds for every state, so a product under the Robertson
# bound by more than the slack is a bug signal. The slack is this, or this
# share of ||P Phi|| ||O Phi|| where that is larger: the bound is
# |Im<P Phi, O Phi>|, whose rounding error is a few eps times that product
# (Cauchy-Schwarz). Over combs, point states and plane waves at N from 21
# to 2^20 the worst gap bound - product was 0.7 eps ||P Phi|| ||O Phi||
# (1.2e-5 for a comb at 2^20, 8e-5 for a point state), so 4 eps leaves a
# 5x margin; and as ||P Phi||, ||O Phi|| <= N - 1, the slack is the
# absolute 1e-9 for every state up to N = 1061.
ROBERTSON_SLACK = 1e-9
ROBERTSON_ROUNDING = 4 * np.finfo(np.float64).eps
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
# The columns of a record block's summary: the report's scalars, in
# UncertaintyReport order, and the raw norm error last.
SUMMARY_FIELDS = (
    "mean_price", "mean_owner", "delta_price", "delta_owner", "product", "bound", "norm_error",
)


class Potential:
    """Real, price-diagonal V(n, t) = s_k(t) * ... * s_1(t) * profile(n). A kind
    defines ``profile`` and, if V varies in time, ``scales(t)``: (s_1, ..., s_k)."""

    def profile(self, n: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} defines no profile")

    def scales(self, t: float) -> tuple:
        return ()

    def evaluate(self, n: np.ndarray, t: float) -> np.ndarray:
        return _scaled(self.profile(n), self.scales(t))


def _scaled(values, scales, out=None):
    """s_k * (... (s_1 * values)), the one order every caller multiplies in;
    each product goes into ``out`` when given. No scales return ``values``."""
    for scale in scales:
        values = np.multiply(scale, values, out=out)
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
        try:
            end = self.t0 + self.steps * self.dt
        except OverflowError:  # steps beyond the float range
            end = math.inf
        if not math.isfinite(end):  # then steps * dt is finite too
            raise ValueError("t0 + steps * dt must be finite")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Observables logged at one recorded step; norm_error stays raw."""

    step: int
    time: float
    state: NormalizedState
    report: UncertaintyReport
    norm_error: float


def _kicks(size: int, dt: float, mu: float) -> tuple[Callable, Callable]:
    """K(dt/2) and K(dt), the kinetic kicks exp(-i*duration*O^2/(2*mu)) as
    circulant operators on price amplitudes, from one ``circulant`` call;
    in the owner basis they are exp(-i*duration*k^2/(2*mu)). The (2, N)
    real angle is formed as (duration / (-2*mu)) * k^2, so it overflows
    only where duration / (2*mu) or an angle itself does, and is checked
    once per run."""
    durations = dt / 2.0, dt
    k = np.arange(size, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        angles = np.multiply.outer(np.divide(durations, -2.0 * mu), k * k)
    finite = np.isfinite(angles).all(axis=1)
    if not finite.all():  # name the first kick whose phase is not finite
        raise NumericalConsistencyError(
            f"kinetic phase is not finite for a kick of duration {durations[finite.argmin()]!r}"
        )
    return circulant(_unit_phasors(angles))


def _unit_phasors(angle: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i*angle) of a real angle array, as its cos and sin: the complex
    exp's values at less cost, into ``out`` when given. Adds 0.0 to
    ``angle`` in place, so a zero angle gives 1 + 0i, as the complex exp
    does, not 1 - 0i."""
    angle += 0.0
    if out is None:
        out = np.empty(angle.shape, np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _phases(potential: Potential, size: int, dt: float) -> Callable[[float], np.ndarray]:
    """t -> exp(-i*dt*V(n, t)), the ``_unit_phasors`` of the real angle. One
    scalar check for V and one for the angle are exact: rounding is
    monotonic, so |s| * max|v| overflows exactly when some s * v[n] does.
    The angle and the phasors are written into two buffers made here, and
    every call returns the same read-only view of the phasors, valid until
    the next call with other scales."""
    profile = _checked(potential.profile, size)
    peak, last = float(np.abs(profile).max()), [None]  # last scales
    angle, phasors = np.empty(size), np.empty(size, np.complex128)
    shared = phasors.view()
    shared.setflags(write=False)

    def phase(t: float) -> np.ndarray:
        scales = potential.scales(t)
        if scales != last[0]:
            bound = math.prod(map(abs, scales), start=peak)
            if not math.isfinite(bound):
                raise NumericalConsistencyError(f"potential is not finite at t = {t!r}")
            if not math.isfinite(dt * bound):
                raise NumericalConsistencyError(f"potential phase is not finite at t = {t!r}")
            np.multiply(-dt, _scaled(profile, scales, angle), out=angle)
            _unit_phasors(angle, phasors)
            last[0] = scales
        return shared

    return phase


def _strang_steps(values, t0, dt, steps, record_every, phase, half_kick, full_kick):
    """Strang steps of dt from t0, yielding (step, time, values) at step 0,
    every ``record_every`` steps and at the last step.

    Step s multiplies in the potential phase at its midpoint,
    phase(t0 + (s - 1) * dt + dt / 2); between two records the inner half
    kicks merge: K(dt/2) . V . K(dt) . V ... V . K(dt/2). The kicks are
    the circulant operators of ``_kicks``; the phase is multiplied into
    each kick's fresh output, which allocates nothing, and a yielded array
    is never written again. Lazy: a step runs only when the record after
    it is asked for.
    """
    yield 0, t0, values
    kick = half_kick
    for step in range(1, steps + 1):
        values = kick(values)
        values *= phase(t0 + (step - 1) * dt + dt / 2.0)
        if step % record_every and step < steps:
            kick = full_kick
        else:
            values, kick = half_kick(values), half_kick
            yield step, t0 + step * dt, values


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
    the read-only (B, N) states, both (B, N) distributions and the (B, 7)
    summary, one column per SUMMARY_FIELDS entry, the raw norm error last.
    ``records`` gives the TrajectoryRecord of each row."""

    marks: list
    states: np.ndarray
    prob_price: np.ndarray
    prob_owner: np.ndarray
    summary: np.ndarray

    def __len__(self) -> int:
        return len(self.marks)

    def records(self) -> Iterator[TrajectoryRecord]:
        """One record per row, in order; states and reports view the block."""
        rows = zip(self.states, self.marks, self.prob_price, self.prob_owner, self.summary.tolist())
        for values, (step, time), price, owner, (*scalars, norm_error) in rows:
            state = NormalizedState._trusted(LatticeFunction._trusted(values))
            report = UncertaintyReport(price, owner, *scalars)
            yield TrajectoryRecord(step, time, state, report, norm_error)


def _observed(block: np.ndarray, marks: list) -> tuple[RecordBlock, Exception | None]:
    """The valid prefix of a (B, N) block of states taken at (step, time)
    marks, and the error of the first invalid row, if any.

    The one check of every record, for ``record_blocks``, the library
    report and the CLI alike. A row is invalid once its norm drifts past
    NORM_DRIFT_TOL (a non-finite row drifts too) or its spread product
    undercuts the Robertson bound by more than the rounding slack
    (ROBERTSON_SLACK, or ROBERTSON_ROUNDING ||P Phi|| ||O Phi||). Drift is
    checked for the whole block at once; the observables of the rows
    before the first drifted one come from one ``block_observables``
    call; the prefix's norm errors are appended to its summary. The block
    is made read-only and the prefix views it.
    """
    block.setflags(write=False)
    drift = np.abs(np.sqrt((block.real ** 2 + block.imag ** 2).sum(axis=-1)) - 1.0)
    drifted = np.flatnonzero(~(drift <= NORM_DRIFT_TOL))  # NaN drifts too
    rows = int(drifted[0]) if drifted.size else len(marks)
    prob_price, prob_owner, summary = block_observables(block[:rows])
    mean_price, mean_owner, d_price, d_owner, product, bound = summary.T
    # ||P Phi|| ||O Phi||, the root mean squares of the two distributions
    scale = np.hypot(mean_price, d_price) * np.hypot(mean_owner, d_owner)
    slack = np.maximum(ROBERTSON_SLACK, ROBERTSON_ROUNDING * scale)
    undercut, error = np.flatnonzero(product < bound - slack), None
    if undercut.size:  # an earlier row than any drifted one
        rows = int(undercut[0])
        error = InvariantViolationError(
            f"uncertainty product {product[rows].item()!r} undercuts bound {bound[rows].item()!r}"
        )
    elif rows < len(marks):
        error = ConservationError(
            f"norm drifted by {drift[rows].item()!r} at t = {marks[rows][1]!r}"
        )
    summary = np.column_stack((summary[:rows], drift[:rows]))
    prefix = RecordBlock(marks[:rows], block[:rows], prob_price[:rows], prob_owner[:rows], summary)
    return prefix, error


def state_record(state: NormalizedState, t0: float) -> RecordBlock:
    """A state as the step-0 record of a run that starts at t0, a block of
    one, checked as every record is."""
    block, error = _observed(state.values[None, :], [(0, t0)])
    if error is not None:
        raise error
    return block


def uncertainty_product_report(state: NormalizedState) -> UncertaintyReport:
    """The observables of one state: the report of its step-0 record."""
    return next(state_record(state, 0.0).records()).report


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
    step), the records before it are yielded first, as a block that
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
    size, dt = phi0.size, params.dt
    states = _strang_steps(
        phi0.values, params.t0, dt, params.steps, record_every, phase, *_kicks(size, dt, params.mu)
    )
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

