"""Dense oracles: the defining, O(N^2) forms the program paths are checked
against.

No program module imports this one; the package re-exports its public
names. It holds the defining DFT sum, the theta series, the probability
vectors and inner product of the lattice, the dense price, ownership and
commutator operators with their expectations and spreads, and the frozen
Hamiltonian with its eigendecomposition propagator.

``dft_matrix`` indexes its phase table with integer arithmetic reduced
mod N before any trig call, so large index products never lose
precision. np.exp of an imaginary argument keeps each phase within one
ulp of the unit circle, which the tests check rather than each call.
The dense operators are built per call in O(N^2), with no matrix product
and no cache. Their one guard is ``expectation``'s (sizes, hermiticity,
a real mean), and ``uncertainty`` takes its mean from it. The ownership
operator and the oracle's kinetic term F^-1 diag(k^2) F / (2*mu) come
from the small-N kick's dense builder, ``fourier.circulant_matrix``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericalConsistencyError
from .evolution import Potential, _checked
from .fourier import circulant_matrix
from .lattice import NORM_DRIFT_TOL, LatticeFunction, NormalizedState

__all__ = [
    "LinearOperatorRepr",
    "ProbabilityVector",
    "commutator",
    "dft_matrix",
    "exact_propagator",
    "expectation",
    "forward_naive",
    "inner_product",
    "owner_distribution",
    "ownership_operator",
    "price_distribution",
    "price_operator",
    "static_hamiltonian",
    "theta3",
    "uncertainty",
]

THETA_RELATIVE_CUTOFF = 1e-16  # first omitted theta term vs partial sum
HERMITICITY_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
PROPAGATOR_UNITARITY_FACTOR = 1e-10
PROBABILITY_SUM_TOL = (1.0 + NORM_DRIFT_TOL) ** 2 - 1.0


def _phases(size: int, direction: str) -> np.ndarray:
    """The table dft_matrix indexes: exp(-+2*pi*i*j/N) for j < N."""
    sign = -1 if direction == "forward" else +1
    return np.exp(sign * 2j * np.pi / size * np.arange(size))


def dft_matrix(size: int, direction: str = "forward") -> np.ndarray:
    """Dense unitary kernel: entry (k, n) is exp(-+2*pi*i*k*n/N)/sqrt(N),
    indexed from the phase table at k*n mod N."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    k = np.arange(size)
    return _phases(size, direction)[np.outer(k, k) % size] / np.sqrt(size)


def forward_naive(phi) -> LatticeFunction:
    """Reference path: the defining double sum, its kernel built per call."""
    return LatticeFunction(dft_matrix(phi.size) @ phi.values)


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


def price_distribution(state: NormalizedState) -> ProbabilityVector:
    """Probability of each trade price: |Phi(n)|^2."""
    return ProbabilityVector(np.abs(state.values) ** 2)


def owner_distribution(state: NormalizedState) -> ProbabilityVector:
    """Probability of each owner: |F[Phi](k)|^2, by the observables
    report's transform (np.fft for every N), so the two agree bit for bit."""
    return ProbabilityVector(np.abs(np.fft.fft(state.values, norm="ortho")) ** 2)


def theta3(z: float, t: float) -> float:
    """Theta series 1 + 2*sum_{a>=1} exp(-pi*t*a^2)*cos(2*pi*a*z).

    Second argument restricted to the purely imaginary axis (tau = i*t,
    t > 0), where the sum is real for real z. Terms are added until the
    first omitted one drops below 1e-16 * (|partial sum| + 1). A t so small
    that the series could need more than 10^6 terms (about t < 1.2e-11)
    raises ValueError instead of running for hours.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError("t must be a positive finite real; the series diverges otherwise")
    # the loop may run until 2 exp(-pi t a^2) < THETA_RELATIVE_CUTOFF
    if math.pi * t * 1e12 < math.log(2.0 / THETA_RELATIVE_CUTOFF):
        raise ValueError(f"t = {t!r} is too small: the series would need more than 10^6 terms")
    z = z - math.floor(z)  # the series is exactly 1-periodic in z
    total = 1.0
    a = 1
    while 2.0 * math.exp(-math.pi * t * a * a) >= THETA_RELATIVE_CUTOFF * (abs(total) + 1.0):
        total += 2.0 * math.exp(-math.pi * t * a * a) * math.cos(2.0 * math.pi * a * z)
        a += 1
    return total


@dataclass(frozen=True, eq=False)
class LinearOperatorRepr:
    """Dense N x N complex matrix acting on lattice functions."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ values

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    def is_hermitian(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return self.hermiticity_defect() <= HERMITICITY_TOL * scale


def price_operator(size: int) -> LinearOperatorRepr:
    """Diagonal multiplication by the price level n."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return LinearOperatorRepr(np.diag(np.arange(size, dtype=np.complex128)))


def _ownership_matrix(size: int) -> np.ndarray:
    raw = circulant_matrix(np.arange(size))
    return (raw + raw.conj().T) / 2.0  # hermitian up to the bit


def ownership_operator(size: int) -> LinearOperatorRepr:
    """Price operator conjugated into the owner basis: F^-1 P F."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return LinearOperatorRepr(_ownership_matrix(size))


def _commutator_matrix(size: int) -> np.ndarray:
    """(m - n) O[m, n], exactly anti-hermitian since O is exactly hermitian;
    the tests' dense oracle for the spectrum's half blocks."""
    levels = np.arange(size)
    out = _ownership_matrix(size)
    out *= np.subtract.outer(levels, levels)
    return out


def _require_same_size(a: LinearOperatorRepr, b) -> None:
    if a.size != b.size:
        raise DimensionError(f"size mismatch: {a.size} vs {b.size}")


def expectation(operator: LinearOperatorRepr, state: NormalizedState) -> float:
    """Mean value <Phi, A Phi> of a hermitian operator."""
    _require_same_size(operator, state)
    if not operator.is_hermitian():
        raise ContractError(
            f"operator is not hermitian; defect {operator.hermiticity_defect()!r}"
        )
    value = complex(np.vdot(state.values, operator.apply(state.values)))
    if abs(value.imag) > EXPECTATION_IMAG_TOL:
        raise NumericalConsistencyError(f"mean has imaginary residue {value.imag!r}")
    return value.real


def uncertainty(operator: LinearOperatorRepr, state: NormalizedState) -> float:
    """Root-mean-square deviation ||(A - <A>) Phi||; unlike
    sqrt(<A^2> - <A>^2) it does not cancel to noise near a point state.
    The mean, and with it every check, comes from ``expectation``."""
    mean = expectation(operator, state)
    return float(np.linalg.norm(operator.apply(state.values) - mean * state.values))


def commutator(a: LinearOperatorRepr, b: LinearOperatorRepr) -> LinearOperatorRepr:
    """A B - B A."""
    _require_same_size(a, b)
    return LinearOperatorRepr(a.matrix @ b.matrix - b.matrix @ a.matrix)


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
