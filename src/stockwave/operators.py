"""Price and ownership operators, their spectra, and uncertainty reports.

The price operator multiplies by the lattice index; the ownership
operator is its conjugate under the finite Fourier transform. Their
commutator is anti-hermitian with purely imaginary eigenvalues that
cluster near i*N/(2*pi) for large N.

The per-state report is matrix-free, O(N) memory and O(N log N) work.
The dense N x N operators serve the spectrum path and act as oracles.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .eigen import hermitian_eigensystem
from .errors import (
    ContractError,
    DimensionError,
    InvariantViolationError,
    NumericalConsistencyError,
)
from .fourier import dft_matrix, plan_for
from .lattice import NormalizedState

HERMITICITY_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
ROBERTSON_SLACK = 1e-9
SATURATION_WINDOW = 1e-6
SPECTRUM_RESIDUAL_FACTOR = 1e-8
# Largest lattice for the dense spectrum path. commutator_spectrum peaks
# at about eight live N x N complex matrices (tracemalloc, N = 32 and 64):
# 8 * 16 B * 2048^2 = 512 MiB, half of a 1 GiB budget, the rest left for
# BLAS workspace and the interpreter.
MAX_DENSE_SIZE = 2048


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

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return self.hermiticity_defect() <= tol * scale


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Commutator eigenvalues sorted by imaginary part, plus the worst
    eigenpair residual max ||A v - lambda v||."""

    eigenvalues: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    """Price and owner distributions of one state, their means and
    spreads, the spread product and the Robertson bound |<[P, O]>|/2."""

    prob_price: np.ndarray
    prob_owner: np.ndarray
    mean_price: float
    mean_owner: float
    delta_price: float
    delta_owner: float
    product: float
    bound: float
    saturated: bool


def price_operator(size: int) -> LinearOperatorRepr:
    """Diagonal multiplication by the price level n."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return LinearOperatorRepr(np.diag(np.arange(size, dtype=np.complex128)))


@lru_cache(maxsize=32)
def _ownership_matrix(size: int) -> np.ndarray:
    fwd = dft_matrix(size, "forward")
    inv = dft_matrix(size, "inverse")
    raw = inv @ (np.arange(size)[:, None] * fwd)
    out = (raw + raw.conj().T) / 2.0  # hermitian up to the bit
    out.setflags(write=False)
    return out


def ownership_operator(size: int) -> LinearOperatorRepr:
    """Price operator conjugated into the owner basis: F^-1 P F."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return LinearOperatorRepr(_ownership_matrix(size))


@lru_cache(maxsize=32)
def _commutator_matrix(size: int) -> np.ndarray:
    p = np.diag(np.arange(size, dtype=np.complex128))
    o = _ownership_matrix(size)
    out = p @ o - o @ p
    out.setflags(write=False)
    return out


def _require_same_size(a: LinearOperatorRepr, b) -> None:
    if a.size != b.size:
        raise DimensionError(f"size mismatch: {a.size} vs {b.size}")


def expectation(operator: LinearOperatorRepr, state: NormalizedState) -> float:
    """Mean value <Phi, A Phi> of a hermitian operator."""
    _require_same_size(operator, state)
    if not operator.is_hermitian():
        raise ContractError(
            f"expectation requires a hermitian operator; defect "
            f"{operator.hermiticity_defect()!r}"
        )
    value = complex(np.vdot(state.values, operator.apply(state.values)))
    if abs(value.imag) > EXPECTATION_IMAG_TOL:
        raise NumericalConsistencyError(
            f"expectation has imaginary residue {value.imag!r}"
        )
    return value.real


def uncertainty(operator: LinearOperatorRepr, state: NormalizedState) -> float:
    """Root-mean-square deviation ||(A - <A>) Phi||; unlike
    sqrt(<A^2> - <A>^2) it does not cancel to noise near a point state."""
    _require_same_size(operator, state)
    if not operator.is_hermitian():
        raise ContractError(
            f"uncertainty requires a hermitian operator; defect "
            f"{operator.hermiticity_defect()!r}"
        )
    image = operator.apply(state.values)
    mean = complex(np.vdot(state.values, image))
    if abs(mean.imag) > EXPECTATION_IMAG_TOL:
        raise NumericalConsistencyError(f"mean has imaginary residue {mean.imag!r}")
    return float(np.linalg.norm(image - mean.real * state.values))


def commutator(a: LinearOperatorRepr, b: LinearOperatorRepr) -> LinearOperatorRepr:
    """A B - B A."""
    _require_same_size(a, b)
    return LinearOperatorRepr(a.matrix @ b.matrix - b.matrix @ a.matrix)


def commutator_spectrum(size: int) -> SpectrumResult:
    """Eigenvalues of [P, O], ascending by imaginary part.

    Diagonalizes the hermitian matrix -i*[P, O] by cyclic Jacobi rotations
    and multiplies the real spectrum back by i, so the result is purely
    imaginary by construction.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    comm = _commutator_matrix(size)
    h = -1j * comm
    h = (h + h.conj().T) / 2.0
    real_values, vectors = hermitian_eigensystem(h)
    eigenvalues = 1j * real_values
    residual = float(
        np.max(np.linalg.norm(comm @ vectors - vectors * eigenvalues[None, :], axis=0))
    )
    bound = SPECTRUM_RESIDUAL_FACTOR * float(np.linalg.norm(comm))
    if residual > bound:
        raise NumericalConsistencyError(
            f"eigenpair residual {residual!r} exceeds {bound!r}"
        )
    return SpectrumResult(eigenvalues=eigenvalues, residual=residual)


def uncertainty_product_report(state: NormalizedState) -> UncertaintyReport:
    """Every per-record observable of one state, matrix-free.

    The owner amplitudes A = F Phi give the distributions |Phi|^2 and
    |A|^2; O Phi = F^-1(k A), and for hermitian P and O the bound
    |<[P, O]>|/2 is |Im<P Phi, O Phi>|. Raises InvariantViolationError if
    the product undercuts the bound by more than the numerical slack (a
    bug signal, the relation holds for every state).
    """
    size = state.size
    levels = np.arange(size)
    owner_amps = plan_for(size, "forward").apply(state.values)
    prob_price = np.abs(state.values) ** 2
    prob_owner = np.abs(owner_amps) ** 2
    mean_price, d_price = _moments(levels, prob_price)
    mean_owner, d_owner = _moments(levels, prob_owner)
    owner_image = plan_for(size, "inverse").apply(levels * owner_amps)
    bound = abs(float(np.vdot(levels * state.values, owner_image).imag))
    product = d_price * d_owner
    if product < bound - ROBERTSON_SLACK:
        raise InvariantViolationError(
            f"uncertainty product {product!r} undercuts bound {bound!r}"
        )
    return UncertaintyReport(
        prob_price=prob_price,
        prob_owner=prob_owner,
        mean_price=mean_price,
        mean_owner=mean_owner,
        delta_price=d_price,
        delta_owner=d_owner,
        product=product,
        bound=bound,
        saturated=(product - bound) < SATURATION_WINDOW,
    )


def _moments(levels: np.ndarray, probs: np.ndarray) -> tuple[float, float]:
    """Mean and spread; the variance is summed about the mean, because
    <n^2> - <n>^2 cancels to noise for a near-point distribution."""
    mean = float(np.dot(levels, probs))
    return mean, float(np.sqrt(np.dot(probs, (levels - mean) ** 2)))
