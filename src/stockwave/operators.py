"""Price and ownership operators, their spectra, and block observables.

The price operator multiplies by the lattice index; the ownership
operator is its conjugate under the finite Fourier transform, the
circulant F^-1 diag(k) F. Their commutator (m - n) O[m, n] is
anti-hermitian with purely imaginary eigenvalues that cluster near
i*N/(2*pi) for large N.

The observables are matrix-free, O(N) memory and O(N log N) work per
state. ``block_observables`` takes a (B, N) block of states, as evolve
buffers them, through np.fft along the last axis and row sums, and
returns them as arrays: both (B, N) distributions and the per-row scalar
columns. Each row is bitwise what a block of one gives; a single state is
B = 1. This module only computes: which rows are valid records, and the
Robertson check that decides it, live in ``evolution._observed``. The
dense N x N operators serve the spectrum path and act as oracles; they
are built per call in O(N^2), with no matrix product and no cache.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import hermitian_eigensystem
from .errors import ContractError, DimensionError, NumericalConsistencyError
from .fourier import circulant_matrix
from .lattice import NormalizedState

HERMITICITY_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
# Relative: a report is saturated once product - bound is at most this
# share of the product, so two spreads of round-off are not saturated
# merely because their product is tiny.
SATURATION_WINDOW = 1e-6
# The scalar columns of a block's observables, in UncertaintyReport order.
SUMMARY_COLUMNS = ("mean_price", "mean_owner", "delta_price", "delta_owner", "product", "bound")
SPECTRUM_RESIDUAL_FACTOR = 1e-8
# Largest lattice for the dense spectrum path. commutator_spectrum peaks
# at about seven live N x N complex matrices (tracemalloc after a warm-up,
# 7.3 at N = 24, 7.0 at N = 128): 7 * 16 B * 2048^2 = 448 MiB of a 1 GiB
# budget. Memory is not what makes N = 2048 slow; the Jacobi sweeps are.
MAX_DENSE_SIZE = 2048
# Largest lattice for a scenario; state, uncertainty and evolve are O(N).
# Their CLI peak (tracemalloc after a warm-up, N in {1024, 1031, 4099,
# 16411}, primes zero-padded) is largest for a JSON evolve of a custom
# state under a modulated tabulated trap (a comb at kappa*N = 1: ~70 B
# less): ~600 B per level from N = 4099, where a record block holds one
# record, and ~890 B at N = 1031, where it holds three and the sink's
# lists of a block (at most 2^12 amplitudes) weigh more per level.
# 600 B * 2^20 = 600 MiB of the same 1 GiB budget.
MAX_LATTICE_SIZE = 2**20


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


@dataclass(frozen=True, eq=False)
class BlockObservables:
    """The observables of a (B, N) block of states, one row per state: both
    (B, N) distributions, the (B, 6) scalar columns in SUMMARY_COLUMNS
    order and the (B,) saturation flags; unchecked."""

    prob_price: np.ndarray
    prob_owner: np.ndarray
    summary: np.ndarray
    saturated: np.ndarray


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
    """(m - n) O[m, n], exactly anti-hermitian since O is exactly hermitian."""
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
    real_values, vectors = hermitian_eigensystem(-1j * comm)
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


def block_observables(block: np.ndarray) -> BlockObservables:
    """Every per-record observable of each row of a (B, N) block of states.

    Matrix-free and row by row independent of the block: the owner
    amplitudes A = F Phi come from np.fft along the last axis, and every
    reduction is an elementwise product summed over that axis, so a row's
    observables are bitwise the same in a block of one. The distributions
    are |Phi|^2 and |A|^2; O Phi = F^-1(k A), and for hermitian P and O the
    bound |<[P, O]>|/2 is |Im<P Phi, O Phi>|. The transforms'
    intermediates are freed on return; products are formed in place where
    a buffer is done. Nothing is checked here: see ``evolution._observed``.
    """
    levels = np.arange(block.shape[-1])
    owner_amps = np.fft.fft(block, axis=-1, norm="ortho")
    prob_price = np.abs(block) ** 2
    prob_owner = np.abs(owner_amps) ** 2
    mean_price, d_price = _moments(levels, prob_price)
    mean_owner, d_owner = _moments(levels, prob_owner)
    owner_amps *= levels
    owner_image = np.fft.ifft(owner_amps, axis=-1, norm="ortho")  # O Phi
    del owner_amps
    # Im<P Phi, O Phi> = sum_n n (Re Phi Im O Phi - Im Phi Re O Phi)
    cross = block.real * owner_image.imag
    cross -= block.imag * owner_image.real
    cross *= levels
    bound = np.abs(cross.sum(axis=-1))
    product = d_price * d_owner
    saturated = product - bound <= SATURATION_WINDOW * product
    summary = np.column_stack((mean_price, mean_owner, d_price, d_owner, product, bound))
    return BlockObservables(prob_price, prob_owner, summary, saturated)


def _moments(levels: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means and spreads; the variance is summed about the mean,
    because <n^2> - <n>^2 cancels to noise for a near-point distribution."""
    mean = (levels * probs).sum(axis=-1)
    deviation = levels - mean[:, None]
    deviation *= deviation
    deviation *= probs
    return mean, np.sqrt(deviation.sum(axis=-1))
