"""Price and ownership operators, their spectra, and block observables.

The price operator multiplies by the lattice index; the ownership
operator is its conjugate under the finite Fourier transform, the
circulant F^-1 diag(k) F. Their commutator (m - n) O[m, n] is
anti-hermitian with purely imaginary eigenvalues that cluster near
i*N/(2*pi) for large N.

The observables are matrix-free, O(N) memory and O(N log N) work per
state. ``block_observables`` takes a (B, N) block of states, as evolve
buffers them, through np.fft along the last axis and row sums, and
returns the tuple (prob_price, prob_owner, summary): both (B, N)
distributions and the (B, 6) scalar columns. Each row is bitwise what a
block of one gives; a single state is B = 1. This module only computes:
which rows are valid records, and the Robertson check that decides it,
live in ``evolution._observed``. The spectrum needs no N x N matrix:
``commutator_spectrum`` diagonalizes two real half blocks gathered from
the commutator's closed-form symbol. The dense N x N operators act as
oracles; they are built per call in O(N^2), with no matrix product and
no cache. Their one guard is ``expectation``'s (sizes, hermiticity, a
real mean), and ``uncertainty`` takes its mean from it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import _symmetric_eigensystem
from .errors import ContractError, DimensionError, NumericalConsistencyError
from .fourier import circulant_matrix
from .lattice import NormalizedState

HERMITICITY_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
# Relative: a report is saturated once product - bound is at most this
# share of the product, so two spreads of round-off are not saturated
# merely because their product is tiny.
SATURATION_WINDOW = 1e-6
SPECTRUM_RESIDUAL_FACTOR = 1e-8
# Largest lattice for the spectrum path. commutator_spectrum peaks at
# about 12-15 B per N^2, its two real N/2 x N/2 blocks and their Jacobi
# work arrays (tracemalloc after a warm-up: 14.5 at N = 101, 12.0 at
# N = 1024 and 2048): 12 B * 2048^2 = 48 MiB of a 1 GiB budget. Time
# bounds it, not memory: one BLAS thread, 2-core x86-64 VM, 15 s at
# N = 1024 and 74 s at N = 2048.
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

    def is_hermitian(self) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return self.hermiticity_defect() <= HERMITICITY_TOL * scale


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Commutator eigenvalues sorted by imaginary part, plus the worst
    eigenpair residual max ||M v - lambda v|| over the half blocks M of
    -i[P, O], which equals that of [P, O] up to rounding."""

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

    @property
    def saturated(self) -> bool:
        """Whether the product meets the bound, within SATURATION_WINDOW."""
        return self.product - self.bound <= SATURATION_WINDOW * self.product


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


def _half_problems(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of T, the real symmetric Toeplitz matrix
    with -i[P, O] = D T D^H, D = diag(exp(-i pi m / N)).

    T[m, n] = t(|m - n|), t(0) = 0, t(d) = -d / (2 sin(pi min(d, N - d) / N));
    the range reduction keeps sin accurate for d near N. T is
    centrosymmetric, so with h = N // 2, A = T[:h, :h] and B = T[:h, N-h:]
    with its columns reversed, its spectrum is that of A + B and A - B;
    for odd N the even block is bordered by sqrt(2) T[:h, h] and T[h, h] = 0.
    """
    d = np.arange(1, size)
    symbol = np.zeros(size)
    symbol[1:] = -d / (2.0 * np.sin(np.pi * np.minimum(d, size - d) / size))
    m = np.arange(size // 2)
    a = symbol[np.abs(m[:, None] - m)]
    b = symbol[size - 1 - m[:, None] - m]
    even, odd = a + b, a - b
    if size % 2:
        border = np.sqrt(2.0) * symbol[size // 2 - m]
        even = np.block([[even, border[:, None]], [border, 0.0]])
    return even, odd


def commutator_spectrum(size: int) -> SpectrumResult:
    """Eigenvalues of [P, O], ascending by imaginary part.

    Builds no N x N matrix: the real spectrum of -i[P, O] is that of the
    two real symmetric half blocks of ``_half_problems``, each diagonalized
    by cyclic Jacobi rotations; the merged values are multiplied by i, so
    the result is purely imaginary by construction. The residual is taken
    on the halves, which D and the even/odd split carry unitarily onto
    [P, O]; its bound uses their joint Frobenius norm, ||[P, O]||_F.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    blocks = _half_problems(size)
    values, residual = [], 0.0
    for block in blocks:
        block_values, vectors = _symmetric_eigensystem(block)
        values.append(block_values)
        misfit = np.linalg.norm(block @ vectors - vectors * block_values, axis=0)
        residual = max(residual, float(np.max(misfit)))
    bound = SPECTRUM_RESIDUAL_FACTOR * float(np.hypot(*map(np.linalg.norm, blocks)))
    if residual > bound:
        raise NumericalConsistencyError(
            f"eigenpair residual {residual!r} exceeds {bound!r}"
        )
    return SpectrumResult(eigenvalues=1j * np.sort(np.concatenate(values)), residual=residual)


def block_observables(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every per-record observable of each row of a (B, N) block of states:
    (prob_price, prob_owner, summary), the (B, N) distributions and the
    (B, 6) scalar columns in UncertaintyReport order, mean_price to bound.

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
    summary = np.column_stack((mean_price, mean_owner, d_price, d_owner, d_price * d_owner, bound))
    return prob_price, prob_owner, summary


def _moments(levels: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row means and spreads; the variance is summed about the mean,
    because <n^2> - <n>^2 cancels to noise for a near-point distribution."""
    mean = (levels * probs).sum(axis=-1)
    deviation = levels - mean[:, None]
    deviation *= deviation
    deviation *= probs
    return mean, np.sqrt(deviation.sum(axis=-1))
