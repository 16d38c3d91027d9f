"""Unitary finite Fourier transform between the price and owner bases.

Both directions carry the 1/sqrt(N) factor, so the transform is unitary:
the forward kernel is exp(-2*pi*i*k*n/N), the inverse exp(+2*pi*i*k*n/N).
``forward``, ``inverse`` and ``FourierPlan`` are numpy's FFT with
orthonormal scaling at every N, O(N log N) for any N, primes included.
The observables take the same transform, so |forward(phi)|^2 is the
owner distribution bit for bit. The defining O(N^2) matrix,
``dft_matrix``, is the reference path: its phase table is indexed with
integer arithmetic reduced mod N before any trig call, so large index
products never lose precision.

An owner-diagonal operator F^-1 diag(d) F is circulant: the dense form
is ``circulant_matrix``, O(N^2) from one inverse FFT of d, and
``circulant`` applies it as a cyclic convolution (that matrix on small
lattices, else one FFT pair, zero-padded when N has a large prime factor).
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError
from .lattice import LatticeFunction

# A circulant is its dense matrix up to here, an FFT pair beyond. The
# product beats np.fft's per-call overhead (1.7-4x at N = 8..128 on
# numpy 2.4, x86-64); a low cutoff keeps each matrix small.
NAIVE_CUTOFF = 32
PHASE_TABLE_TOL = 1e-14
# pocketfft has hard-coded passes for the primes up to this one; a larger
# prime factor takes a generic O(p) pass, or Bluestein (three FFTs of a
# length >= 2N - 1).
FAST_RADIX_LIMIT = 11
# A circulant keeps length N while no prime factor of N exceeds this, and
# is zero-padded beyond it. Timed on numpy 2.4, x86-64, N = p * 4 and
# p * 16: for p = 13..43 the length-N pair is 1.0-1.7x faster than the
# padded one, for p = 53..83 the two are within 15%, and the padded pair
# wins by 1.2-1.3x at p = 97, 2.1-2.7x at p = 127 and 2.5x at N = 1031.
UNPADDED_PRIME_LIMIT = 61


def dft_matrix(size: int, direction: str = "forward") -> np.ndarray:
    """Dense unitary kernel: entry (k, n) is exp(-+2*pi*i*k*n/N)/sqrt(N),
    indexed from a phase table checked to lie on the unit circle."""
    if size < 1:
        raise ValueError("size must be >= 1")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = -1 if direction == "forward" else +1
    phases = np.exp(sign * 2j * np.pi / size * np.arange(size))
    defect = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if defect > PHASE_TABLE_TOL:
        raise ValueError(f"phase table off the unit circle by {defect!r}")
    k = np.arange(size)
    return phases[np.outer(k, k) % size] / np.sqrt(size)


class FourierPlan:
    """Transform for one lattice size and one direction: np.fft with
    orthonormal scaling, applied only to vectors of that size."""

    def __init__(self, size: int, direction: str = "forward"):
        if size < 1:
            raise ValueError("size must be >= 1")
        if direction not in ("forward", "inverse"):
            raise ValueError(f"unknown direction {direction!r}")
        self.size = size
        self.direction = direction
        self._fft = np.fft.fft if direction == "forward" else np.fft.ifft

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        # np.fft would silently transform any length
        if values.shape != (self.size,):
            raise DimensionError(
                f"plan for size {self.size} applied to shape {values.shape}"
            )
        return self._fft(values, norm="ortho")


def _has_factors_at_most(n: int, limit: int) -> bool:
    for d in range(2, limit + 1):
        while n % d == 0:
            n //= d
    return n == 1


def _fast_length(n: int) -> int:
    """Smallest length >= n with no prime factor above FAST_RADIX_LIMIT."""
    while not _has_factors_at_most(n, FAST_RADIX_LIMIT):
        n += 1
    return n


def circulant_matrix(diagonal) -> np.ndarray:
    """Dense F^-1 diag(diagonal) F for a 1-d diagonal: entry (m, n) is
    c[(m - n) mod N] with c = ifft(diagonal). O(N^2), no matrix product."""
    kernel = np.fft.ifft(np.asarray(diagonal, dtype=np.complex128))
    index = np.arange(kernel.size)
    return kernel[np.subtract.outer(index, index) % kernel.size]


def circulant(diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The operator x -> F^-1 diag(diagonal) F x, built once.

    It is the cyclic convolution of x with c = ifft(diagonal). Up to
    NAIVE_CUTOFF it is ``circulant_matrix``. Above, it is one FFT pair: of
    length N with response ``diagonal`` while N's prime factors stay
    within UNPADDED_PRIME_LIMIT, else of the smallest fast length
    M >= 2N - 1 with the wrapped kernel (c[0..N-1] at the front, c[1..N-1]
    at the tail), so the linear convolution's first N entries are the
    cyclic one. The choice depends on N alone. Returns the apply function.
    """
    diagonal = np.asarray(diagonal, dtype=np.complex128)
    if diagonal.ndim != 1 or diagonal.size < 1:
        raise DimensionError(f"circulant diagonal has shape {diagonal.shape}")
    size = diagonal.size
    matrix = None
    if size <= NAIVE_CUTOFF:
        matrix = circulant_matrix(diagonal)
    elif _has_factors_at_most(size, UNPADDED_PRIME_LIMIT):
        length, response = size, diagonal
    else:
        kernel = np.fft.ifft(diagonal)
        length = _fast_length(2 * size - 1)
        wrapped = np.zeros(length, dtype=np.complex128)
        wrapped[:size] = kernel
        wrapped[length - size + 1:] = kernel[1:]
        response = np.fft.fft(wrapped)

    def apply(values: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        # np.fft would silently pad or cut any other length
        if values.shape != (size,):
            raise DimensionError(f"circulant of size {size} applied to shape {values.shape}")
        if matrix is not None:
            return matrix.dot(values)  # skips @'s dispatch: 0.8 against 1.2 us
        return np.fft.ifft(np.fft.fft(values, length) * response)[:size]

    return apply


def forward(phi) -> LatticeFunction:
    """Map price amplitudes to owner amplitudes."""
    return LatticeFunction(np.fft.fft(phi.values, norm="ortho"))


def inverse(psi) -> LatticeFunction:
    """Map owner amplitudes back to price amplitudes."""
    return LatticeFunction(np.fft.ifft(psi.values, norm="ortho"))


def forward_naive(phi) -> LatticeFunction:
    """Reference path: the defining double sum, its kernel built per call."""
    return LatticeFunction(dft_matrix(phi.size) @ phi.values)
