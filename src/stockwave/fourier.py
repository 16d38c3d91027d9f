"""Unitary finite Fourier transform between the price and owner bases.

Both directions carry the 1/sqrt(N) factor, so the transform is unitary:
the forward kernel is exp(-2*pi*i*k*n/N), the inverse exp(+2*pi*i*k*n/N).
Small lattices are transformed by the defining O(N^2) matrix product,
which doubles as the reference path for every size. Larger ones go
through numpy's FFT with orthonormal scaling, which costs O(N log N) for
any N, primes included. The kernel's phase table is indexed with integer
arithmetic reduced mod N before any trig call, so large index products
never lose precision.

``circulant`` builds an owner-diagonal operator F^-1 diag(d) F once and
applies it as a single cyclic convolution: a dense N x N product on small
lattices, otherwise one FFT pair, zero-padded to a fast length when N has
a large prime factor.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DimensionError
from .lattice import LatticeFunction

# Defining matrix product up to here, np.fft beyond. The product beats
# np.fft's per-call overhead (1.7-4x at N = 8..128 on numpy 2.4, x86-64);
# a low cutoff keeps the cached dense kernels small.
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


def _kernel(size: int, direction: str) -> tuple[np.ndarray, np.ndarray]:
    """Phase table exp(-+2*pi*i*j/N) and the unitary kernel matrix it indexes."""
    if size < 1:
        raise ValueError("size must be >= 1")
    sign = -1 if direction == "forward" else +1
    phases = np.exp(sign * 2j * np.pi / size * np.arange(size))
    defect = float(np.max(np.abs(np.abs(phases) - 1.0)))
    if defect > PHASE_TABLE_TOL:
        raise ValueError(f"phase table off the unit circle by {defect!r}")
    k = np.arange(size)
    return phases, phases[np.outer(k, k) % size] / np.sqrt(size)


def dft_matrix(size: int, direction: str = "forward") -> np.ndarray:
    """Dense unitary kernel: entry (k, n) is exp(-+2*pi*i*k*n/N)/sqrt(N)."""
    return _kernel(size, direction)[1]


class FourierPlan:
    """Transform for one lattice size and one direction.

    ``method`` picks the execution path: "direct" applies the defining
    kernel matrix, "fft" calls np.fft with orthonormal scaling, "auto"
    defers to the size cutoff. Plans are immutable and safe to share.
    """

    def __init__(self, size: int, direction: str = "forward", method: str = "auto"):
        if size < 1:
            raise ValueError("size must be >= 1")
        if direction not in ("forward", "inverse"):
            raise ValueError(f"unknown direction {direction!r}")
        if method == "auto":
            method = "direct" if size <= NAIVE_CUTOFF else "fft"
        if method not in ("direct", "fft"):
            raise ValueError(f"unknown method {method!r}")
        self.size = size
        self.direction = direction
        self.method = method
        if method == "direct":
            self.phases, self._matrix = _kernel(size, direction)
            self.phases.setflags(write=False)
            self._matrix.setflags(write=False)
        else:
            self._fft = np.fft.fft if direction == "forward" else np.fft.ifft

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.complex128)
        # np.fft would silently transform any length
        if values.shape != (self.size,):
            raise DimensionError(
                f"plan for size {self.size} applied to shape {values.shape}"
            )
        if self.method == "direct":
            return self._matrix @ values
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


def circulant(diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The operator x -> F^-1 diag(diagonal) F x, built once.

    It is the cyclic convolution of x with c = ifft(diagonal). Up to
    NAIVE_CUTOFF it is one dense N x N matrix. Above, it is one FFT pair:
    of length N with response ``diagonal`` while N's prime factors stay
    within UNPADDED_PRIME_LIMIT, else of the smallest fast length
    M >= 2N - 1 with the wrapped kernel (c[0..N-1] at the front, c[1..N-1]
    at the tail), so the linear convolution's first N entries are the
    cyclic one. The choice depends on N alone. Returns the apply function.
    """
    diagonal = np.asarray(diagonal, dtype=np.complex128)
    if diagonal.ndim != 1 or diagonal.size < 1:
        raise DimensionError(f"circulant diagonal has shape {diagonal.shape}")
    size = diagonal.size
    kernel = np.fft.ifft(diagonal)
    matrix = None
    if size <= NAIVE_CUTOFF:
        index = np.arange(size)
        matrix = kernel[np.subtract.outer(index, index) % size]
    elif _has_factors_at_most(size, UNPADDED_PRIME_LIMIT):
        length, response = size, diagonal
    else:
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
            return matrix @ values
        return np.fft.ifft(np.fft.fft(values, length) * response)[:size]

    return apply


@lru_cache(maxsize=64)
def plan_for(size: int, direction: str = "forward", method: str = "auto") -> FourierPlan:
    return FourierPlan(size, direction, method)


def forward(phi, plan: FourierPlan | None = None) -> LatticeFunction:
    """Map price amplitudes to owner amplitudes."""
    if plan is None:
        plan = plan_for(phi.size, "forward")
    elif plan.direction != "forward":
        raise ValueError("forward() needs a forward plan")
    return LatticeFunction(plan.apply(phi.values))


def inverse(psi, plan: FourierPlan | None = None) -> LatticeFunction:
    """Map owner amplitudes back to price amplitudes."""
    if plan is None:
        plan = plan_for(psi.size, "inverse")
    elif plan.direction != "inverse":
        raise ValueError("inverse() needs an inverse plan")
    return LatticeFunction(plan.apply(psi.values))


def forward_naive(phi) -> LatticeFunction:
    """Reference path: the defining double sum, no acceleration."""
    return LatticeFunction(plan_for(phi.size, "forward", "direct").apply(phi.values))
