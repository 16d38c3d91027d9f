"""Unitary finite Fourier transform between the price and owner bases.

Both directions carry the 1/sqrt(N) factor, so the transform is unitary:
the forward kernel is exp(-2*pi*i*k*n/N), the inverse exp(+2*pi*i*k*n/N).
``forward`` and ``inverse`` are numpy's FFT with orthonormal scaling
at every N, O(N log N) for any N, primes included.
The observables take the same transform, so |forward(phi)|^2 is the
owner distribution bit for bit. The defining O(N^2) matrix,
``dft_matrix``, is the reference path: its phase table is indexed with
integer arithmetic reduced mod N before any trig call, so large index
products never lose precision. np.exp of an imaginary argument keeps
each phase within one ulp of the unit circle, which the tests check
rather than each call.

An owner-diagonal operator F^-1 diag(d) F is circulant: the dense form
is ``circulant_matrix``, O(N^2) from one inverse FFT of d, and
``circulant`` builds the products of a (K, N) stack of diagonals in one
call, each a cyclic convolution: that matrix's ``dot`` on small
lattices, else one FFT pair, of length N or, when N has a large prime
factor, over the two rows of length L of a convolution zero-padded to
2L, L >= N a fast length. The FFT products check the shape of their
input and transform in place: a length-N product inverts into its own
forward spectrum, and the padded products of one call share one staging
buffer, whose tail each re-zeroes, and one twist table, so only their
responses cost memory per diagonal and a call allocates its output.
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
# pocketfft has hard-coded passes for the primes up to this one; a larger
# prime factor takes a generic O(p) pass, or Bluestein (three FFTs of a
# length >= 2N - 1).
FAST_RADIX_LIMIT = 11
# A circulant keeps length N while no prime factor of N exceeds this, and
# is zero-padded beyond it. Timed on numpy 2.4, x86-64, N = p * 4 and
# p * 16 against the padded two-row pair: for p = 13..47 the length-N
# pair is 1.0-1.5x faster, for p = 53..61 the two are within 15% either
# way, and the padded pair wins by 1.0-1.4x at p = 67..83, 1.3-1.5x at
# p = 89..113 (2.2x at 101 * 4 and 107 * 4), 2.2-3.3x at p = 127 and
# 3.0x at N = 1031.
UNPADDED_PRIME_LIMIT = 61


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


def circulant(diagonals: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """The products x -> F^-1 diag(d) F x, one per row d of a (K, N) stack
    of diagonals, built together.

    Each is the cyclic convolution of x with c = ifft(d). Up to
    NAIVE_CUTOFF it is ``circulant_matrix(d).dot``. Above, it is one FFT
    pair: of length N with response d while N's prime factors stay within
    UNPADDED_PRIME_LIMIT, else the linear convolution with the wrapped
    kernel (c[0..N-1] at the front, c[1..N-1] at the tail) zero-padded to
    M = 2L, L = _fast_length(N), whose first N entries are the cyclic one,
    as one pair of length L over two rows. The realization depends on N
    alone, so it is chosen once for the whole stack. The dense products
    are returned bare: callers pass arrays of shape (N,). An FFT product
    raises DimensionError for any other shape, which np.fft would pad or
    cut silently. An FFT product transforms in buffers it holds, so it
    allocates only its output: the length-N one inverts into its own
    forward spectrum; the padded ones of one call share one twist table
    and one (2, L) staging buffer, which each fills, re-zeroes in its
    L - N tail and transforms in place, and differ only in their (2, L)
    response. So no two products of one call may run at once, as from two
    threads.
    """
    diagonals = np.asarray(diagonals, dtype=np.complex128)
    if diagonals.ndim != 2 or diagonals.size < 1:
        raise DimensionError(f"circulant diagonals have shape {diagonals.shape}")
    size = diagonals.shape[1]
    if size <= NAIVE_CUTOFF:
        # .dot skips @'s dispatch: 0.8 against 1.2 us
        return tuple(circulant_matrix(diagonal).dot for diagonal in diagonals)

    def checked(values: np.ndarray) -> np.ndarray:
        if values.shape != (size,):
            raise DimensionError(f"circulant of size {size} given shape {values.shape}")
        return values

    if _has_factors_at_most(size, UNPADDED_PRIME_LIMIT):
        def unpadded(diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
            def apply(values: np.ndarray) -> np.ndarray:
                spectrum = np.fft.fft(checked(values))
                spectrum *= diagonal
                return np.fft.ifft(spectrum, out=spectrum)

            return apply

        return tuple(map(unpadded, diagonals))
    # R = FFT_M(wrapped kernel). As x fills the first half, FFT_M(x) is
    # FFT_L(x) at the even bins and FFT_L(w x) at the odd ones, with
    # w[n] = exp(-i pi n / L), and the first N entries of IFFT_M(R FFT_M(x))
    # are (IFFT_L(R_even X_even) + conj(w) IFFT_L(R_odd X_odd)) / 2. The
    # 1/2 goes into the response; so does the sign of conj(w[n]) =
    # -w[L - n], which lets one table of w[0..L] serve both twists.
    half = _fast_length(size)
    table = np.exp(-1j * np.pi / half * np.arange(half + 1))
    twist, untwist = table[:size], table[half:half - size:-1]
    staged = np.empty((2, half), dtype=np.complex128)
    head, tail = staged[:, :size], staged[:, size:]

    def padded(diagonal: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        # one diagonal at a time, so no temporary spans the whole stack
        kernel = np.fft.ifft(diagonal)
        spectrum = np.fft.fft(np.concatenate((kernel, np.zeros(2 * (half - size) + 1), kernel[1:])))
        response = np.stack((0.5 * spectrum[0::2], -0.5 * spectrum[1::2]))

        def apply(values: np.ndarray) -> np.ndarray:
            head[0] = checked(values)
            np.multiply(values, twist, out=head[1])
            tail[...] = 0.0  # the last product left its convolution there
            np.fft.fft(staged, out=staged)
            np.multiply(staged, response, out=staged)
            np.fft.ifft(staged, out=staged)
            result = head[1] * untwist
            result += head[0]
            return result

        return apply

    return tuple(map(padded, diagonals))


def forward(phi) -> LatticeFunction:
    """Map price amplitudes to owner amplitudes."""
    return LatticeFunction(np.fft.fft(phi.values, norm="ortho"))


def inverse(psi) -> LatticeFunction:
    """Map owner amplitudes back to price amplitudes."""
    return LatticeFunction(np.fft.ifft(psi.values, norm="ortho"))


def forward_naive(phi) -> LatticeFunction:
    """Reference path: the defining double sum, its kernel built per call."""
    return LatticeFunction(dft_matrix(phi.size) @ phi.values)
