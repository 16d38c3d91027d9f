"""Unitary finite Fourier transform between the price and owner bases.

Both directions carry the 1/sqrt(N) factor, so the transform is unitary:
the forward kernel is exp(-2*pi*i*k*n/N), the inverse exp(+2*pi*i*k*n/N).
``forward`` and ``inverse`` are numpy's FFT with orthonormal scaling
at every N, O(N log N) for any N, primes included.
The observables take the same transform, so |forward(phi)|^2 is the
owner distribution bit for bit.

An owner-diagonal operator F^-1 diag(d) F is circulant: the dense form
is ``circulant_matrix``, O(N^2) from one inverse FFT of d, and
``circulant`` builds the products of a (K, N) stack of diagonals in one
call, each a cyclic convolution: that matrix's ``dot`` on small
lattices, else one FFT pair, of length N or, when N has a large prime
factor, over the two rows of length L of a convolution zero-padded to
2L. L is the length with no prime factor above 11 in [N, N + N // 16]
whose pair pocketfft runs fastest by a fitted pass-cost model
(PASS_COST). The window is that wide because the two padded kicks
retain ~112 B per level times L / N, and 120 B are allowed. In four
sweeps of 62 random padded N in [67, 20000] each, the pair at that L
took a median 0.93-0.95 of the time of the pair at the least such
length, and none more than 1.04. The FFT products check the shape of
their input and transform in place: a length-N product inverts into its
own forward spectrum, and the padded products of one call share one
staging buffer, whose tail each re-zeroes, and one twist table, so only
their responses cost memory per diagonal and a call allocates its
output.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError
from .lattice import LatticeFunction

__all__ = [
    "forward",
    "inverse",
]

# A circulant is its dense matrix up to here, an FFT pair beyond. The
# product beats np.fft's per-call overhead (1.7-4x at N = 8..128 on
# numpy 2.4, x86-64); a low cutoff keeps each matrix small.
NAIVE_CUTOFF = 32
# pocketfft has hard-coded passes for these primes; a larger prime factor
# takes a generic O(p) pass, or Bluestein (three FFTs of a length
# >= 2N - 1).
FAST_RADICES = (2, 3, 5, 7, 11)
# The modelled time of the FFT pair over (2, L), L with no prime factor
# above 11, is L times the sum of one weight per pass of pocketfft's
# factorization of L (radix 8 while it divides, then 4, then 2, then each
# odd prime), times ALIASED_COST when 1024 divides L: such lengths ran
# ~12% slower than their passes predict, the one pattern left in the
# residuals (likely cache-set conflicts between a pass's strided
# streams). The weights are fitted once, relative to radix 8, by least
# squares on the log time ratios of the 5822 pairs of such L within 6.25%
# of each other in [64, 22000]. The times are the geometric mean of two
# sweeps of the best of 15 interleaved rounds of the pair at each of the
# 666 lengths (numpy 2.4, x86-64, pocketfft's per-call scratch from the
# heap, not fresh pages). One unit is ~7.2 ns per level:
#
#   radix    8     4     2     3     5     7     11    1024 | L
#   weight  1.00  0.71  0.57  0.71  0.93  1.17  1.63   x 1.12
#
# The model's time ratios err by 5.2% rms over those pairs, against 10.4%
# for "the smaller L is faster". At N = 1031 it picks 1056 = 2^5 * 3 * 11:
#
#   L               1050    1056    1078    1080    1089
#   pair (us)       43.8    40.5    45.2    40.3    47.7
#   model (units)   4526    4277    4894    4385    5097
PASS_COST = {8: 1.0, 4: 0.71, 2: 0.57, 3: 0.71, 5: 0.93, 7: 1.17, 11: 1.63}
ALIASED_COST = 1.12
# A circulant keeps length N while no prime factor of N exceeds this, and
# is zero-padded beyond it. Timed on numpy 2.4, x86-64, as whole products
# at N = p * 4 and p * 16, best of 15 interleaved rounds, the padded one
# at _padded_length(N): for p = 13..43 the length-N product is 1.0-1.3x
# faster, at p = 47 the two tie (0.94 and 1.01), at p = 53..61 the padded
# one is 1.02-1.13x faster, and it wins by 1.1-1.3x at p = 67..83,
# 1.3-1.6x at p = 89..113 (2.3-2.4x at 101 * 4 and 107 * 4) and 2.6-3.5x
# at p = 127. The limit stays at 61: below it the padded products gain at
# most 13%, and a pair of them retains ~112 B per level, a length-N pair 32.
UNPADDED_PRIME_LIMIT = 61


def _has_factors_at_most(n: int, limit: int) -> bool:
    for d in range(2, limit + 1):
        while n % d == 0:
            n //= d
    return n == 1


def _smooth_lengths(low: int, high: int) -> list[int]:
    """The lengths in [low, high] with no prime factor above 11, ascending:
    the products 2^a 3^b 5^c 7^d 11^e, some 3000 below 2.2e6, not a trial
    division of every integer."""
    lengths = [1]
    for prime in FAST_RADICES:
        grown = []
        for length in lengths:
            while length <= high:
                grown.append(length)
                length *= prime
        lengths = grown
    return sorted(length for length in lengths if length >= low)


def _pair_cost(length: int) -> float:
    """The modelled time of the FFT pair over (2, length), in PASS_COST
    units, for a length with no prime factor above 11."""
    per_level, rest = 0.0, length
    for radix in PASS_COST:  # pocketfft's order of passes
        while rest % radix == 0:
            rest //= radix
            per_level += PASS_COST[radix]
    return length * per_level * (ALIASED_COST if length % 1024 == 0 else 1.0)


def _padded_length(size: int) -> int:
    """The half length L of a padded product at N = size: the 11-smooth L
    in [N, N + N // 16] of least _pair_cost, the smaller on a tie. The
    window holds such an L for every N >= 62 (checked up to 2^26)."""
    candidates = _smooth_lengths(size, size + size // 16)
    return min(candidates, key=lambda length: (_pair_cost(length), length))


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
    M = 2L, L = _padded_length(N), whose first N entries are the cyclic one,
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
    half = _padded_length(size)
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

