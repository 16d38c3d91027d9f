"""Named states: point prices, Gaussian combs, and modulated packets.

The comb

    gamma_kappa(n) = sum_m exp(-kappa*pi/N * (m*N + n)^2)

is N-periodic, positive in exact arithmetic (entries far from a peak may
underflow to 0), and expressible through the theta series as
gamma_kappa(n) = theta3(n/N, i/(kappa*N)) / sqrt(kappa*N). Its transform
stays in the family, F[gamma_kappa] = gamma_{1/kappa} / sqrt(kappa), so
the normalized comb Upsilon_kappa = gamma_kappa / ||gamma_kappa||
satisfies F[Upsilon_kappa] = Upsilon_{1/kappa}. That duality is also how
a comb wider than one lattice spacing (kappa*N < 1) is built: as the
transform of its narrow dual, so every comb is one short translate sum
and ``theta3`` serves only as an oracle. A packet

    Psi(n) = exp(2*pi*i*k0*n/N) * Upsilon_kappa(n - n0)

localizes the price near n0 and the owner near k0 at the same time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import LatticeFunction, NormalizedState, normalize

THETA_RELATIVE_CUTOFF = 1e-16  # first omitted theta term vs partial sum
COMB_TERM_FLOOR = 1e-18        # first omitted comb translate


@dataclass(frozen=True)
class ThetaParams:
    """Width parameter kappa > 0 and lattice size N."""

    kappa: float
    size: int

    def __post_init__(self):
        if not (self.kappa > 0.0) or not math.isfinite(self.kappa):
            raise ValueError("kappa must be a positive finite real")
        if self.size < 1:
            raise ValueError("size must be >= 1")
        # the exponent rates of the comb and of its dual, which builds it for
        # kappa*N < 1: the range is symmetric under kappa -> 1/kappa
        if not math.isfinite(math.pi / self.kappa):
            raise ValueError(f"kappa {self.kappa!r} is so small that pi/kappa overflows")
        if not math.isfinite(self.kappa * math.pi):
            raise ValueError(f"kappa {self.kappa!r} is so large that kappa*pi overflows")


@dataclass(frozen=True)
class PacketParams:
    """Comb parameters plus the price center n0 and owner center k0."""

    theta: ThetaParams
    n0: int
    k0: int

    def __post_init__(self):
        n = self.theta.size
        if not 0 <= self.n0 < n:
            raise ValueError(f"n0 must lie in [0, {n}), got {self.n0}")
        if not 0 <= self.k0 < n:
            raise ValueError(f"k0 must lie in [0, {n}), got {self.k0}")


def delta_state(m: int, size: int) -> NormalizedState:
    """Certain price m: unit amplitude at index m, zero elsewhere."""
    if not 0 <= m < size:
        raise IndexError(f"m must lie in [0, {size}), got {m}")
    values = np.zeros(size, dtype=np.complex128)
    values[m] = 1.0
    return NormalizedState(LatticeFunction(values))


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


def _translate_window(rate: float, size: int) -> int:
    # Smallest M whose first omitted translate (m = -(M+1) at n = N-1,
    # exponent argument (M*N + 1)^2) is already below the floor.
    m = 1
    while math.exp(-rate / size * (m * size + 1) ** 2) >= COMB_TERM_FLOOR:
        m += 1
    return m


def _translate_sum(rate: float, size: int) -> np.ndarray:
    """sum_m exp(-rate/N * (m*N + n)^2) over the translates above the floor:
    the comb of kappa = rate/pi."""
    window = _translate_window(rate, size)
    n = np.arange(size)[:, None]
    m = np.arange(-window, window + 1)[None, :]
    with np.errstate(over="ignore"):  # an exponent of -inf gives exp's limit, 0
        return np.exp(-rate / size * (m * size + n) ** 2).sum(axis=1)


def gamma_state(params: ThetaParams) -> LatticeFunction:
    """Unnormalized Gaussian comb; real, and positive in exact arithmetic;
    entries far from a peak may underflow to 0.

    For kappa*N >= 1 it is the translate sum, a few translates wide. Below
    that the translates would number ~1/(kappa*N), so the comb is built
    from its dual instead, gamma_kappa = F^-1[gamma_{1/kappa}] / sqrt(kappa):
    the dual has (1/kappa)*N > N, so its translate sum is at most a few
    translates wide too, and one inverse FFT follows.
    """
    kappa, size = params.kappa, params.size
    if kappa * size < 1.0:
        dual = _translate_sum(math.pi / kappa, size)
        return LatticeFunction(np.fft.ifft(dual, norm="ortho").real / math.sqrt(kappa))
    return LatticeFunction(_translate_sum(kappa * math.pi, size))


def upsilon_state(params: ThetaParams) -> NormalizedState:
    """Normalized Gaussian comb Upsilon_kappa."""
    return normalize(gamma_state(params))


def gaussian_packet(params: PacketParams) -> NormalizedState:
    """Comb recentered at price n0 and modulated toward owner k0."""
    size = params.theta.size
    comb = upsilon_state(params.theta).values
    n = np.arange(size)
    shifted = comb[(n - params.n0) % size]
    phases = np.exp(2j * np.pi / size * ((params.k0 * n) % size))
    return NormalizedState(LatticeFunction(phases * shifted))
