"""Shared test utilities."""
import numpy as np

from stockwave import LatticeFunction, NormalizedState, dft_matrix, normalize


def primes_to(limit: int) -> list:
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def random_lattice_function(rng, size: int) -> LatticeFunction:
    return LatticeFunction(rng.normal(size=size) + 1j * rng.normal(size=size))


def random_state(rng, size: int) -> NormalizedState:
    return normalize(random_lattice_function(rng, size))


def defining_ownership(size: int) -> np.ndarray:
    # F^-1 diag(k) F by dense products: the definition, no circulant shortcut
    k = np.diag(np.arange(size, dtype=np.complex128))
    return dft_matrix(size, "inverse") @ k @ dft_matrix(size, "forward")


def defining_commutator(size: int) -> np.ndarray:
    p = np.diag(np.arange(size, dtype=np.complex128))
    o = defining_ownership(size)
    return p @ o - o @ p


def random_symmetric(rng, size: int) -> np.ndarray:
    m = rng.normal(size=(size, size))
    return (m + m.T) / 2.0


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    # Faddeev-LeVerrier; independent of any eigensolver
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)
