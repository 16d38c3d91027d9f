import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stockwave import (
    DimensionError,
    LatticeFunction,
    NormalizedState,
    ThetaParams,
    delta_state,
    dft_matrix,
    forward,
    forward_naive,
    inner_product,
    inverse,
    norm,
    owner_distribution,
    upsilon_state,
)
from stockwave.fourier import (
    NAIVE_CUTOFF,
    UNPADDED_PRIME_LIMIT,
    _fast_length,
    circulant,
    circulant_matrix,
)
from stockwave.operators import block_observables
from stockwave.reference import _phases
from helpers import primes_to, random_lattice_function


def test_forward_delta0_is_constant():
    out = forward(delta_state(0, 4))
    assert np.allclose(out.values, 0.5 * np.ones(4), atol=1e-15)


def test_forward_delta_matches_kernel():
    size, m = 21, 7
    out = forward(delta_state(m, size))
    k = np.arange(size)
    expected = np.exp(-2j * np.pi * k * m / size) / np.sqrt(size)
    assert np.allclose(out.values, expected, atol=1e-14)
    assert np.allclose(np.abs(out.values) ** 2, 1.0 / size, atol=1e-12)


def test_forward_maps_upsilon_to_dual():
    out = forward(upsilon_state(ThetaParams(2.0 / 3.0, 21)))
    dual = upsilon_state(ThetaParams(1.5, 21))
    assert np.max(np.abs(out.values - dual.values)) < 1e-10


def test_inverse_delta_is_owner_eigenfunction():
    size, m = 21, 6
    out = inverse(delta_state(m, size).base)
    n = np.arange(size)
    expected = np.exp(2j * np.pi * m * n / size) / np.sqrt(size)
    assert np.allclose(out.values, expected, atol=1e-14)


def test_inverse_constant_is_delta0():
    size = 16
    out = inverse(LatticeFunction(np.ones(size) / np.sqrt(size)))
    assert out.values[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(out.values[1:])) < 1e-14


def test_naive_agrees_with_fast_path():
    rng = np.random.default_rng(17)
    for size in (1, 2, 8, 21, 33, 64, 100, 1031):
        kernel_inverse = dft_matrix(size, "inverse")
        for _ in range(100):
            phi = random_lattice_function(rng, size)
            fast = forward(phi).values
            slow = forward_naive(phi).values
            assert np.max(np.abs(fast - slow)) < 1e-11
            back = inverse(phi).values
            assert np.max(np.abs(back - kernel_inverse @ phi.values)) < 1e-11


def test_naive_delta0_n9():
    out = forward_naive(delta_state(0, 9))
    assert np.allclose(out.values, np.ones(9) / 3.0, atol=1e-15)


def test_forward_naive_keeps_no_kernel():
    # a cached 1500-level kernel would pin 16 * 1500^2 B = 34 MiB
    phi = LatticeFunction(np.ones(1500))
    tracemalloc.start()
    try:
        forward_naive(phi)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_naive_preserves_norm():
    rng = np.random.default_rng(23)
    for _ in range(20):
        phi = random_lattice_function(rng, 21)
        assert norm(forward_naive(phi)) == pytest.approx(norm(phi), abs=1e-12)


def test_unitarity_of_inner_products():
    rng = np.random.default_rng(29)
    for size in (13, 21, 64):
        phi = random_lattice_function(rng, size)
        psi = random_lattice_function(rng, size)
        lhs = inner_product(forward(phi), forward(psi))
        rhs = inner_product(phi, psi)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert norm(forward(phi)) == pytest.approx(norm(phi), abs=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    size=st.one_of(st.integers(1, 4096), st.sampled_from(primes_to(4096))),
    direction=st.sampled_from(["forward", "inverse"]),
)
def test_phase_tables_on_unit_circle(size, direction):
    # the table alone: the kernel it fills is N^2, 256 MiB at N = 4096
    phases = _phases(size, direction)
    assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-14
    if size <= 64:
        assert np.array_equal(dft_matrix(size, direction)[1 % size], phases / np.sqrt(size))


def test_dft_matrix_rejects_unknown_direction():
    with pytest.raises(ValueError):
        dft_matrix(8, "sideways")


def test_dft_matrix_is_unitary():
    for size in (5, 21):
        f = dft_matrix(size, "forward")
        assert np.max(np.abs(f @ f.conj().T - np.eye(size))) < 1e-13
        assert np.allclose(dft_matrix(size, "inverse"), f.conj().T, atol=1e-15)


PRIMES_TO_512 = primes_to(512)
PRIMES_TO_2100 = primes_to(2100)
SMOOTH_TO_2100 = [n for n in range(1, 2101) if _fast_length(n) == n]


def _unit_state(seed, size):
    values = random_lattice_function(np.random.default_rng(seed), size).values
    return values / np.linalg.norm(values)


def _kick_by_defining_sums(diagonal, values):
    size = values.size
    owner = dft_matrix(size, "forward") @ values
    return dft_matrix(size, "inverse") @ (diagonal * owner)


def _check_circulant(size, seed):
    rng = np.random.default_rng(seed)
    diagonal = np.exp(-1j * rng.uniform(-50.0, 50.0) * np.arange(size) ** 2 / size)
    values = _unit_state(seed, size)
    values.setflags(write=False)  # the FFT products transform in their own buffers
    before = values.copy()
    out = circulant(diagonal[None])[0](values)
    assert np.array_equal(values.view(np.uint8), before.view(np.uint8))
    assert out.shape == (size,)
    assert np.max(np.abs(out - _kick_by_defining_sums(diagonal, values))) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-13


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    size=st.one_of(
        st.integers(1, 2 * NAIVE_CUTOFF),
        st.integers(1, 2100),
        st.sampled_from(PRIMES_TO_2100),
        st.sampled_from([2 * p for p in PRIMES_TO_2100 if p <= 1050]),
        st.sampled_from(SMOOTH_TO_2100),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_circulant_matches_defining_sums(size, seed):
    _check_circulant(size, seed)


@pytest.mark.parametrize(
    "size",
    [
        1,
        21,
        NAIVE_CUTOFF,  # dense
        NAIVE_CUTOFF + 1,
        34,
        64,
        2 * UNPADDED_PRIME_LIMIT,  # length N
        67,  # padded to M = 2L = 140
        83,  # padded to M = 168: L = N + 1, the least slack
        1031,
        2062,  # padded: a prime and twice a prime
        2063,  # an odd half length, L = 2079
    ],
)
def test_circulant_realizations_match_defining_sums(size):
    _check_circulant(size, size)


def test_circulant_padded_lengths():
    assert [_fast_length(n) for n in (1, 13, 133, 2061, 4123)] == [1, 14, 135, 2079, 4125]
    assert _fast_length(1031) == 1050  # the half length L of a padded product at N = 1031


OTHER_SHAPES = [
    lambda n: (1,), lambda n: (n - 1,), lambda n: (n + 1,), lambda n: (2 * n,), lambda n: (1, n),
]


@pytest.mark.parametrize("shape", OTHER_SHAPES, ids=[f"shape{i}" for i in range(len(OTHER_SHAPES))])
def test_padded_circulant_rejects_other_shapes(shape):
    # np.fft would pad or cut these silently, and the padded product's
    # staging buffer would broadcast a single value. The length-N products
    # at 64 and 2 * UNPADDED_PRIME_LIMIT take the same check as the padded
    # one at 1031; the sizes are looped, so each shape keeps one test id
    for size in (64, 2 * UNPADDED_PRIME_LIMIT, 1031):
        apply = circulant(np.exp(-1j * np.arange(size) ** 2 / size)[None])[0]
        with pytest.raises(DimensionError):
            apply(np.ones(shape(size), dtype=np.complex128))


@pytest.mark.parametrize("size", [2 * UNPADDED_PRIME_LIMIT, 1031, 2063])
def test_products_of_one_build_do_not_leak_into_each_other(size):
    # K(dt/2) and K(dt) of one build, alternating as between two records;
    # the padded pair (1031, 2063) shares one staging buffer and twist table
    diagonals = np.exp(-1j * np.outer([0.5, 1.0], np.arange(size) ** 2) / size)
    products = circulant(diagonals)
    values = _unit_state(size, size)
    for call in range(20):
        expected = _kick_by_defining_sums(diagonals[call % 2], values)
        values = products[call % 2](values)
        assert np.max(np.abs(values - expected)) < 1e-12


def test_padded_kicks_keep_the_norm_over_a_long_run():
    size = 1031
    kick = circulant(np.exp(-0.5j * 0.01 * np.arange(size) ** 2)[None])[0]  # K(dt), mu = 1
    values = _unit_state(7, size)
    for _ in range(2000):
        values = kick(values)
    assert abs(np.linalg.norm(values) - 1.0) < 1e-12


def test_circulant_matrix_indexes_the_kernel():
    diagonal = np.exp(1j * np.arange(7) ** 2 / 3.0)
    kernel = np.fft.ifft(diagonal)
    matrix = circulant_matrix(diagonal)
    for m in range(7):
        for n in range(7):
            assert matrix[m, n] == kernel[(m - n) % 7]


def test_circulant_size_mismatch():
    with pytest.raises(DimensionError):
        circulant(np.ones((1, 2, 2)))
    with pytest.raises(DimensionError):  # one diagonal, not a stack of them
        circulant(np.ones(4))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    size=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES_TO_512)),
    seed=st.integers(0, 2**32 - 1),
)
def test_auto_transforms_keep_norm_and_have_period_four(size, seed):
    phi = LatticeFunction(_unit_state(seed, size))
    owner = forward(phi)
    for out in (owner, inverse(phi)):
        assert abs(np.linalg.norm(out.values) - 1.0) < 1e-12
    # the observables' transform, bit for bit
    probs = np.abs(owner.values) ** 2
    assert np.array_equal(probs, owner_distribution(NormalizedState(phi)).probs)
    assert np.array_equal(probs, block_observables(phi.values[None])[1][0])
    # a unit state, so the bounds are relative to the norm
    assert np.max(np.abs(inverse(owner).values - phi.values)) < 1e-14
    fourth = phi
    for _ in range(4):
        fourth = forward(fourth)
    assert np.max(np.abs(fourth.values - phi.values)) < 1e-12
