import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stockwave import (
    DegenerateStateError,
    DimensionError,
    EvolutionParams,
    LatticeFunction,
    NormalizedState,
    PacketParams,
    ProbabilityVector,
    ThetaParams,
    ZeroPotential,
    delta_state,
    gamma_state,
    gaussian_packet,
    inner_product,
    inverse,
    norm,
    normalize,
    owner_distribution,
    price_distribution,
    upsilon_state,
)
from stockwave.evolution import record_blocks
from stockwave.lattice import NORMALIZATION_TOL
from helpers import random_lattice_function, random_state


def test_delta_basis_orthonormality():
    d3 = delta_state(3, 8)
    d5 = delta_state(5, 8)
    assert inner_product(d3, d3) == 1.0 + 0.0j
    assert inner_product(d3, d5) == 0.0 + 0.0j


def test_inner_product_hand_case():
    # conj(1)*i + conj(i)*1 = i - i = 0
    phi = LatticeFunction([1.0, 1.0j])
    psi = LatticeFunction([1.0j, 1.0])
    assert inner_product(phi, psi) == pytest.approx(0.0, abs=1e-15)


def test_inner_product_size_mismatch():
    with pytest.raises(DimensionError):
        inner_product(LatticeFunction([1.0, 0.0]), LatticeFunction([1.0, 0.0, 0.0]))


def test_inner_product_sesquilinear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi = random_lattice_function(rng, 13)
        chi = random_lattice_function(rng, 13)
        psi = random_lattice_function(rng, 13)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        combo = LatticeFunction(a * phi.values + b * chi.values)
        lhs = inner_product(combo, psi)
        rhs = np.conj(a) * inner_product(phi, psi) + np.conj(b) * inner_product(chi, psi)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_norm_delta_and_zero():
    assert norm(delta_state(4, 9)) == 1.0
    assert norm(LatticeFunction(np.zeros(5))) == 0.0


def test_norm_gamma_matches_long_sum_oracle():
    # oracle: brute-force translate sum with ~10000 terms, then a direct norm
    size, kappa = 21, 1.0
    n = np.arange(size)[:, None]
    m = np.arange(-5000, 5001)[None, :]
    brute = np.exp(-kappa * np.pi / size * (m * size + n) ** 2).sum(axis=1)
    expected = float(np.sqrt((brute**2).sum()))
    assert norm(gamma_state(ThetaParams(kappa, size))) == pytest.approx(expected, rel=1e-13)


def test_normalize_rescales_delta():
    doubled = LatticeFunction(2.0 * delta_state(4, 9).values)
    result = normalize(doubled)
    assert np.allclose(result.values, delta_state(4, 9).values, atol=0, rtol=0)


def test_normalize_uniform():
    result = normalize(LatticeFunction(np.ones(4)))
    assert np.allclose(result.values, 0.5 * np.ones(4), atol=1e-15)


def test_normalize_gamma_gives_upsilon():
    params = ThetaParams(0.7, 21)
    gamma = gamma_state(params)
    ups = upsilon_state(params)
    assert np.allclose(normalize(gamma).values, ups.values, atol=0, rtol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, expected", [
    # the squares overflowed, leaving a norm of inf and a ValueError
    ([1e200, 1e200, 0.0], [0.5**0.5, 0.5**0.5, 0.0]),
    ([1.7e308 + 1.7e308j, -1.7e308], [(1 + 1j) / 3**0.5, -1 / 3**0.5]),
    # the squares underflowed to a zero norm
    ([1e-200, 1e-170, 0.0], [1e-30, 1.0, 0.0]),
    # a subnormal square gave a norm 5% off and a ValueError
    ([3e-162, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ([5e-324, 0.0], [1.0, 0.0]),
])
def test_normalize_accepts_any_finite_magnitude(values, expected):
    result = normalize(LatticeFunction(values))
    assert np.allclose(result.values, expected, rtol=1e-15, atol=0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values, expected", [
    # the squares overflowed: a warning and a norm of inf
    ([1e200, 1e200, 0.0], math.hypot(1e200, 1e200)),
    ([1e308j, -1e308], math.hypot(1e308, 1e308)),
    # the squares underflowed to a zero norm
    ([1e-200, 1e-200j], math.hypot(1e-200, 1e-200)),
    # a subnormal square gave a norm 5% off
    ([3e-162, 0.0, 0.0], 3e-162),
    ([0.0, 5e-324], 5e-324),
    # the norm itself is beyond the float range
    ([1.7e308 + 1.7e308j, -1.7e308], math.inf),
])
def test_norm_accepts_any_finite_magnitude(values, expected):
    assert norm(LatticeFunction(values)) == pytest.approx(expected, rel=1e-15, abs=0)


def lattice_functions(low, high):
    """LatticeFunctions of 1 to 64 levels whose real and imaginary parts are
    each 0.0 or +-ldexp(m, k), with 0.5 <= m < 1 and k in [low, high]."""
    parts = st.just(0.0) | st.builds(
        math.ldexp,
        st.floats(0.5, 1.0, exclude_max=True) | st.floats(-1.0, -0.5, exclude_min=True),
        st.integers(low, high),
    )
    pairs = hnp.arrays(np.float64, st.integers(1, 64).map(lambda n: 2 * n), elements=parts)
    return pairs.map(lambda p: LatticeFunction(p.view(np.complex128)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(lattice_functions(-1073, 996))
def test_norm_and_normalize_hold_from_subnormal_to_1e300(phi):
    # parts from 5e-324 to 6.7e299, tiny and huge mixed in one function
    expected = math.hypot(*phi.values.view(np.float64))
    # at n levels, the sum of 2n squares and its sqrt are within (n + 3) / 2
    # ulps; add half an ulp where ldexp rounds to a subnormal, and one for
    # hypot's own rounding
    assert abs(norm(phi) - expected) <= (phi.size + 6) / 2 * math.ulp(expected)
    if expected == 0.0:
        with pytest.raises(DegenerateStateError):
            normalize(phi)
    else:
        unit = normalize(phi).values.view(np.float64)
        assert abs(math.hypot(*unit) - 1.0) <= NORMALIZATION_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(lattice_functions(-331, 332))
def test_normalize_of_ordinary_magnitudes_is_the_plain_quotient(phi):
    # parts in [1e-100, 1e100]: scaled by 2^-e with e <= 333 they all stay
    # normal, so the scaling is exact and the results are bitwise the plain
    # norm and quotient
    values = phi.values
    assert norm(phi) == float(np.linalg.norm(values))
    if values.any():
        assert np.array_equal(normalize(phi).values, values / np.linalg.norm(values))


def test_normalize_zero_rejected():
    with pytest.raises(DegenerateStateError):
        normalize(LatticeFunction(np.zeros(3)))


def test_price_distribution_delta():
    probs = price_distribution(delta_state(7, 21)).probs
    assert probs[7] == 1.0
    assert np.all(probs[np.arange(21) != 7] == 0.0)


def test_price_distribution_uniform():
    state = normalize(LatticeFunction(np.ones(4)))
    assert np.allclose(price_distribution(state).probs, 0.25, atol=1e-15)


def test_packet_price_distribution_peaks_at_n0():
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))
    probs = price_distribution(packet).probs
    assert int(np.argmax(probs)) == 7


def test_owner_distribution_delta_is_uniform():
    probs = owner_distribution(delta_state(7, 21)).probs
    assert np.allclose(probs, 1.0 / 21.0, atol=1e-12)


def test_owner_distribution_of_owner_eigenstate():
    eigen = inverse(delta_state(5, 21))
    probs = owner_distribution(NormalizedState(eigen.values)).probs
    assert probs[5] == pytest.approx(1.0, abs=1e-12)
    mask = np.arange(21) != 5
    assert np.all(probs[mask] < 1e-12)


def test_packet_owner_distribution_peaks_at_k0():
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))
    probs = owner_distribution(packet).probs
    assert int(np.argmax(probs)) == 14


def test_distributions_sum_to_one():
    rng = np.random.default_rng(7)
    for size in (5, 21, 40):
        state = random_state(rng, size)
        assert float(price_distribution(state).probs.sum()) == pytest.approx(1.0, abs=1e-12)
        assert float(owner_distribution(state).probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_delta_basis_completeness():
    rng = np.random.default_rng(3)
    state = random_state(rng, 12)
    rebuilt = np.zeros(12, dtype=complex)
    for m in range(12):
        basis = delta_state(m, 12)
        rebuilt += inner_product(basis, state) * basis.values
    assert np.array_equal(rebuilt, state.values)


def test_lattice_function_rejects_bad_values():
    with pytest.raises(ValueError):
        LatticeFunction([1.0, np.nan])
    with pytest.raises(ValueError):
        LatticeFunction([1.0, np.inf * 1j])
    with pytest.raises(ValueError):
        LatticeFunction([])
    with pytest.raises(ValueError, match="non-empty 1-d sequence"):
        LatticeFunction(1.0)


def test_lattice_function_is_immutable():
    phi = LatticeFunction([1.0, 2.0])
    with pytest.raises(ValueError):
        phi.values[0] = 5.0


def test_normalized_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        NormalizedState([1.0, 1.0])


def test_a_state_is_a_lattice_function():
    # one state type: a unit-norm LatticeFunction with no field of its own
    assert issubclass(NormalizedState, LatticeFunction)
    assert dataclasses.fields(NormalizedState) == dataclasses.fields(LatticeFunction)
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))
    for state in (delta_state(3, 8), normalize(LatticeFunction(np.ones(4))), packet):
        assert type(state) is NormalizedState
        assert isinstance(state, LatticeFunction)


def test_normalized_state_copies_its_input_read_only():
    x = np.array([0.6, 0.8j])
    state = NormalizedState(x)
    x[0] = 5.0
    assert state.values.tolist() == [0.6, 0.8j]
    with pytest.raises(ValueError):
        state.values[0] = 1.0


def test_normalized_state_rejects_bad_values():
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        NormalizedState([1.0, np.nan])
    with pytest.raises(ValueError, match="non-empty 1-d sequence"):
        NormalizedState([[1.0]])
    with pytest.raises(ValueError, match="non-empty 1-d sequence"):
        NormalizedState(1.0)
    with pytest.raises(ValueError, match="state is not normalized"):
        NormalizedState([0.6, 0.6])


def test_record_states_view_their_block():
    params = EvolutionParams(mu=1.0, dt=0.1, steps=3)
    (block,) = record_blocks(delta_state(2, 5), params, ZeroPotential())
    for row, record in zip(block.states, block.records()):
        assert type(record.state) is NormalizedState
        assert np.shares_memory(record.state.values, row)


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector([0.5, 0.6])
    with pytest.raises(ValueError):
        ProbabilityVector([-0.1, 1.1])
    vec = ProbabilityVector([0.25, 0.75])
    assert vec.mean() == pytest.approx(0.75)


def test_probability_sum_tolerance_is_the_norm_budget():
    # a state within the evolve norm budget passes; beyond it still raises
    budget = 1e-8
    ProbabilityVector([0.5, 0.5 + 2.0 * budget])
    with pytest.raises(ValueError, match="probabilities sum to"):
        ProbabilityVector([0.5, 0.5 + 2.1 * budget])
