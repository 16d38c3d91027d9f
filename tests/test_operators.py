import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from stockwave import (
    ContractError,
    DimensionError,
    LatticeFunction,
    LinearOperatorRepr,
    NormalizedState,
    PacketParams,
    ThetaParams,
    ZeroPotential,
    commutator,
    commutator_spectrum,
    delta_state,
    expectation,
    forward,
    gaussian_packet,
    inner_product,
    inverse,
    normalize,
    owner_distribution,
    ownership_operator,
    price_distribution,
    price_operator,
    static_hamiltonian,
    uncertainty,
    uncertainty_product_report,
    upsilon_state,
)
from stockwave import evolution, fourier, operators
from stockwave.operators import MAX_DENSE_SIZE, _commutator_matrix
from helpers import defining_commutator, defining_ownership, primes_to, random_state

TABLE_N21 = {1: -133.965206767811, 11: 3.342253804929, 21: 92.750113443389}


def saturating_state() -> NormalizedState:
    # alternating-sign comb centered at price 10; near-saturates the bound
    ups = upsilon_state(ThetaParams(1.0, 21)).values.real
    n = np.arange(21)
    return NormalizedState(LatticeFunction(((-1.0) ** n) * ups[(n - 10) % 21]))


def test_price_operator_diagonal_action():
    op = price_operator(8)
    target = delta_state(5, 8)
    assert np.array_equal(op.apply(target.values), 5.0 * target.values)
    assert op.is_hermitian()


def test_price_operator_trivial_size():
    assert np.array_equal(price_operator(1).matrix, np.zeros((1, 1)))
    with pytest.raises(ValueError):
        price_operator(0)


def test_price_expectation_uniform():
    state = normalize(LatticeFunction(np.ones(4)))
    assert expectation(price_operator(4), state) == pytest.approx(1.5, abs=1e-12)


def test_ownership_eigenvector():
    size, m = 21, 5
    op = ownership_operator(size)
    vec = inverse(delta_state(m, size).base).values
    assert np.max(np.abs(op.apply(vec) - m * vec)) < 1e-10
    assert op.is_hermitian()


def test_ownership_trace():
    for size in (2, 21, 40):
        trace = np.trace(ownership_operator(size).matrix)
        assert trace.real == pytest.approx(size * (size - 1) / 2.0, abs=1e-9)
        assert abs(trace.imag) < 1e-9


def test_owner_basis_coefficients_are_forward_transform():
    rng = np.random.default_rng(61)
    state = random_state(rng, 21)
    spectrum = forward(state.base).values
    for m in (0, 4, 17):
        basis = inverse(delta_state(m, 21).base)
        coeff = inner_product(basis, state.base)
        assert coeff == pytest.approx(spectrum[m], abs=1e-12)


def test_expectation_on_delta():
    for m in (0, 3, 7):
        assert expectation(price_operator(8), delta_state(m, 8)) == m


def test_expectation_packet_mean_price():
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))
    # oracle: direct first-moment sum
    brute = float(np.dot(np.arange(21), np.abs(packet.values) ** 2))
    mean = expectation(price_operator(21), packet)
    assert mean == pytest.approx(brute, abs=1e-12)
    # the comb tail wraps past price 0, which biases the literal mean by
    # ~1.6e-5; only a mid-lattice center is exactly symmetric
    assert mean == pytest.approx(7.0, abs=5e-5)
    centered = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 10, 14))
    assert expectation(price_operator(21), centered) == pytest.approx(10.0, abs=1e-9)


def test_expectation_owner_eigenstate():
    size, m = 21, 9
    state = NormalizedState(inverse(delta_state(m, size).base))
    assert expectation(ownership_operator(size), state) == pytest.approx(m, abs=1e-9)


def test_expectation_contract_errors():
    bad = LinearOperatorRepr(np.array([[0.0, 1.0], [0.0, 0.0]]))
    state = delta_state(0, 2)
    with pytest.raises(ContractError):
        expectation(bad, state)
    with pytest.raises(DimensionError):
        expectation(price_operator(3), state)


def test_uncertainty_contract_errors():
    bad = LinearOperatorRepr(np.array([[0.0, 1.0], [0.0, 0.0]]))
    state = delta_state(0, 2)
    with pytest.raises(ContractError):
        uncertainty(bad, state)
    with pytest.raises(DimensionError):
        uncertainty(price_operator(3), state)


def test_uncertainty_dispersion_free_eigenstate():
    assert uncertainty(price_operator(21), delta_state(4, 21)) == 0.0


def test_uncertainty_point_state_with_rounded_norm():
    # norm 1 - 1.1e-16: <A^2> - <A>^2 cancelled to 4e-15, a spread of 4e-7
    values = np.zeros(21, dtype=complex)
    values[20] = 1.0 - 1e-16
    state = NormalizedState(LatticeFunction(values))
    assert uncertainty(price_operator(21), state) < 1e-13


def test_uncertainty_owner_on_delta():
    # uniform owner distribution on {0..20}: variance 410/3 - 100 = 110/3
    value = uncertainty(ownership_operator(21), delta_state(3, 21))
    assert value == pytest.approx(np.sqrt(110.0 / 3.0), abs=1e-10)
    # brute-force moments of the flat distribution
    k = np.arange(21)
    brute = np.sqrt(np.mean(k**2) - np.mean(k) ** 2)
    assert value == pytest.approx(brute, abs=1e-10)


def test_uncertainty_of_saturating_state_pairs_with_bound():
    state = saturating_state()
    d_price = uncertainty(price_operator(21), state)
    d_owner = uncertainty(ownership_operator(21), state)
    assert d_price * d_owner == pytest.approx(1.6711269024646, abs=1e-9)


def test_commutator_trivial_cases():
    p = price_operator(6)
    assert np.max(np.abs(commutator(p, p).matrix)) == 0.0
    eye = LinearOperatorRepr(np.eye(6))
    o = ownership_operator(6)
    assert np.max(np.abs(commutator(eye, o).matrix)) < 1e-14
    with pytest.raises(DimensionError):
        commutator(p, ownership_operator(5))


def test_commutator_matches_triple_loop_oracle():
    size = 21
    p = price_operator(size).matrix
    o = ownership_operator(size).matrix
    # O(N^3) reference products, no vectorization
    brute = np.zeros((size, size), dtype=complex)
    for i in range(size):
        for j in range(size):
            acc = 0.0 + 0.0j
            for k in range(size):
                acc += p[i, k] * o[k, j] - o[i, k] * p[k, j]
            brute[i, j] = acc
    comm = commutator(price_operator(size), ownership_operator(size)).matrix
    assert np.max(np.abs(comm - brute)) < 1e-11
    # anti-hermitian
    assert np.max(np.abs(comm + comm.conj().T)) < 1e-10


def test_commutator_never_vanishes():
    for size in (2, 3, 8, 21):
        comm = commutator(price_operator(size), ownership_operator(size)).matrix
        assert np.linalg.norm(comm) > 0.1


def test_spectrum_table_rows_n21():
    result = commutator_spectrum(21)
    imag = result.eigenvalues.imag
    assert np.max(np.abs(result.eigenvalues.real)) < 1e-9
    assert imag[0] == pytest.approx(TABLE_N21[1], abs=1e-6)
    assert imag[10] == pytest.approx(TABLE_N21[11], abs=1e-9)
    assert imag[20] == pytest.approx(TABLE_N21[21], abs=1e-6)
    assert np.all(np.diff(imag) >= 0.0)
    comm = commutator(price_operator(21), ownership_operator(21)).matrix
    assert result.residual <= 1e-8 * np.linalg.norm(comm)


def test_spectrum_n2_traceless():
    result = commutator_spectrum(2)
    imag = result.eigenvalues.imag
    assert imag[0] == pytest.approx(-0.5, abs=1e-12)
    assert imag[1] == pytest.approx(0.5, abs=1e-12)
    assert imag.sum() == pytest.approx(0.0, abs=1e-12)


def test_spectrum_concentration_n21():
    imag = commutator_spectrum(21).eigenvalues.imag
    plateau = 21.0 / (2.0 * np.pi)
    assert int(np.sum(np.abs(imag - plateau) < 1e-3)) >= 11


def test_spectrum_matches_charpoly_oracle_at_small_n():
    from helpers import charpoly_coefficients

    for size in (2, 3, 4):
        h = -1j * commutator(price_operator(size), ownership_operator(size)).matrix
        h = (h + h.conj().T) / 2.0
        roots = np.sort(np.roots(charpoly_coefficients(h)).real)
        imag = commutator_spectrum(size).eigenvalues.imag
        assert np.max(np.abs(imag - roots)) < 1e-8


@pytest.mark.parametrize("size", [2, 3, 5, 8, 21, 64, 97, 101])
def test_spectrum_matches_lapack_on_defining_commutator(size):
    expected = np.linalg.eigvalsh(-1j * defining_commutator(size))
    imag = commutator_spectrum(size).eigenvalues.imag
    assert np.max(np.abs(imag - expected)) < 1e-9 * size


@pytest.mark.parametrize("size", [2, 3, 21, 101, 1031])
def test_commutator_is_exactly_anti_hermitian(size):
    h = -1j * _commutator_matrix(size)
    assert np.array_equal(h, h.conj().T)


@settings(derandomize=True, database=None, deadline=None)
@given(st.one_of(st.integers(1, 300), st.sampled_from(primes_to(300))))
def test_owner_diagonal_matrices_match_defining_products(size):
    # worst over N = 1..300: 4.6e-16 N, 2.9e-16 N^2 and 3.9e-16 N^2
    mu = 0.75
    o_ref = defining_ownership(size)
    assert np.max(np.abs(ownership_operator(size).matrix - o_ref)) < 1e-14 * size
    comm_error = np.max(np.abs(_commutator_matrix(size) - defining_commutator(size)))
    assert comm_error < 1e-14 * size**2
    kinetic = static_hamiltonian(size, mu, ZeroPotential(), 0.0).matrix
    assert np.max(np.abs(kinetic - o_ref @ o_ref / (2.0 * mu))) < 1e-14 * size**2


def test_transposed_circulant_builder_fails_defining_products(monkeypatch):
    # the small-N kick and exact_propagator share the builder, so the
    # integrator-vs-oracle tests cannot see this mutant; the property must
    build = fourier.circulant_matrix

    def transposed(diagonal):
        return build(diagonal).T

    for module in (fourier, operators, evolution):
        monkeypatch.setattr(module, "circulant_matrix", transposed)
    with pytest.raises(AssertionError):
        test_owner_diagonal_matrices_match_defining_products()


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.one_of(st.integers(2, 512), st.sampled_from(primes_to(512))))
def test_spectrum_splits_into_the_symbols_half_problems(size):
    # -i[P, O] = D T D^H with T[m, n] = t(|m - n|) from the closed-form
    # symbol; worst over N = 2..512: 7.3e-16 max|H| and 7.4e-13 N
    h = -1j * _commutator_matrix(size)
    levels = np.arange(size)
    d = levels[1:]
    symbol = np.concatenate(([0.0], -d / (2.0 * np.sin(np.pi * np.minimum(d, size - d) / size))))
    toeplitz = symbol[np.abs(levels[:, None] - levels)]
    phases = np.exp(-1j * np.pi * levels / size)
    assert np.max(np.abs(toeplitz - phases.conj()[:, None] * h * phases)) < 1e-14 * np.max(np.abs(h))
    halves = operators._half_problems(size)
    assert sum(len(half) for half in halves) == size
    split = np.sort(np.concatenate([np.linalg.eigvalsh(half) for half in halves]))
    assert np.max(np.abs(split - np.linalg.eigvalsh(h))) < 1e-9 * size


def test_spectrum_rejects_small_n():
    with pytest.raises(ValueError):
        commutator_spectrum(1)


def test_report_on_saturating_state():
    report = uncertainty_product_report(saturating_state())
    assert report.product == pytest.approx(1.6711269024646, abs=1e-9)
    assert report.bound == pytest.approx(1.6711269024649, abs=1e-9)
    assert report.product >= report.bound
    assert report.saturated


def test_report_on_delta():
    report = uncertainty_product_report(delta_state(6, 21))
    assert report.delta_price == 0.0
    assert report.product == 0.0
    assert report.bound == pytest.approx(0.0, abs=1e-12)


def test_saturation_window_is_relative_to_the_product():
    # a point price and a flat owner: product and bound both 0, equality
    assert uncertainty_product_report(delta_state(6, 21)).saturated
    # a flat comb: a product of round-off (~1e-14) and a bound several
    # times smaller, both far below the absolute 1e-6 that once called
    # them saturated
    report = uncertainty_product_report(upsilon_state(ThetaParams(1e-14, 21)))
    assert report.product < 1e-12
    assert not report.saturated


def test_report_random_sweep():
    rng = np.random.default_rng(67)
    for _ in range(100):
        report = uncertainty_product_report(random_state(rng, 8))
        assert report.product >= report.bound - 1e-9


@st.composite
def large_lattice_states(draw):
    """A point state or a Gaussian comb packet at N from 2^10 to 2^17."""
    size = draw(st.integers(2**10, 2**17))
    if draw(st.booleans()):
        return delta_state(draw(st.integers(0, size - 1)), size)
    theta = ThetaParams(10.0 ** draw(st.floats(-3.0, 3.0)), size)  # kappa * N >= 1
    n0, k0 = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
    return gaussian_packet(PacketParams(theta, n0, k0))


def within_half_the_slack(report):
    """bound - product is at most 2 eps ||P Phi|| ||O Phi||, half the
    rounding slack of the record check."""
    p_rms = np.hypot(report.mean_price, report.delta_price)
    o_rms = np.hypot(report.mean_owner, report.delta_owner)
    return report.bound - report.product <= 2.0 * np.finfo(np.float64).eps * p_rms * o_rms


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(large_lattice_states())
def test_report_admits_large_n_states_at_the_bound(state):
    # an absolute 1e-9 slack called these violations from about N = 6000 on
    # (point states) and N = 16411 (combs): the rounding gap grows as N^2
    assert within_half_the_slack(uncertainty_product_report(state))


@pytest.mark.parametrize("state", [
    pytest.param(lambda: gaussian_packet(PacketParams(ThetaParams(2.02, 30011), 15339, 8096)),
                 id="comb-30011"),
    pytest.param(lambda: gaussian_packet(PacketParams(ThetaParams(1.0, 2**20), 700001, 300007)),
                 id="comb-2^20"),
    pytest.param(lambda: delta_state(2**20 - 1, 2**20), id="point-2^20"),
])
def test_report_admits_the_largest_lattices(state):
    assert within_half_the_slack(uncertainty_product_report(state()))


def test_operator_repr_validation():
    with pytest.raises(ValueError):
        LinearOperatorRepr(np.ones((2, 3)))
    with pytest.raises(ValueError):
        LinearOperatorRepr(np.array([[np.nan, 0.0], [0.0, 1.0]]))


PRIMES_TO_256 = [p for p in range(2, 257) if all(p % d for d in range(2, int(p**0.5) + 1))]


@st.composite
def lattice_states(draw):
    size = draw(st.one_of(st.integers(1, 256), st.sampled_from(PRIMES_TO_256)))
    parts = draw(hnp.arrays(
        np.float64, (2, size), elements=st.floats(-1e3, 1e3, allow_subnormal=False)
    ))
    values = parts[0] + 1j * parts[1]
    assume(np.linalg.norm(values) > 1e-6)
    return normalize(LatticeFunction(values))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(lattice_states())
def test_report_matches_dense_oracle(state):
    size = state.size
    scale = max(1, size)
    p, o = price_operator(size), ownership_operator(size)
    report = uncertainty_product_report(state)
    # both sides sum deviations about the mean, so the spreads agree to
    # rounding (worst 8e-16*N over 1500 examples), point states included
    assert report.delta_price == pytest.approx(uncertainty(p, state), abs=1e-13 * scale)
    assert report.delta_owner == pytest.approx(uncertainty(o, state), abs=1e-13 * scale)
    assert report.mean_price == pytest.approx(expectation(p, state), abs=1e-12 * scale)
    assert report.mean_owner == pytest.approx(expectation(o, state), abs=1e-12 * scale)
    comm_mean = np.vdot(state.values, commutator(p, o).apply(state.values))
    assert report.bound == pytest.approx(0.5 * abs(comm_mean), abs=1e-12 * scale**2)
    assert report.product >= report.bound - 1e-9
    assert np.array_equal(report.prob_price, price_distribution(state).probs)
    assert np.array_equal(report.prob_owner, owner_distribution(state).probs)


def test_report_near_point_state_keeps_its_spread():
    # a point state with a 1.5e-8 admixture: <n^2> - <n>^2 cancels to
    # rounding noise here, which read as spread 0 and a false violation
    state = normalize(LatticeFunction(np.array([1.49011612e-08, 1.0, 0.0])))
    report = uncertainty_product_report(state)
    assert report.delta_price == pytest.approx(1.49011612e-08, rel=1e-6)
    assert report.product >= report.bound > 0.0


def test_dense_size_limit_fits_memory_budget():
    # the limit assumes the spectrum path's peak grows as N^2 from here
    size = 24
    commutator_spectrum(size)  # the first FFT's one-time allocations
    tracemalloc.start()
    try:
        commutator_spectrum(size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak * (MAX_DENSE_SIZE / size) ** 2 <= 2**30
