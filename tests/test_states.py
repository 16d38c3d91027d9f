import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stockwave import (
    PacketParams,
    ThetaParams,
    delta_state,
    forward,
    gamma_state,
    gaussian_packet,
    price_operator,
    theta3,
    uncertainty,
    upsilon_state,
)
from helpers import primes_to


def test_theta3_at_origin_matches_direct_sum():
    # oracle: explicit 50-term symmetric summation
    expected = 1.0 + 2.0 * sum(math.exp(-math.pi * a * a) for a in range(1, 51))
    assert theta3(0.0, 1.0) == pytest.approx(expected, abs=1e-15)
    assert theta3(0.0, 1.0) == pytest.approx(1.0864348112, abs=1e-10)


def test_theta3_periodic_in_z():
    rng = np.random.default_rng(41)
    for t in (0.5, 1.0, 2.0, 3.0):
        for _ in range(5):
            z = float(rng.uniform(-3.0, 3.0))
            assert theta3(z + 1.0, t) == pytest.approx(theta3(z, t), abs=1e-11)


def test_theta3_modular_identity():
    for t in (0.5, 2.0, 3.0):
        assert theta3(0.0, t) == pytest.approx(theta3(0.0, 1.0 / t) / math.sqrt(t), abs=1e-11)


def test_theta3_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        theta3(0.3, 0.0)
    with pytest.raises(ValueError):
        theta3(0.3, -1.0)


def test_theta3_rejects_t_needing_more_than_a_million_terms():
    # the series needs up to sqrt(ln(2e16) / (pi t)) terms: hours of work
    # at t = 1e-20
    for t in (1.19e-11, 1e-12, 1e-20, 5e-324):
        with pytest.raises(ValueError, match="10\\^6 terms"):
            theta3(0.3, t)
    assert theta3(0.0, 1e-6) == pytest.approx(theta3(0.0, 1e6) / math.sqrt(1e-6), rel=1e-12)


def test_theta_params_reject_kappa_whose_reciprocal_overflows():
    for kappa in (1e-310, 5.56e-309):  # subnormal; 1/kappa is inf
        with pytest.raises(ValueError, match="overflows"):
            ThetaParams(kappa, 21)
    # the dual comb's exponent rate pi/kappa must be finite too
    with pytest.raises(ValueError, match="pi/kappa overflows"):
        ThetaParams(1e-308, 21)
    assert upsilon_state(ThetaParams(1e-300, 21)).size == 21
    smallest = math.pi / sys.float_info.max
    while not math.isfinite(math.pi / smallest):
        smallest = math.nextafter(smallest, 1.0)
    with pytest.raises(ValueError, match="pi/kappa overflows"):
        ThetaParams(math.nextafter(smallest, 0.0), 21)
    comb = upsilon_state(ThetaParams(smallest, 21)).values
    assert np.allclose(comb, 1.0 / math.sqrt(21), rtol=0.0, atol=1e-15)


@pytest.mark.filterwarnings("error")
def test_huge_kappa_comb_is_a_point_state():
    # kappa * pi overflowed to a NaN comb; a large finite exponent to an
    # overflow warning, though exp's limit, 0, is the right value
    with pytest.raises(ValueError, match="kappa\\*pi overflows"):
        ThetaParams(1e308, 8)
    for kappa in (2.03e306, 5e307):
        assert np.array_equal(upsilon_state(ThetaParams(kappa, 8)).values, delta_state(0, 8).values)


def test_gamma_matches_theta_route():
    # gamma_kappa(n) = theta3(n/N, 1/(kappa*N)) / sqrt(kappa*N), computed
    # here from the series rather than the translate sum
    for kappa in (0.5, 1.0, 2.5):
        size = 21
        values = gamma_state(ThetaParams(kappa, size)).values
        for n in range(size):
            via_theta = theta3(n / size, 1.0 / (kappa * size)) / math.sqrt(kappa * size)
            assert abs(values[n] - via_theta) < 1e-12


def test_gamma_is_real_positive_and_symmetric():
    # 0.02 and 1e-14 are below unit width at N = 21, 1e-14 at the prime
    # 1031. Those combs come through an FFT, symmetric to its rounding: up
    # to 1.6e-15 relative where the length is a large prime (Bluestein).
    for size in (21, 1031):
        for kappa in (0.8, 0.02, 1e-14):
            values = gamma_state(ThetaParams(kappa, size)).values
            assert np.all(values.imag == 0.0)
            assert np.all(values.real > 0.0)
            rel = 1e-15 if kappa * size >= 1.0 else 4e-15
            for n in range(1, size):
                assert values[n] == pytest.approx(values[size - n], rel=rel)


def test_gamma_fourier_scaling():
    # F[gamma_kappa] = gamma_{1/kappa} / sqrt(kappa)
    kappa, size = 2.0 / 3.0, 21
    out = forward(gamma_state(ThetaParams(kappa, size)))
    dual = gamma_state(ThetaParams(1.0 / kappa, size)).values / math.sqrt(kappa)
    assert np.max(np.abs(out.values - dual)) < 1e-10


def test_upsilon_fixed_point_and_duality():
    size = 21
    fixed = upsilon_state(ThetaParams(1.0, size))
    assert np.max(np.abs(forward(fixed).values - fixed.values)) < 1e-10
    out = forward(upsilon_state(ThetaParams(2.0 / 3.0, size)))
    dual = upsilon_state(ThetaParams(1.5, size))
    assert np.max(np.abs(out.values - dual.values)) < 1e-10


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    size=st.one_of(st.integers(1, 512), st.sampled_from(primes_to(512))),
    kappa=st.floats(math.log(1e-12), math.log(20.0)).map(math.exp),
)
def test_comb_duality_property(size, kappa):
    # F[Upsilon_kappa] = Upsilon_{1/kappa} for every N and width
    out = forward(upsilon_state(ThetaParams(kappa, size)))
    dual = upsilon_state(ThetaParams(1.0 / kappa, size))
    assert np.max(np.abs(out.values - dual.values)) < 1e-12


@st.composite
def _sub_unit_combs(draw):
    size = draw(st.one_of(st.integers(1, 512), st.sampled_from(primes_to(512)), st.just(2**16)))
    kappa = math.exp(draw(st.floats(math.log(1e-300), math.log(1.0 / size), exclude_max=True)))
    assume(kappa * size < 1.0)
    return size, kappa


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(comb=_sub_unit_combs())
def test_comb_below_unit_width_is_its_theta_series(comb):
    # kappa*N < 1 is built from the dual comb; the theta series, level by
    # level, is the oracle
    size, kappa = comb
    t = 1.0 / (kappa * size)
    series = np.array([theta3(n / size, t) for n in range(size)]) / math.sqrt(kappa * size)
    values = gamma_state(ThetaParams(kappa, size)).values
    assert np.all(values.imag == 0.0)
    assert np.max(np.abs(values.real - series) / series) < 1e-14


def test_comb_below_unit_width_needs_no_theta_series(monkeypatch):
    def refuse(z, t):
        raise AssertionError("theta3 is an oracle, not a builder")

    monkeypatch.setattr("stockwave.reference.theta3", refuse)
    for size in (1, 2, 21, 1031):
        for kappa in (0.5 / size, 1e-7, 1e-300):
            comb = upsilon_state(ThetaParams(kappa, size)).values
            assert np.all(comb.real > 0.0)


def test_tiny_kappa_comb_memory_is_bounded():
    # the translate sum would need ~8e6 translates per level here
    size = 21
    upsilon_state(ThetaParams(1e-14, size))  # one-time allocations
    tracemalloc.start()
    try:
        comb = upsilon_state(ThetaParams(1e-14, size))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert np.allclose(comb.values, 1.0 / math.sqrt(size), rtol=0.0, atol=1e-15)


def test_upsilon_normalized():
    for kappa in (0.1, 1.0, 10.0):
        values = upsilon_state(ThetaParams(kappa, 21)).values
        assert float(np.sum(np.abs(values) ** 2)) == pytest.approx(1.0, abs=1e-13)


def test_packet_modulus_is_shifted_upsilon():
    size, kappa, n0, k0 = 21, 2.0 / 3.0, 7, 14
    packet = gaussian_packet(PacketParams(ThetaParams(kappa, size), n0, k0))
    ups = upsilon_state(ThetaParams(kappa, size)).values.real
    n = np.arange(size)
    assert np.allclose(np.abs(packet.values) ** 2, ups[(n - n0) % size] ** 2, atol=1e-14)


def test_packet_fourier_phase_law():
    # F[Psi](k) = exp(2*pi*i*(k0-k)*n0/N) * Upsilon_{1/kappa}((k-k0) mod N)
    size, kappa, n0, k0 = 21, 2.0 / 3.0, 7, 14
    packet = gaussian_packet(PacketParams(ThetaParams(kappa, size), n0, k0))
    out = forward(packet).values
    dual = upsilon_state(ThetaParams(1.0 / kappa, size)).values.real
    k = np.arange(size)
    expected = np.exp(2j * np.pi * (k0 - k) * n0 / size) * dual[(k - k0) % size]
    assert np.max(np.abs(out - expected)) < 1e-10


def test_packet_without_shift_or_modulation_is_upsilon():
    params = PacketParams(ThetaParams(0.9, 13), 0, 0)
    packet = gaussian_packet(params)
    assert np.array_equal(packet.values, upsilon_state(params.theta).values)


def test_theta_lattice_duality():
    # theta3(k/N, i*kappa/N) = sum_n exp(-2*pi*i*k*n/N) *
    #                          theta3(n/N, i/(kappa*N)) / sqrt(kappa*N)
    size = 21
    for kappa in (0.5, 1.0, 2.0):
        samples = np.array([theta3(n / size, 1.0 / (kappa * size)) for n in range(size)])
        k = np.arange(size)[:, None]
        n = np.arange(size)[None, :]
        transformed = (np.exp(-2j * np.pi * k * n / size) @ samples) / math.sqrt(kappa * size)
        direct = np.array([theta3(kk / size, kappa / size) for kk in range(size)])
        assert np.max(np.abs(transformed - direct)) < 1e-10


def test_width_shrinks_with_kappa():
    # measured on the mid-lattice-centered comb so the literal price values
    # track the comb width instead of the wraparound split
    size = 21
    price_op = price_operator(size)
    spreads = []
    for kappa in (0.25, 0.5, 1.0, 2.0, 4.0):
        packet = gaussian_packet(PacketParams(ThetaParams(kappa, size), 10, 0))
        spreads.append(uncertainty(price_op, packet))
    assert all(a >= b for a, b in zip(spreads, spreads[1:]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        ThetaParams(0.0, 21)
    with pytest.raises(ValueError):
        ThetaParams(-1.0, 21)
    with pytest.raises(ValueError):
        PacketParams(ThetaParams(1.0, 21), 21, 0)
    with pytest.raises(ValueError):
        PacketParams(ThetaParams(1.0, 21), 0, -1)
    with pytest.raises(IndexError):
        delta_state(21, 21)
    with pytest.raises(IndexError):
        delta_state(-1, 21)
