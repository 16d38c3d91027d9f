import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    values = gamma_state(ThetaParams(0.8, 21)).values
    assert np.all(values.imag == 0.0)
    assert np.all(values.real > 0.0)
    for n in range(1, 21):
        assert values[n] == pytest.approx(values[21 - n], rel=1e-15)


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
    kappa=st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
)
def test_comb_duality_property(size, kappa):
    # F[Upsilon_kappa] = Upsilon_{1/kappa} for every N and width
    out = forward(upsilon_state(ThetaParams(kappa, size)))
    dual = upsilon_state(ThetaParams(1.0 / kappa, size))
    assert np.max(np.abs(out.values - dual.values)) < 1e-12


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
