"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; any failure shows up as a normal pytest failure.
"""
import json
import time

import numpy as np
import pytest

from stockwave import (
    EvolutionParams,
    FourierPlan,
    HarmonicPotential,
    LatticeFunction,
    NormalizedState,
    PacketParams,
    ThetaParams,
    ZeroPotential,
    cli,
    commutator_spectrum,
    delta_state,
    evolve,
    exact_propagator,
    forward,
    forward_naive,
    gaussian_packet,
    inverse,
    theta3,
    uncertainty_product_report,
    upsilon_state,
)
from helpers import random_lattice_function, random_state

TABLE_1 = [
    -133.965206767811, -27.116000868817, 0.563232849284, 3.198831527436,
    3.337619084687, 3.342159991389, 3.342252660619, 3.342253797136,
    3.342253804904, 3.342253804929, 3.342253804929, 3.342253804929,
    3.342253804930, 3.342253805426, 3.342253907182, 3.342264884479,
    3.342954064008, 3.369561581989, 4.015171698810, 13.739015316163,
    92.750113443389,
]
EXTREME_ROWS = {1, 2, 20, 21}
PLATEAU_ROWS = set(range(5, 18))


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def test_criterion_1_table_reproduction(capsys):
    started = time.perf_counter()
    assert cli.main(["spectrum", "--n", "21"]) == 0
    elapsed = time.perf_counter() - started
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    for row, line in enumerate(lines, start=1):
        index, text = line.split(",")
        assert int(index) == row
        tolerance = 1e-9 if row in PLATEAU_ROWS else 1e-6
        assert abs(float(text) - TABLE_1[row - 1]) < tolerance, f"row {row}"
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(1, f"all 21 commutator eigenvalues match the reference table ({elapsed:.2f}s)")


def test_criterion_2_uncertainty_saturation(capsys):
    started = time.perf_counter()
    ups = upsilon_state(ThetaParams(1.0, 21)).values.real
    n = np.arange(21)
    state = NormalizedState(LatticeFunction(((-1.0) ** n) * ups[(n - 10) % 21]))
    report = uncertainty_product_report(state)
    assert abs(report.product - 1.6711269024646) < 1e-9
    assert abs(report.bound - 1.6711269024649) < 1e-9
    assert report.product >= report.bound
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    with capsys.disabled():
        _pass(2, f"product {report.product:.13f} >= bound {report.bound:.13f}, both at reference")


def test_criterion_3_delta_owner_uniformity(capsys):
    for size, m in ((21, 7), (8, 3), (64, 0)):
        spectrum = forward(delta_state(m, size)).values
        assert np.max(np.abs(np.abs(spectrum) ** 2 - 1.0 / size)) < 1e-12
    with capsys.disabled():
        _pass(3, "|F[delta_m]|^2 = 1/N at 1e-12 for (21,7), (8,3), (64,0)")


def test_criterion_4_comb_dualities(capsys):
    size = 21
    for kappa in (1.0 / 3.0, 2.0 / 3.0, 1.0, 1.5, 3.0):
        out = forward(upsilon_state(ThetaParams(kappa, size))).values
        dual = upsilon_state(ThetaParams(1.0 / kappa, size)).values
        assert np.max(np.abs(out - dual)) < 1e-10, f"kappa={kappa}"
    kappa, n0, k0 = 2.0 / 3.0, 7, 14
    packet = gaussian_packet(PacketParams(ThetaParams(kappa, size), n0, k0))
    out = forward(packet).values
    dual = upsilon_state(ThetaParams(1.0 / kappa, size)).values.real
    k = np.arange(size)
    expected = np.exp(2j * np.pi * (k0 - k) * n0 / size) * dual[(k - k0) % size]
    assert np.max(np.abs(out - expected)) < 1e-10
    with capsys.disabled():
        _pass(4, "F[Upsilon_k] = Upsilon_{1/k} and the packet phase law hold at 1e-10")


def test_criterion_5_theta_identities(capsys):
    rng = np.random.default_rng(101)
    for t in (0.5, 1.0, 2.0, 3.0):
        for _ in range(4):
            z = float(rng.uniform(-2.0, 2.0))
            assert abs(theta3(z + 1.0, t) - theta3(z, t)) < 1e-11
        assert abs(theta3(0.0, t) - theta3(0.0, 1.0 / t) / np.sqrt(t)) < 1e-11
    size = 21
    for kappa in (0.5, 1.0, 2.0):
        samples = np.array([theta3(n / size, 1.0 / (kappa * size)) for n in range(size)])
        k = np.arange(size)[:, None]
        n = np.arange(size)[None, :]
        lhs = np.array([theta3(kk / size, kappa / size) for kk in range(size)])
        rhs = (np.exp(-2j * np.pi * k * n / size) @ samples) / np.sqrt(kappa * size)
        assert np.max(np.abs(lhs - rhs)) < 1e-10
    with capsys.disabled():
        _pass(5, "theta periodicity, modular identity, and lattice duality hold")


def test_criterion_6_robertson_inequality(capsys):
    rng = np.random.default_rng(103)
    for size in (8, 21, 50):
        for _ in range(500):
            report = uncertainty_product_report(random_state(rng, size))
            assert report.product >= report.bound - 1e-9
    with capsys.disabled():
        _pass(6, "500 random states at N in {8, 21, 50} satisfy the uncertainty relation")


def test_criterion_7_large_n_concentration(capsys):
    result = commutator_spectrum(101)
    plateau = 101.0 / (2.0 * np.pi)
    count = int(np.sum(np.abs(result.eigenvalues.imag - plateau) < 1e-3))
    assert count / 101.0 >= 0.70
    with capsys.disabled():
        _pass(7, f"{count}/101 eigenvalues within 1e-3 of N/(2*pi)")


def test_criterion_8_evolution_correctness(capsys):
    started = time.perf_counter()
    size, mu = 21, 1.0
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, size), 7, 14))
    potential = HarmonicPotential(center=10.0, strength=0.1)

    # (a) norm drift over 1e5 Strang steps
    params = EvolutionParams(mu=mu, dt=1e-3, steps=100_000)
    records = list(evolve(packet, params, potential, record_every=10_000))
    drift = max(record.norm_error for record in records)
    assert drift <= 1e-8

    # (b) terminal state against the eigendecomposition propagator
    exact = exact_propagator(size, mu, potential, 0.0, 1.0).apply(packet.values)
    params = EvolutionParams(mu=mu, dt=1e-3, steps=1000)
    final = list(evolve(packet, params, potential, record_every=1000))[-1]
    terminal_error = float(np.max(np.abs(final.state.values - exact)))
    assert terminal_error <= 1e-6

    # (c) measured order of the splitting
    strong = HarmonicPotential(center=10.0, strength=1.0)
    exact = exact_propagator(size, mu, strong, 0.0, 1.0).apply(packet.values)
    errors = []
    for dt in (0.01, 0.005):
        params = EvolutionParams(mu=mu, dt=dt, steps=round(1.0 / dt))
        last = list(evolve(packet, params, strong, record_every=params.steps))[-1]
        errors.append(float(np.max(np.abs(last.state.values - exact))))
    order = float(np.log2(errors[0] / errors[1]))
    assert 1.9 <= order <= 2.1

    # (d) owner eigenstates are stationary under V = 0
    eigenstate = NormalizedState(inverse(delta_state(4, size).base))
    params = EvolutionParams(mu=mu, dt=0.01, steps=500)
    fwd_plan = FourierPlan(size, "forward")
    reference = np.abs(fwd_plan.apply(eigenstate.values)) ** 2
    for record in evolve(eigenstate, params, ZeroPotential(), record_every=100):
        owner = np.abs(fwd_plan.apply(record.state.values)) ** 2
        assert np.max(np.abs(owner - reference)) < 1e-10

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    with capsys.disabled():
        _pass(
            8,
            f"drift {drift:.1e}, terminal error {terminal_error:.1e}, "
            f"order {order:.3f}, stationary owner states ({elapsed:.1f}s)",
        )


def test_criterion_9_transform_oracle_equivalence(capsys):
    rng = np.random.default_rng(107)
    worst = 0.0
    for size in (8, 13, 21, 64, 101):
        plan = FourierPlan(size, "forward")
        for _ in range(100):
            phi = random_lattice_function(rng, size)
            fast = plan.apply(phi.values)
            slow = forward_naive(phi).values
            worst = max(worst, float(np.max(np.abs(fast - slow))))
    assert worst < 1e-11
    with capsys.disabled():
        _pass(9, f"np.fft path matches the defining sum (worst deviation {worst:.2e})")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    doc = {
        "N": 21,
        "state": {"type": "gaussian", "kappa": 0.6667, "n0": 7, "k0": 14},
        "output": {"format": "csv", "path": str(tmp_path / "fig2.csv")},
    }
    config = tmp_path / "fig2.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["--quiet", "state", "--config", str(config)]) == 0
    first = (tmp_path / "fig2.csv").read_bytes()
    first_summary = (tmp_path / "fig2_summary.csv").read_bytes()
    assert cli.main(["--quiet", "state", "--config", str(config)]) == 0
    assert (tmp_path / "fig2.csv").read_bytes() == first
    assert (tmp_path / "fig2_summary.csv").read_bytes() == first_summary
    with capsys.disabled():
        _pass(10, "repeated scenario runs produce byte-identical CSV output")
