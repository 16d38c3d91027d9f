import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stockwave import (
    ConservationError,
    DimensionError,
    EvolutionParams,
    HarmonicPotential,
    LatticeFunction,
    LinearPotential,
    ModulatedPotential,
    NumericalConsistencyError,
    PacketParams,
    Potential,
    TabulatedPotential,
    ThetaParams,
    ZeroPotential,
    delta_state,
    evolve,
    exact_propagator,
    expectation,
    gaussian_packet,
    inverse,
    normalize,
    owner_distribution,
    price_distribution,
    static_hamiltonian,
)
from stockwave import evolution
from stockwave.evolution import _kicks, _observed, _phases, _strang_steps
from helpers import primes_to, random_lattice_function


def fig2_packet():
    return gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))


def _step(values, t_mid, dt, mu, potential):
    """One unfused Strang step, V sampled at t_mid: the integrator's own
    steps, run for one step with the phase at t_mid."""
    phase = _phases(potential, values.size, dt)(t_mid)
    kicks = _kicks(values.size, dt, mu)
    _, (_, _, stepped) = _strang_steps(values, 0.0, dt, 1, 1, lambda t: phase, *kicks)
    return stepped


def test_kinetic_on_owner_eigenstate_is_global_phase():
    size, m, dt, mu = 21, 4, 0.3, 1.0
    eigen = inverse(delta_state(m, size).base)
    out = LatticeFunction(_kicks(size, dt, mu)[0](eigen.values))
    phase = np.exp(-1j * (dt / 2.0) * m * m / (2.0 * mu))
    assert np.max(np.abs(out.values - phase * eigen.values)) < 1e-13
    from stockwave import NormalizedState

    dist = owner_distribution(NormalizedState(out)).probs
    assert dist[m] == pytest.approx(1.0, abs=1e-12)


def test_kinetic_zero_dt_is_identity():
    rng = np.random.default_rng(71)
    phi = random_lattice_function(rng, 21)
    out = _kicks(21, 0.0, 1.0)[0](phi.values)
    assert np.max(np.abs(out - phi.values)) < 1e-13


def test_kinetic_double_half_is_full_step():
    rng = np.random.default_rng(73)
    half_kick, full_kick = _kicks(21, 0.4, 2.0)
    for _ in range(5):
        phi = random_lattice_function(rng, 21)
        twice = half_kick(half_kick(phi.values))
        once = full_kick(phi.values)
        assert np.max(np.abs(twice - once)) < 1e-12


@pytest.mark.parametrize("t0, dt, steps", [
    (1.79e308, 1e306, 2),  # t0 + steps * dt overflows
    (-1e308, 1e308, 2),  # steps * dt overflows, though t0 + steps * dt would not
    (0.0, 1e-300, 10**400),  # steps is beyond the float range
], ids=["end", "span", "steps"])
def test_params_reject_a_span_beyond_the_float_range(t0, dt, steps):
    with pytest.raises(ValueError, match="must be finite"):
        EvolutionParams(mu=1.0, dt=dt, steps=steps, t0=t0)


@pytest.mark.filterwarnings("error")
def test_kick_phase_overflow_raises_one_error():
    # dt * k^2 overflowed in the kick's phase: eight RuntimeWarnings, then a
    # norm drift of nan
    params = EvolutionParams(mu=1.0, dt=1e308, steps=1)
    with pytest.raises(NumericalConsistencyError, match="kinetic phase is not finite"):
        list(evolve(delta_state(1, 3), params, ZeroPotential()))
    with pytest.raises(NumericalConsistencyError, match="kinetic phase is not finite"):
        _kicks(3, 1e308, 0.25)
    # the largest k decides: at N = 2 the same step is finite
    assert len(list(evolve(delta_state(1, 2), params, ZeroPotential()))) == 2
    # 1 / (2 mu) overflows, so even k = 0 gives 0 * inf
    with pytest.raises(NumericalConsistencyError, match="kinetic phase is not finite"):
        list(evolve(delta_state(0, 1), EvolutionParams(mu=1e-320, dt=1.0, steps=1), ZeroPotential()))


def test_potential_zero_is_identity():
    rng = np.random.default_rng(79)
    phi = random_lattice_function(rng, 13)
    out = phi.values * _phases(ZeroPotential(), 13, 0.7)(0.0)
    assert np.array_equal(out, phi.values)


def test_potential_step_preserves_price_probabilities():
    rng = np.random.default_rng(83)
    phi = random_lattice_function(rng, 21)
    out = phi.values * _phases(HarmonicPotential(10.0, 1.3), 21, 0.9)(0.2)
    assert np.max(np.abs(np.abs(out) ** 2 - np.abs(phi.values) ** 2)) < 1e-13


def test_constant_potential_is_global_phase():
    rng = np.random.default_rng(89)
    phi = random_lattice_function(rng, 8)
    c, dt = 2.5, 0.4
    out = phi.values * _phases(TabulatedPotential((c,) * 8), 8, dt)(0.0)
    assert np.max(np.abs(out - np.exp(-1j * dt * c) * phi.values)) < 1e-13


def test_strang_with_zero_potential_is_pure_kinetic():
    packet = fig2_packet()
    split = _step(packet.values, 0.025, 0.05, 1.0, ZeroPotential())
    half_kick = _kicks(21, 0.05, 1.0)[0]
    pure = half_kick(half_kick(packet.values))
    assert np.array_equal(split, pure)


@pytest.mark.parametrize("size", [21, 64])
def test_strang_step_is_evolve_first_step(size):
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), size // 3, 2))
    params = EvolutionParams(mu=0.7, dt=0.03, steps=1, t0=0.4)
    for potential in (
        HarmonicPotential(center=size / 2.0, strength=0.2),
        ModulatedPotential(LinearPotential(slope=0.3), amplitude=1.5, omega=2.0),
    ):
        t_mid = params.t0 + params.dt / 2.0
        stepped = _step(phi0.values, t_mid, params.dt, params.mu, potential)
        first = list(evolve(phi0, params, potential))[-1]
        assert np.array_equal(stepped, first.state.values)


def test_strang_matches_exact_propagator():
    size, mu = 21, 1.0
    potential = HarmonicPotential(center=10.0, strength=0.1)
    packet = fig2_packet()
    duration, dt = 1.0, 1e-3
    exact = exact_propagator(size, mu, potential, 0.0, duration).apply(packet.values)
    params = EvolutionParams(mu=mu, dt=dt, steps=round(duration / dt))
    final = list(evolve(packet, params, potential, record_every=params.steps))[-1]
    assert np.max(np.abs(final.state.values - exact)) < 1e-6


def test_strang_error_quarters_when_dt_halves():
    size, mu = 21, 1.0
    potential = HarmonicPotential(center=10.0, strength=1.0)
    packet = fig2_packet()
    exact = exact_propagator(size, mu, potential, 0.0, 1.0).apply(packet.values)
    errors = []
    for dt in (0.02, 0.01):
        params = EvolutionParams(mu=mu, dt=dt, steps=round(1.0 / dt))
        final = list(evolve(packet, params, potential, record_every=params.steps))[-1]
        errors.append(float(np.max(np.abs(final.state.values - exact))))
    ratio = errors[0] / errors[1]
    assert 3.5 < ratio < 4.5


def test_evolve_stationary_owner_eigenstate():
    size, m = 21, 3
    from stockwave import NormalizedState

    phi0 = NormalizedState(inverse(delta_state(m, size).base))
    params = EvolutionParams(mu=1.0, dt=0.01, steps=200)
    for record in evolve(phi0, params, ZeroPotential(), record_every=50):
        owner = owner_distribution(record.state).probs
        assert owner[m] == pytest.approx(1.0, abs=1e-10)
        price = np.abs(record.state.values) ** 2
        assert np.max(np.abs(price - 1.0 / size)) < 1e-10


def test_evolve_delta_spreads():
    phi0 = delta_state(10, 21)
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=100)
    records = list(evolve(phi0, params, ZeroPotential(), record_every=50))
    assert records[0].report.delta_price == 0.0
    assert records[-1].report.delta_price > records[1].report.delta_price / 2 > 0.0
    # first step against the exact propagator (V = 0: splitting is exact)
    one = list(evolve(phi0, EvolutionParams(mu=1.0, dt=1e-3, steps=1), ZeroPotential()))[-1]
    exact = exact_propagator(21, 1.0, ZeroPotential(), 0.0, 1e-3).apply(phi0.values)
    assert np.max(np.abs(one.state.values - exact)) < 1e-10


def _modulated_trap(size):
    return ModulatedPotential(
        HarmonicPotential(center=size / 2.0, strength=4.0 / size), amplitude=1.5, omega=3.0
    )


@pytest.mark.parametrize("size", [21, 64, 1031])
@pytest.mark.parametrize("record_every", [1, 7, 20])
def test_fused_segments_match_repeated_strang_steps(size, record_every):
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), size // 3, 2))
    params = EvolutionParams(mu=0.8, dt=0.01, steps=20, t0=0.3)
    potential = _modulated_trap(size)
    values = phi0.values
    for step in range(params.steps):
        t_mid = params.t0 + step * params.dt + params.dt / 2.0
        values = _step(values, t_mid, params.dt, params.mu, potential)
    final = list(evolve(phi0, params, potential, record_every))[-1]
    assert final.step == params.steps
    assert np.max(np.abs(final.state.values - values)) < 1e-12


@pytest.mark.parametrize("record_every", [1, 7])  # 1000: test_strang_matches_exact_propagator
def test_fused_segments_match_exact_propagator(record_every):
    size, mu = 21, 1.0
    potential = HarmonicPotential(center=10.0, strength=0.1)
    exact = exact_propagator(size, mu, potential, 0.0, 1.0).apply(fig2_packet().values)
    params = EvolutionParams(mu=mu, dt=1e-3, steps=1000)
    final = list(evolve(fig2_packet(), params, potential, record_every))[-1]
    assert np.max(np.abs(final.state.values - exact)) < 1e-6


@pytest.mark.parametrize("steps,record_every", [(1, 1), (10, 1), (10, 3), (10, 10), (100, 100)])
def test_fused_loop_transform_count(monkeypatch, steps, record_every):
    kicks, transforms, in_kick = [], [], []
    build_kicks = evolution._kicks

    def counting(transform):
        def run(*args, **kwargs):
            if not in_kick:  # a kick's own FFT pair is part of the kick
                transforms.append(len(kicks))
            return transform(*args, **kwargs)
        return run

    def counting_kicks(size, dt, mu):
        def counted(kick):
            def run(values):
                kicks.append(True)
                in_kick.append(True)
                try:
                    return kick(values)
                finally:
                    in_kick.pop()
            return run
        return tuple(counted(kick) for kick in build_kicks(size, dt, mu))

    monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
    monkeypatch.setattr(evolution, "_kicks", counting_kicks)
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, 64), 20, 3))
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=steps)
    records = list(evolve(phi0, params, _modulated_trap(64), record_every))
    segments = len(records) - 1
    # one kick per step plus the closing half kick of each segment
    assert len(kicks) == steps + segments
    # transforms only in the records' observables reports, none in a
    # segment: each runs before the first or after the last kick of one
    boundaries = {0}
    for j in range(segments):
        boundaries.add(max(boundaries) + records[j + 1].step - records[j].step + 1)
    assert transforms and set(transforms) <= boundaries


def test_fused_segment_memory_does_not_grow_with_steps():
    # phases are evaluated one per step; a list of one record interval's
    # phases would hold 200 vectors here
    size = 1031
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), 300, 2))
    params = EvolutionParams(mu=1.0, dt=1e-4, steps=200)
    list(evolve(phi0, EvolutionParams(mu=1.0, dt=1e-4, steps=1), _modulated_trap(size)))  # warm
    tracemalloc.start()
    try:
        list(evolve(phi0, params, _modulated_trap(size), record_every=params.steps))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 16 * size


@pytest.mark.parametrize("size", [1031, 16411])
def test_padded_step_allocates_only_order_n(size):
    # a step holds the state, the kick's output and the new phase (16 B per
    # level each) and the phase's angle (8 B); a fresh spectrum per kick
    # and a fresh product with the phase would add ~56 B more
    dt, mu = 1e-3, 1.0
    values = gaussian_packet(PacketParams(ThetaParams(1.0, size), size // 3, 2)).values

    def run():
        phase, kicks = _phases(_modulated_trap(size), size, dt), _kicks(size, dt, mu)
        return _strang_steps(values, 0.0, dt, 10, 10, phase, *kicks)

    list(run())  # warm
    steps = run()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for _ in steps:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 72 * size, (peak - start) / size


@pytest.mark.parametrize("size", [1031, 16411])
def test_padded_step_makes_no_phase_arrays(size):
    # the setup of the test above, one phase function for both runs: a
    # step's transient memory is the kick's output and the state (16 B per
    # level each), as the phase's angle and phasors are written into
    # buffers made with the phase function; a fresh scaled profile, angle
    # and phasors per step read ~56 B
    dt, mu = 1e-3, 1.0
    values = gaussian_packet(PacketParams(ThetaParams(1.0, size), size // 3, 2)).values
    phase, kicks = _phases(_modulated_trap(size), size, dt), _kicks(size, dt, mu)
    list(_strang_steps(values, 0.0, dt, 10, 10, phase, *kicks))  # warm
    steps = _strang_steps(values, 0.0, dt, 10, 10, phase, *kicks)
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for _ in steps:
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 40 * size, (peak - start) / size


def test_steps_never_write_caller_or_yielded_arrays():
    # kicks and phases are applied in place only to arrays a step made:
    # the initial state and every yielded state keep their bytes
    size = 1031
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), 300, 2))
    initial = phi0.values.copy()
    dt, mu, trap = 1e-3, 1.0, _modulated_trap(size)
    records = evolve(phi0, EvolutionParams(mu=mu, dt=dt, steps=12, t0=0.25), trap, 3)
    kept = [(r.state.values, r.state.values.copy()) for r in records]
    steps = _strang_steps(phi0.values, 0.25, dt, 12, 3, _phases(trap, size, dt), *_kicks(size, dt, mu))
    kept += [(values, values.copy()) for _, _, values in steps]
    assert len(kept) == 10
    assert np.array_equal(phi0.values.view(np.uint8), initial.view(np.uint8))
    for values, copy in kept:
        assert np.array_equal(values.view(np.uint8), copy.view(np.uint8))


def test_segment_memory_is_flat_in_record_every():
    # each step computes its own midpoint; a list of one record
    # interval's midpoints would hold record_every floats, ~590 KB more
    # at 20 000 steps than at 2 000
    size = 8
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), 3, 2))

    def peak(steps):
        params = EvolutionParams(mu=1.0, dt=1e-4, steps=steps)
        tracemalloc.start()
        try:
            list(evolve(phi0, params, _modulated_trap(size), record_every=steps))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2_000)  # warm
    assert abs(peak(20_000) - peak(2_000)) < 4096


PRIMES_TO_512 = primes_to(512)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    size=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES_TO_512)),
    steps=st.integers(1, 12),
    dt=st.floats(1e-4, 0.1),
    mu=st.floats(0.5, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_segment_is_time_reversible(size, steps, dt, mu, seed):
    rng = np.random.default_rng(seed)
    phi = random_lattice_function(rng, size).values
    phi = phi / np.linalg.norm(phi)
    potential = _modulated_trap(size)
    t0, t1 = 0.2, 0.2 + steps * dt
    *_, (_, _, there) = _strang_steps(
        phi, t0, dt, steps, steps, _phases(potential, size, dt), *_kicks(size, dt, mu)
    )
    *_, (_, _, back) = _strang_steps(
        there, t1, -dt, steps, steps, _phases(potential, size, -dt), *_kicks(size, -dt, mu)
    )
    assert np.max(np.abs(back - phi)) < 1e-12


def _record_bits(record):
    report = record.report
    scalars = np.array([
        record.time, report.mean_price, report.mean_owner, report.delta_price,
        report.delta_owner, report.product, report.bound, record.norm_error,
    ])
    return (
        record.step, report.saturated, scalars.tobytes(), record.state.values.tobytes(),
        report.prob_price.tobytes(), report.prob_owner.tobytes(),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    size=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES_TO_512)),
    steps=st.integers(1, 60),
    record_every=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_records_do_not_depend_on_their_block(size, steps, record_every, seed):
    # at N = 512 a default block holds 8 records, so larger runs span several
    rng = np.random.default_rng(seed)
    phi0 = normalize(random_lattice_function(rng, size))
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=steps, t0=0.3)

    def run():
        return [_record_bits(r) for r in evolve(phi0, params, _modulated_trap(size), record_every)]

    blocked = run()
    default = evolution.RECORD_BLOCK_SIZE
    evolution.RECORD_BLOCK_SIZE = 1  # one record per block
    try:
        single = run()
    finally:
        evolution.RECORD_BLOCK_SIZE = default
    assert len(blocked) == 1 + -(-steps // record_every)
    assert blocked == single


def test_evolve_record_schedule():
    phi0 = fig2_packet()
    params = EvolutionParams(mu=1.0, dt=0.1, steps=10, t0=2.0)
    records = list(evolve(phi0, params, ZeroPotential(), record_every=3))
    times = [record.time for record in records]
    assert times == pytest.approx([2.0, 2.3, 2.6, 2.9, 3.0])
    assert [record.step for record in records] == [0, 3, 6, 9, 10]


def test_evolve_contract_checks():
    phi0 = fig2_packet()
    params = EvolutionParams(mu=1.0, dt=0.1, steps=3)
    with pytest.raises(ValueError):
        evolve(phi0, params, ZeroPotential(), record_every=0)
    with pytest.raises(ValueError):
        EvolutionParams(mu=1.0, dt=0.1, steps=0)
    with pytest.raises(ValueError):
        EvolutionParams(mu=0.0, dt=0.1, steps=1)
    with pytest.raises(ValueError):
        EvolutionParams(mu=1.0, dt=0.0, steps=1)
    with pytest.raises(DimensionError):
        evolve(phi0, params, TabulatedPotential((1.0, 2.0)), record_every=1)


def test_record_flags_norm_drift():
    bad = np.ones((1, 4), dtype=complex)  # norm 2, far beyond the budget
    block, error = _observed(bad, [(0, 0.0)])
    assert len(block) == 0
    assert isinstance(error, ConservationError)


@pytest.mark.parametrize("record_every", [1, 1000, 10_000])
def test_first_record_arrives_within_the_step_budget(monkeypatch, record_every):
    # at N = 21 a full block holds 195 records, the whole run of 100000
    # steps when records are 10000 steps apart
    strang_steps, integrated = evolution._strang_steps, []

    def counting(values, t0, dt, steps, every, phase, *kicks):
        def counted(t):  # called once per step integrated
            integrated.append(1)
            return phase(t)

        return strang_steps(values, t0, dt, steps, every, counted, *kicks)

    monkeypatch.setattr(evolution, "_strang_steps", counting)
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=100_000)
    records = evolve(fig2_packet(), params, HarmonicPotential(10.0, 0.1), record_every)
    assert next(records).step == 0
    budget = max(evolution.RECORD_BLOCK_STEPS, record_every)
    assert sum(integrated) < budget + record_every  # 2 * record_every from the budget up


@pytest.mark.parametrize("size, steps, record_every, shape", [
    (21, 500, 1, [195, 195, 111]),  # the stream-n21 benchmark workload
    (1031, 100, 100, [2]),  # evolve-prime
])
def test_benchmark_block_shapes(size, steps, record_every, shape):
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), size // 3, 2))
    params = EvolutionParams(mu=1.0, dt=1e-4, steps=steps)
    blocks = evolution.record_blocks(phi0, params, _modulated_trap(size), record_every)
    assert [len(block) for block in blocks] == shape


@pytest.mark.parametrize("dt", [1e-4, 1.5e-4, 0.01, 1.0, -0.3])
def test_potential_phase_matches_complex_exp(dt):
    rng = np.random.default_rng(17)
    values = np.concatenate([rng.uniform(-1e4, 1e4, 5000), rng.normal(size=5000), [0.0, -0.0]])
    potential = TabulatedPotential(tuple(values))
    phase = _phases(potential, values.size, dt)(0.0)
    assert np.max(np.abs(phase - np.exp(-1j * dt * values))) <= 1e-15
    assert np.max(np.abs(np.abs(phase) - 1.0)) <= 1e-15


# moderate values, and values up to 1e308 whose products may overflow
_MAGNITUDES = st.one_of(
    st.floats(-1e3, 1e3),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(0, 308)),
)


@st.composite
def _potentials(draw, size):
    """Every base kind under a chain of 0-3 modulations."""
    kind = draw(st.sampled_from(["zero", "harmonic", "linear", "tabulated"]))
    if kind == "zero":
        potential = ZeroPotential()
    elif kind == "harmonic":
        potential = HarmonicPotential(draw(st.floats(-1e3, 1e3)), draw(_MAGNITUDES))
    elif kind == "linear":
        potential = LinearPotential(draw(_MAGNITUDES))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        potential = TabulatedPotential(tuple(rng.uniform(-1.0, 1.0, size) * draw(_MAGNITUDES)))
    for _ in range(draw(st.integers(0, 3))):
        potential = ModulatedPotential(potential, draw(_MAGNITUDES), draw(_MAGNITUDES))
    return potential


def _assert_phase_is_evaluated_phase(potential, size, dt, t):
    """_phases(potential, size, dt)(t) is bitwise cos/sin of -dt * evaluate,
    and raises exactly when that array or its angle is not finite."""
    try:
        with np.errstate(all="ignore"):
            values = potential.evaluate(np.arange(size), t)
            angle = -dt * values
    except NumericalConsistencyError:  # omega * t overflows
        finite = False
    else:
        finite = np.all(np.isfinite(values)) and np.all(np.isfinite(angle))
    if not finite:
        with pytest.raises(NumericalConsistencyError, match="not finite"):
            _phases(potential, size, dt)(t)
        return
    angle += 0.0
    phase = _phases(potential, size, dt)(t)
    assert phase.real.tobytes() == np.cos(angle).tobytes()
    assert phase.imag.tobytes() == np.sin(angle).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(
    data=st.data(),
    size=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES_TO_512)),
    dt=_MAGNITUDES,
    t=_MAGNITUDES,
)
def test_phases_are_exactly_the_evaluated_phase(data, size, dt, t):
    _assert_phase_is_evaluated_phase(data.draw(_potentials(size)), size, dt, t)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    size=st.one_of(st.integers(1, 512), st.sampled_from(PRIMES_TO_512)),
    seed=st.integers(0, 2**32 - 1),
    ulps=st.integers(-3, 3),
    edge_in_dt=st.booleans(),
)
def test_phase_overflow_checks_are_exact_at_the_edge(size, seed, ulps, edge_in_dt):
    # the scale (or the step) that takes the peak of V (or of the angle)
    # to the largest double, moved by a few ulps to either side
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, size)
    values *= rng.uniform(2.0, 1e6) / np.abs(values).max()
    edge = np.finfo(np.float64).max / np.abs(values).max()
    for _ in range(abs(ulps)):
        edge = np.nextafter(edge, np.inf if ulps > 0 else 0.0)
    scale, dt = (1.0, float(edge)) if edge_in_dt else (float(edge), 1e-300)
    potential = ModulatedPotential(TabulatedPotential(tuple(values)), scale, omega=0.0)
    _assert_phase_is_evaluated_phase(potential, size, dt, 0.0)


def test_phases_are_reused_only_while_the_scales_repeat():
    static = _phases(HarmonicPotential(10.0, 0.3), 21, 0.01)
    assert static(0.1) is static(7.5)
    modulated = _phases(_modulated_trap(21), 21, 0.01)
    first = modulated(0.1).copy()
    assert not np.array_equal(modulated(0.2), first)
    assert np.array_equal(modulated(0.1), first)
    with pytest.raises(ValueError):
        first_again = modulated(0.1)
        first_again[0] = 0.0  # a reused phase is read-only


def test_profile_is_evaluated_once_per_run(monkeypatch):
    profile, calls = HarmonicPotential.profile, []

    def counting(self, n):
        calls.append(n.size)
        return profile(self, n)

    monkeypatch.setattr(HarmonicPotential, "profile", counting)
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=200)
    records = list(evolve(fig2_packet(), params, _modulated_trap(21), record_every=50))
    assert len(records) == 5 and calls == [21]


def test_potential_without_profile_fails_before_any_record():
    class Ramp(Potential):  # overrides evaluate only, so defines no profile
        def evaluate(self, n, t):
            return t * np.asarray(n, dtype=np.float64)

    params = EvolutionParams(mu=1.0, dt=1e-3, steps=10)
    with pytest.raises(NotImplementedError, match="Ramp defines no profile"):
        evolution.record_blocks(fig2_packet(), params, Ramp())


def test_exact_propagator_zero_duration():
    prop = exact_propagator(13, 1.0, HarmonicPotential(6.0, 0.4), 0.0, 0.0)
    assert np.max(np.abs(prop.matrix - np.eye(13))) < 1e-12


def test_exact_propagator_free_eigenphases():
    size, mu, duration = 16, 1.0, 0.37
    prop = exact_propagator(size, mu, ZeroPotential(), 0.0, duration)
    from stockwave import dft_matrix

    f = dft_matrix(size, "forward")
    k = np.arange(size)
    expected = f.conj().T @ (np.exp(-1j * duration * k * k / (2.0 * mu))[:, None] * f)
    assert np.max(np.abs(prop.matrix - expected)) < 1e-10


def test_exact_propagator_semigroup():
    size, mu = 13, 1.0
    potential = HarmonicPotential(center=6.0, strength=0.8)
    p1 = exact_propagator(size, mu, potential, 0.0, 0.3).matrix
    p2 = exact_propagator(size, mu, potential, 0.0, 0.4).matrix
    p12 = exact_propagator(size, mu, potential, 0.0, 0.7).matrix
    assert np.max(np.abs(p1 @ p2 - p12)) < 1e-9


def test_time_reversal_returns_initial_state():
    packet = fig2_packet()
    mu, dt = 1.0, 0.01
    potential = HarmonicPotential(center=10.0, strength=0.5)
    fwd = _step(packet.values, dt / 2.0, dt, mu, potential)
    # undo with -dt, sampling the potential at the same midpoint
    back = _step(fwd, dt / 2.0, -dt, mu, potential)
    assert np.max(np.abs(back - packet.values)) < 1e-10


def test_energy_conserved_for_static_potential():
    size, mu = 21, 1.0
    potential = HarmonicPotential(center=10.0, strength=0.1)
    hamiltonian = static_hamiltonian(size, mu, potential, 0.0)
    params = EvolutionParams(mu=mu, dt=1e-3, steps=2000)
    energies = [
        expectation(hamiltonian, record.state)
        for record in evolve(fig2_packet(), params, potential, record_every=200)
    ]
    energies = np.array(energies)
    assert np.max(np.abs(energies - energies[0])) / abs(energies[0]) < 1e-6


def test_hamiltonian_eigenstates_evolve_with_pure_phase():
    size, mu = 21, 1.0
    potential = HarmonicPotential(center=10.0, strength=0.5)
    hamiltonian = static_hamiltonian(size, mu, potential, 0.0)
    _, vectors = np.linalg.eigh(hamiltonian.matrix)
    prop = exact_propagator(size, mu, potential, 0.0, 0.29)
    current = vectors[:, 2].copy()
    reference = np.abs(current) ** 2
    for _ in range(15):
        current = prop.apply(current)
        assert np.max(np.abs(np.abs(current) ** 2 - reference)) < 1e-8


def test_norm_drift_stays_tiny():
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=2000)
    potential = HarmonicPotential(center=10.0, strength=1.0)
    records = list(evolve(fig2_packet(), params, potential, record_every=500))
    assert max(record.norm_error for record in records) < 1e-12


def test_modulated_potential_evaluation():
    base = LinearPotential(slope=2.0)
    mod = ModulatedPotential(base=base, amplitude=0.5, omega=np.pi)
    n = np.arange(4)
    assert np.allclose(mod.evaluate(n, 0.0), 0.5 * 2.0 * n)
    assert np.allclose(mod.evaluate(n, 1.0), -0.5 * 2.0 * n)
    assert mod.scales(1.0) == pytest.approx((-0.5,)) and base.scales(1.0) == ()


def test_time_dependent_potential_runs():
    size = 13
    packet = gaussian_packet(PacketParams(ThetaParams(1.0, size), 6, 0))
    potential = ModulatedPotential(HarmonicPotential(6.0, 0.5), amplitude=1.0, omega=2.0)
    params = EvolutionParams(mu=1.0, dt=0.01, steps=100)
    records = list(evolve(packet, params, potential, record_every=25))
    assert len(records) == 5
    assert max(record.norm_error for record in records) < 1e-12


def test_potential_validation():
    with pytest.raises(ValueError):
        HarmonicPotential(center=np.nan, strength=1.0)
    with pytest.raises(ValueError):
        LinearPotential(slope=np.inf)
    with pytest.raises(ValueError):
        TabulatedPotential(())
    with pytest.raises(ValueError):
        TabulatedPotential((1.0, np.nan))


@pytest.fixture(scope="module")
def free_prime_run():
    # V = 0: the split is exact, so only rounding separates evolve from
    # the propagator; N = 1031 takes the zero-padded circulant kick
    size, mu, dt, steps = 1031, 1.0, 1e-3, 50
    phi0 = gaussian_packet(PacketParams(ThetaParams(1.0, size), 300, 40))
    exact = exact_propagator(size, mu, ZeroPotential(), 0.0, dt * steps).apply(phi0.values)
    return phi0, EvolutionParams(mu=mu, dt=dt, steps=steps), exact


@pytest.mark.parametrize("record_every", [1, 7])
def test_padded_kick_matches_exact_propagator_at_prime_size(free_prime_run, record_every):
    phi0, params, exact = free_prime_run
    final = list(evolve(phi0, params, ZeroPotential(), record_every))[-1]
    assert np.max(np.abs(final.state.values - exact)) < 1e-10


@pytest.mark.parametrize("size", [1031, 16411])
def test_padded_kicks_retain_under_120_bytes_per_level(size):
    # K(dt/2) and K(dt) keep a (2, L) response each and share one (2, L)
    # staging buffer and one L + 1 twist table, ~112 B per level at L ~ N;
    # a buffer and a table per kick would retain ~160
    _kicks(size, 0.01, 1.0)  # warm
    tracemalloc.start()
    try:
        kicks = _kicks(size, 0.01, 1.0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kicks) == 2
    assert retained <= 120 * size, retained / size


def test_distribution_helpers_accept_every_evolve_record():
    # the README packet: by step 10,000 the norm has drifted ~2e-12, well
    # inside the conservation budget, and the helpers must still take it
    packet = gaussian_packet(PacketParams(ThetaParams(2.0 / 3.0, 21), 7, 14))
    params = EvolutionParams(mu=1.0, dt=1e-3, steps=10_000)
    records = evolve(packet, params, HarmonicPotential(center=10.0, strength=0.1))
    for record in records:
        assert np.array_equal(price_distribution(record.state).probs, record.report.prob_price)
        assert np.array_equal(owner_distribution(record.state).probs, record.report.prob_owner)
    assert record.step == 10_000
