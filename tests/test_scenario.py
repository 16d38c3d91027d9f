import json

import numpy as np
import pytest

from stockwave import (
    CustomStateSpec,
    DeltaStateSpec,
    EvolutionParams,
    EvolutionSpec,
    GaussianStateSpec,
    HarmonicPotential,
    LinearPotential,
    ModulatedPotential,
    OutputSpec,
    Scenario,
    ScenarioError,
    TabulatedPotential,
    ZeroPotential,
    build_initial_state,
    delta_state,
    parse_scenario,
    serialize_scenario,
)

MINIMAL = '{"N": 21, "state": {"type": "delta", "m": 7}}'

FIG2 = """
{
  "N": 21,
  "state": {"type": "gaussian", "kappa": 0.6667, "n0": 7, "k0": 14},
  "output": {"format": "csv", "path": "out.csv", "record_every": 1}
}
"""


def test_minimal_config():
    scenario = parse_scenario(MINIMAL)
    assert scenario.size == 21
    assert scenario.state == DeltaStateSpec(m=7)
    assert scenario.evolution is None
    assert scenario.output == OutputSpec()


def test_fig2_config_keeps_kappa_as_given():
    scenario = parse_scenario(FIG2)
    assert scenario.state == GaussianStateSpec(kappa=0.6667, n0=7, k0=14)
    assert scenario.output.path == "out.csv"


def test_range_violation_names_field():
    bad = '{"N": 21, "state": {"type": "gaussian", "kappa": 1.0, "n0": 21, "k0": 0}}'
    with pytest.raises(ScenarioError, match=r"at state\.n0"):
        parse_scenario(bad)
    zero_kappa = '{"N": 21, "state": {"type": "gaussian", "kappa": 0, "n0": 3, "k0": 0}}'
    with pytest.raises(ScenarioError, match=r"at state\.kappa"):
        parse_scenario(zero_kappa)


def test_delta_index_range():
    with pytest.raises(ScenarioError, match=r"at state\.m"):
        parse_scenario('{"N": 4, "state": {"type": "delta", "m": 4}}')


def test_unknown_fields_rejected():
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario('{"N": 4, "state": {"type": "delta", "m": 1}, "extra": 1}')
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario('{"N": 4, "state": {"type": "delta", "m": 1, "kappa": 2.0}}')
    with pytest.raises(ScenarioError, match="unknown field"):
        parse_scenario(
            '{"N": 4, "state": {"type": "delta", "m": 1},'
            ' "evolution": {"mu": 1, "dt": 0.1, "steps": 5, "extra": true}}'
        )


def test_syntax_error_reports_position():
    with pytest.raises(ScenarioError, match="syntax error at line"):
        parse_scenario('{"N": 21,')


def test_type_errors():
    with pytest.raises(ScenarioError, match="expected an integer"):
        parse_scenario('{"N": 21.5, "state": {"type": "delta", "m": 7}}')
    with pytest.raises(ScenarioError, match="expected an integer"):
        parse_scenario('{"N": true, "state": {"type": "delta", "m": 7}}')
    with pytest.raises(ScenarioError, match="expected a number"):
        parse_scenario('{"N": 4, "state": {"type": "gaussian", "kappa": "x", "n0": 0, "k0": 0}}')


def test_dt_zero_rejected_before_compute():
    doc = {
        "N": 8,
        "state": {"type": "delta", "m": 1},
        "evolution": {"mu": 1.0, "dt": 0.0, "steps": 10},
    }
    with pytest.raises(ScenarioError, match=r"evolution\.dt"):
        parse_scenario(json.dumps(doc))


def test_custom_state_roundtrip_and_build():
    doc = {
        "N": 4,
        "state": {"type": "custom", "re": [1.0, 1.0, 1.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0]},
    }
    scenario = parse_scenario(json.dumps(doc))
    state = build_initial_state(scenario)
    assert np.allclose(state.values, 0.5 * np.ones(4))


def test_custom_state_validation():
    with pytest.raises(ScenarioError, match="entries"):
        parse_scenario('{"N": 4, "state": {"type": "custom", "re": [1.0], "im": [0.0]}}')
    zeros = {"N": 2, "state": {"type": "custom", "re": [0.0, 0.0], "im": [0.0, 0.0]}}
    with pytest.raises(ScenarioError, match="all zero"):
        parse_scenario(json.dumps(zeros))


def test_potential_parsing():
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {
            "mu": 2.0,
            "dt": 0.5,
            "steps": 3,
            "t0": 1.0,
            "potential": {
                "type": "modulated",
                "base": {"type": "harmonic", "center": 2.0, "strength": 0.3},
                "amplitude": 0.4,
                "omega": 3.0,
            },
        },
    }
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.evolution == EvolutionSpec(
        params=EvolutionParams(mu=2.0, dt=0.5, steps=3, t0=1.0),
        potential=ModulatedPotential(
            base=HarmonicPotential(center=2.0, strength=0.3), amplitude=0.4, omega=3.0
        ),
    )


def test_tabulated_length_checked():
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {
            "mu": 1.0,
            "dt": 0.1,
            "steps": 2,
            "potential": {"type": "tabulated", "values": [1.0, 2.0]},
        },
    }
    with pytest.raises(ScenarioError, match=r"potential\.values"):
        parse_scenario(json.dumps(doc))


def test_output_validation():
    with pytest.raises(ScenarioError, match=r"output\.format"):
        parse_scenario('{"N": 2, "state": {"type": "delta", "m": 0}, "output": {"format": "xml"}}')
    with pytest.raises(ScenarioError, match=r"output\.record_every"):
        parse_scenario(
            '{"N": 2, "state": {"type": "delta", "m": 0}, "output": {"record_every": 0}}'
        )


def test_round_trip_equality():
    scenarios = [
        parse_scenario(MINIMAL),
        parse_scenario(FIG2),
        Scenario(
            size=8,
            state=CustomStateSpec(re=(1.0, 0.0) * 4, im=(0.0, 0.5) * 4),
            evolution=EvolutionSpec(
                params=EvolutionParams(mu=0.7, dt=0.125, steps=10, t0=-1.0),
                potential=TabulatedPotential(tuple(float(i) for i in range(8))),
            ),
            output=OutputSpec(format="json", path="x.json", record_every=2),
        ),
        Scenario(
            size=5,
            state=DeltaStateSpec(m=2),
            evolution=EvolutionSpec(
                params=EvolutionParams(mu=1.0, dt=0.1, steps=4),
                potential=LinearPotential(slope=0.25),
            ),
        ),
    ]
    for scenario in scenarios:
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def test_build_delta_state():
    scenario = parse_scenario(MINIMAL)
    state = build_initial_state(scenario)
    assert np.array_equal(state.values, delta_state(7, 21).values)


def test_default_potential_is_zero():
    doc = {
        "N": 4,
        "state": {"type": "delta", "m": 0},
        "evolution": {"mu": 1.0, "dt": 0.1, "steps": 2},
    }
    scenario = parse_scenario(json.dumps(doc))
    assert scenario.evolution.potential == ZeroPotential()
    assert scenario.evolution.params.t0 == 0.0
