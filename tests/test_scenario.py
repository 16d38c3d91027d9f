import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from stockwave.scenario import MAX_LATTICE_SIZE

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


@pytest.mark.parametrize("evolution", [
    {"mu": 1.0, "dt": 1e306, "steps": 2, "t0": 1.79e308},
    {"mu": 1.0, "dt": 1e-300, "steps": 10**400},
], ids=["end", "steps"])
def test_evolution_span_beyond_the_float_range_rejected(evolution):
    # the times t0 + step * dt were written as inf (Infinity in JSON)
    doc = {"N": 3, "state": {"type": "delta", "m": 1}, "evolution": evolution}
    with pytest.raises(ScenarioError, match=r"^range violation at evolution: t0 \+ steps"):
        parse_scenario(json.dumps(doc))


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


NESTED = Scenario(
    size=3,
    state=GaussianStateSpec(kappa=0.5, n0=1, k0=2),
    evolution=EvolutionSpec(
        params=EvolutionParams(mu=1.5, dt=0.01, steps=4, t0=2.5),
        potential=ModulatedPotential(
            base=ModulatedPotential(
                base=TabulatedPotential((1.0, -2.5, 3e-07)), amplitude=0.3, omega=-1.0
            ),
            amplitude=2.0,
            omega=0.5,
        ),
    ),
)

NESTED_TEXT = """{
  "N": 3,
  "state": {
    "type": "gaussian",
    "kappa": 0.5,
    "n0": 1,
    "k0": 2
  },
  "evolution": {
    "mu": 1.5,
    "dt": 0.01,
    "steps": 4,
    "t0": 2.5,
    "potential": {
      "type": "modulated",
      "base": {
        "type": "modulated",
        "base": {
          "type": "tabulated",
          "values": [
            1.0,
            -2.5,
            3e-07
          ]
        },
        "amplitude": 0.3,
        "omega": -1.0
      },
      "amplitude": 2.0,
      "omega": 0.5
    }
  },
  "output": {
    "format": "csv",
    "record_every": 1
  }
}
"""


def test_nested_potential_serializes_in_field_order():
    assert serialize_scenario(NESTED) == NESTED_TEXT
    assert parse_scenario(NESTED_TEXT) == NESTED


def test_lattice_size_limit():
    delta = '{"N": %d, "state": {"type": "delta", "m": 0}}'
    assert parse_scenario(delta % MAX_LATTICE_SIZE).size == MAX_LATTICE_SIZE
    for size in (MAX_LATTICE_SIZE + 1, 10**12, 10**30):
        with pytest.raises(ScenarioError, match=r"range violation at N"):
            parse_scenario(delta % size)


def test_deep_nesting_is_a_scenario_error():
    deep = '{"N": 2, "state": {"type": "delta", "m": 0}, "output": %s}'
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse_scenario(deep % ("[" * 100_000 + "]" * 100_000))
    # shallow enough for the JSON decoder, too deep for the schema walk
    potential = {"type": "zero"}
    for _ in range(400):
        potential = {"type": "modulated", "base": potential, "amplitude": 1.0, "omega": 1.0}
    doc = {
        "N": 2,
        "state": {"type": "delta", "m": 0},
        "evolution": {"mu": 1.0, "dt": 0.1, "steps": 1, "potential": potential},
    }
    with pytest.raises(ScenarioError, match="nested too deeply"):
        parse_scenario(json.dumps(doc))


def test_numbers_beyond_float_or_int_range():
    gaussian = '{"N": 4, "state": {"type": "gaussian", "kappa": %s, "n0": 0, "k0": 0}}'
    with pytest.raises(ScenarioError, match=r"at state\.kappa: expected a finite number"):
        parse_scenario(gaussian % ("9" * 400))
    with pytest.raises(ScenarioError, match="syntax error"):
        parse_scenario(gaussian % ("9" * 5000))


VALID = {
    "N": 3,
    "state": {"type": "custom", "re": [1.0, 0.0, 0.5], "im": [0.0, 0.25, 0.0]},
    "evolution": {
        "mu": 1.0,
        "dt": 0.1,
        "steps": 2,
        "t0": 0.0,
        "potential": {
            "type": "modulated",
            "base": {"type": "tabulated", "values": [0.0, 1.0, 2.0]},
            "amplitude": 0.5,
            "omega": 2.0,
        },
    },
    "output": {"format": "json", "path": "out.json", "record_every": 1},
}
KEYS = [
    "N", "state", "evolution", "output", "type", "m", "kappa", "n0", "k0", "re", "im", "mu",
    "dt", "steps", "t0", "potential", "center", "strength", "slope", "values", "base",
    "amplitude", "omega", "format", "path", "record_every",
]
KINDS = ["delta", "gaussian", "custom", "zero", "harmonic", "linear", "tabulated",
         "modulated", "csv", "json"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(KINDS) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=16,
)


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _paths(value, prefix + (index,))


@st.composite
def mutated_scenarios(draw):
    # VALID with one field replaced, deleted, or joined by a stray sibling
    doc = json.loads(json.dumps(VALID))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        parent[path[-1]] = draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.sampled_from(KEYS))] = draw(json_values)
    else:
        parent.append(draw(json_values))
    return json.dumps(doc)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text=st.one_of(json_values.map(json.dumps), mutated_scenarios(), st.text(max_size=20)))
def test_parse_returns_scenario_or_raises_scenario_error(text):
    try:
        scenario = parse_scenario(text)
    except ScenarioError:
        return
    assert isinstance(scenario, Scenario)
    assert parse_scenario(serialize_scenario(scenario)) == scenario
