"""Properties over generated inputs: per-pulse probabilities, the saturation
round trip, and the scenario parser."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from muxsim.cli import ScenarioError, _model_rows, load_scenario
from muxsim.hsps import source_probs
from muxsim.saturation import DeadtimeChain, detected_from_true, true_from_detected

UNIT = st.floats(0.0, 1.0)
XI = st.floats(0.0, 0.95)


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# --- closed forms ----------------------------------------------------------------

@given(xi=XI, eta_i=UNIT, eta_s=UNIT, f=UNIT)
def test_source_probs_lie_in_unit_interval(xi, eta_i, eta_s, f):
    for name, value in source_probs(xi, eta_i, eta_s, f)._asdict().items():
        assert 0.0 <= value <= 1.0, name


@given(xis=st.tuples(XI, XI), eta_i=UNIT, eta_s=UNIT, f=UNIT)
def test_trigger_probability_rises_with_squeezing(xis, eta_i, eta_s, f):
    lo, hi = sorted(xis)
    p_lo = source_probs(lo, eta_i, eta_s, f).p_trig
    p_hi = source_probs(hi, eta_i, eta_s, f).p_trig
    assert p_hi >= p_lo * (1.0 - 1e-12)


@given(xi=XI, etas=st.tuples(UNIT, UNIT), eta_s=UNIT, f=UNIT)
def test_trigger_probability_rises_with_idler_transmission(xi, etas, eta_s, f):
    lo, hi = sorted(etas)
    p_lo = source_probs(xi, lo, eta_s, f).p_trig
    p_hi = source_probs(xi, hi, eta_s, f).p_trig
    assert p_hi >= p_lo * (1.0 - 1e-12)


# --- saturation --------------------------------------------------------------------

@given(
    rate=_number(0.0, 1e7),
    stages=st.lists(_number(0.0, 3e-6), min_size=0, max_size=4),
)
def test_saturation_round_trip(rate, stages):
    chain = DeadtimeChain(tuple(stages))
    recovered = true_from_detected(detected_from_true(rate, chain), chain)
    assert recovered == pytest.approx(rate, rel=1e-9, abs=1e-9)


# --- scenario parser ---------------------------------------------------------------

_BIN = st.fixed_dictionaries(
    {
        "pass": st.integers(0, 3),
        "delay": st.integers(-1, 4),
        "eta_i": _number(-0.1, 1.2),
        "eta_s": _number(-0.1, 1.2),
        "p_seed_mw": _number(-1.0, 60.0),
        "pump_fraction": _number(-0.1, 1.2),
        "eta_sw": _number(-0.1, 1.2),
    },
    optional={"back_reflection_fraction": _number(-0.1, 3.0)},
)
_SCENARIO = st.fixed_dictionaries(
    {},
    optional={
        "power_sweep_mw": st.fixed_dictionaries(
            {},
            optional={
                "start": _number(-5.0, 60.0),
                "stop": _number(-5.0, 80.0),
                "steps": st.integers(-2, 30),
            },
        ),
        "deadtime_chain_s": st.lists(_number(-1e-6, 1e-5), max_size=4),
        "idle_time_s": _number(-1e-6, 1e-5),
        "topology": st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "eta_sw_mode": st.sampled_from(["composed", "flat_4db", "x"])
                },
            ),
            st.fixed_dictionaries(
                {
                    "bins": st.one_of(
                        st.lists(_BIN, max_size=4), st.integers(), st.none(), _BIN
                    )
                },
                optional={
                    "rep_rate_hz": _number(-1e6, 1e9),
                    "bin_spacing_ns": _number(-1.0, 10.0),
                },
            ),
        ),
        "simulation": st.fixed_dictionaries(
            {},
            optional={
                "cycles": st.integers(-5, 10**7),
                "seed": st.integers(-5, 100),
                "reference_power_mw": _number(-5.0, 60.0),
            },
        ),
    },
)


@settings(deadline=None)
@given(doc=_SCENARIO)
def test_scenario_is_rejected_or_gives_finite_model_rows(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("scenario") / "scenario.json"
    path.write_text(json.dumps(doc))
    try:
        scenario = load_scenario(str(path))
    except ScenarioError:
        return
    for row in _model_rows(scenario):
        for key, value in row.items():
            if isinstance(value, float):
                assert math.isfinite(value), (key, value)
