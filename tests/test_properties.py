"""Properties over generated inputs: per-pulse probabilities, the saturation
round trip, and the scenario and observations parsers."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxsim.cli import ScenarioError, _model_table, load_scenario
from muxsim.fitting import ObservationsParseError, load_observations_csv
from muxsim.hsps import emission_probs, source_probs
from muxsim.saturation import DeadtimeChain, detected_from_true, true_from_detected

UNIT = st.floats(0.0, 1.0)
XI = st.floats(0.0, 0.95)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _number(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _input(lo, hi):
    """A value of an input file: finite in [lo, hi], or not finite."""
    return _number(lo, hi) | NON_FINITE


# --- closed forms ----------------------------------------------------------------

@given(xi=XI, eta_i=UNIT, eta_s=UNIT, f=UNIT)
def test_source_probs_lie_in_unit_interval(xi, eta_i, eta_s, f):
    for probs in (source_probs, emission_probs):
        for name, value in probs(xi, eta_i, eta_s, f)._asdict().items():
            assert 0.0 <= value <= 1.0, name


@given(xi=XI, eta_i=UNIT, eta_s=UNIT, f=UNIT)
@example(xi=0.0, eta_i=0.5, eta_s=0.5, f=0.3)
@example(xi=0.4, eta_i=0.0, eta_s=0.5, f=0.3)
@example(xi=0.4, eta_i=0.0, eta_s=0.5, f=0.0)
@example(xi=0.9, eta_i=0.7, eta_s=0.6, f=1.0)
def test_emission_split_adds_up_to_the_coincidences(xi, eta_i, eta_s, f):
    # The photon-number split sums to the coincidence probability and a
    # coincidence needs a herald.  The click probability given no trigger is
    # a difference of close terms, good to a few ulp of xi^2 (1 - eta_i); the
    # split clamps it at p_single given no trigger where that error exceeds
    # p_multi given no trigger, so the back-reflection branch, of weight at
    # most f p_trig, may differ by that much.  Relative precision ends where
    # floats turn subnormal.
    probs = source_probs(xi, eta_i, eta_s, f)
    emission = emission_probs(xi, eta_i, eta_s, f)
    assert emission.p_trig == probs.p_trig
    split = emission.p_single + emission.p_multi
    machine = np.finfo(float)
    rounding = 8.0 * machine.eps * xi * xi * f * probs.p_trig + machine.tiny
    assert split == pytest.approx(probs.p_c, rel=1e-12, abs=rounding)
    assert split <= probs.p_trig


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
        "eta_i": _input(-0.1, 1.2),
        "eta_s": _input(-0.1, 1.2),
        "p_seed_mw": _input(-1.0, 60.0),
        "pump_fraction": _input(-0.1, 1.2),
        "eta_sw": _input(-0.1, 1.2),
    },
    optional={"back_reflection_fraction": _input(-0.1, 3.0)},
)
_SCENARIO = st.fixed_dictionaries(
    {},
    optional={
        "power_sweep_mw": st.fixed_dictionaries(
            {},
            optional={
                "start": _input(-5.0, 60.0),
                "stop": _input(-5.0, 80.0),
                "steps": st.integers(-2, 30),
            },
        ),
        "deadtime_chain_s": st.lists(_input(-1e-6, 1e-5), max_size=4),
        "idle_time_s": _input(-1e-6, 1e-5),
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
                    "rep_rate_hz": _input(-1e6, 1e9),
                    "bin_spacing_ns": _input(-1.0, 10.0),
                },
            ),
        ),
        "simulation": st.fixed_dictionaries(
            {},
            optional={
                "cycles": st.integers(-5, 10**7),
                "seed": st.integers(-5, 100),
                "reference_power_mw": _input(-5.0, 60.0),
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
    powers, _, columns = _model_table(scenario)
    assert np.isfinite(powers).all(), powers
    for key, value in columns.items():
        # CAR is left undefined (NaN) where there are no accidentals.
        if key.startswith("car"):
            value = value[columns[key.replace("car", "r_a") + "_hz"] > 0.0]
        assert np.isfinite(value).all(), (key, value)


# --- observations parser -----------------------------------------------------------

_OBSERVATION = st.tuples(*(_input(-1.0, 1e6) for _ in range(4)))


@settings(deadline=None)
@given(rows=st.lists(_OBSERVATION, max_size=6))
def test_observation_rows_are_rejected_or_finite(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("observations") / "obs.csv"
    lines = ["power_mw,r_trig,r_c,r_a", *(",".join(map(repr, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
    bad = [i for i, row in enumerate(rows) if not all(math.isfinite(v) and v >= 0.0 for v in row)]
    if bad:
        with pytest.raises(ObservationsParseError, match=f"line {bad[0] + 2}:"):
            load_observations_csv(path)
        return
    loaded = load_observations_csv(path).get("source", [])
    assert [
        (o.reference_power_mw, o.r_trig_hz, o.r_c_hz, o.r_a_hz) for o in loaded
    ] == rows
