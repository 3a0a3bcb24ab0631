"""Properties over generated inputs: per-pulse probabilities, the saturation
round trip, the scenario and observations parsers, and the CSV reader that
the observation and spectrum loaders share."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxsim.cli import ScenarioError, _model_table, load_scenario
from muxsim.fitting import Observation, ObservationsParseError, load_observations_csv
from muxsim.hsps import emission_probs, source_probs
from muxsim.report import read_csv
from muxsim.saturation import DeadtimeChain, detected_from_true, true_from_detected
from muxsim.spectral import SpectrumFitError, load_spectrum_csv

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
    # coincidence needs a herald.  Relative precision ends where floats turn
    # subnormal.
    probs = source_probs(xi, eta_i, eta_s, f)
    emission = emission_probs(xi, eta_i, eta_s, f)
    assert emission.p_trig == probs.p_trig
    split = emission.p_single + emission.p_multi
    assert split == pytest.approx(probs.p_c, rel=1e-12, abs=np.finfo(float).tiny)
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
    rates=st.lists(_number(0.0, 1e7), min_size=1, max_size=5),
    stages=st.lists(_number(0.0, 3e-6), min_size=0, max_size=4),
)
def test_saturation_round_trip(rates, stages):
    chain = DeadtimeChain(tuple(stages))
    recovered = [true_from_detected(detected_from_true(r, chain), chain) for r in rates]
    for rate, back in zip(rates, recovered):
        assert type(back) is float
        assert back == pytest.approx(rate, rel=1e-9, abs=1e-9)
    # An array goes through as its elements do one by one, bit for bit.
    detected = detected_from_true(np.array(rates), chain)
    assert true_from_detected(detected, chain).tolist() == recovered


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
# The clock keys, which apply to the built-in bins and to listed ones alike.
_CLOCK = {"rep_rate_hz": _input(-1e6, 1e9), "bin_spacing_ns": _input(-1.0, 10.0)}
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
                    "eta_sw_mode": st.sampled_from(["composed", "flat_4db", "x"]),
                    **_CLOCK,
                },
            ),
            st.fixed_dictionaries(
                {
                    "bins": st.one_of(
                        st.lists(_BIN, max_size=4), st.integers(), st.none(), _BIN
                    )
                },
                optional=_CLOCK,
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


# --- the shared CSV reader -----------------------------------------------------------

_NUMBER = st.sampled_from(["1.5", "0", "2e3", " 4 ", "7"])
_CELL = st.sampled_from(["-1", "nan", "inf", "x", ""]) | _NUMBER | st.text(
    st.sampled_from('1.5 ,"\n\rab'), max_size=5
)


@st.composite
def _csv_file(draw, names):
    """The text of a CSV whose header holds names, "source" and "other" in
    any order, any of them repeated or left out, with blank lines, short and
    long rows and quoted cells, or of an empty file.  Half the files have
    only rows that the loaders accept, if the header has their columns."""
    if draw(st.integers(0, 15)) == 0:
        return ""
    header = draw(st.lists(st.sampled_from([*names, "source", "other"]), max_size=6))
    if draw(st.booleans()):
        header = draw(st.permutations([*names, *header]))
    if draw(st.booleans()):
        row = st.lists(_NUMBER, min_size=len(header), max_size=len(header) + 2)
    else:
        row = st.lists(_CELL, max_size=len(header) + 2)
    rows = draw(st.lists(st.just([]) | row, max_size=5))
    text = io.StringIO()
    csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows(
        [header, *rows]  # an empty row is a blank line
    )
    return text.getvalue()


def _dict_reader(path, required, optional, error):
    """(line number, cells) of each row as csv.DictReader gives them."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise error(f"{path}: empty file (line 1)")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise error(f"{path}: missing columns {missing} (line 1)")
        names = (*required, *optional)
        return [(reader.line_num, [row.get(n) for n in names]) for row in reader]


def _observations_by_dict_reader(path):
    by_source = {}
    rows = _dict_reader(
        path, ("power_mw", "r_trig", "r_c", "r_a"), ("source",), ObservationsParseError
    )
    for line, (*values, source) in rows:
        try:
            obs = Observation(*(float(v) for v in values))
        except (TypeError, ValueError) as exc:
            raise ObservationsParseError(f"{path}: line {line}: {exc}") from exc
        by_source.setdefault(source or "source", []).append(obs)
    return by_source


def _spectrum_by_dict_reader(path):
    samples = []
    for line, cells in _dict_reader(path, ("wavelength_nm", "counts"), (), SpectrumFitError):
        try:
            wavelength, counts = (float(c) for c in cells)
        except (TypeError, ValueError) as exc:
            raise SpectrumFitError(f"{path}: line {line}: {exc}") from exc
        if not (math.isfinite(wavelength) and math.isfinite(counts) and counts >= 0.0):
            raise SpectrumFitError(
                f"{path}: line {line}: values must be finite and "
                f"counts >= 0, got {wavelength}, {counts}"
            )
        samples.append((wavelength, counts))
    return samples


def _outcome(load, *args):
    try:
        return load(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the error
        return type(exc), str(exc)


_LOADERS = {
    "observations": (
        ("power_mw", "r_trig", "r_c", "r_a"), ("source",), ObservationsParseError,
        load_observations_csv, _observations_by_dict_reader,
    ),
    "spectrum": (
        ("wavelength_nm", "counts"), (), SpectrumFitError,
        load_spectrum_csv, _spectrum_by_dict_reader,
    ),
}


@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_loaders_read_what_dict_reader_reads(tmp_path_factory, kind, data):
    required, optional, error, load, reference = _LOADERS[kind]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with open(path, "w", newline="") as fh:
        fh.write(data.draw(_csv_file(required)))
    rows = _outcome(lambda: list(read_csv(path, required, optional, error)))
    assert rows == _outcome(_dict_reader, path, required, optional, error)
    assert _outcome(load, path) == _outcome(reference, path)
