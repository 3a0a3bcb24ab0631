"""Command-line front end: determinism, outputs, and failure modes."""

import csv
import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from muxsim import calibrate_coupling, evaluate_mux, p_trig_idler
from muxsim.cli import _model_table, main, parse_scenario
from muxsim.defaults import MEMS_ASYMMETRY, source_label
from muxsim.hsps import source_probs, xi_from_power
from muxsim.mux import bin_pump_power_mw
from muxsim.spectral import (
    SpectrumModel,
    fit_gaussian,
    indistinguishability_table,
    load_spectrum_csv,
)


def _scenario(tmp_path, **overrides):
    doc = {
        "power_sweep_mw": {"start": 0.0, "stop": 20.0, "steps": 6},
        "simulation": {"cycles": 100_000, "seed": 7, "reference_power_mw": 5.0},
    }
    doc.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- model ---------------------------------------------------------------------

def test_model_outputs_and_zero_power_row(tmp_path):
    out = tmp_path / "out"
    assert main(["model", "--scenario", _scenario(tmp_path), "--out", str(out)]) == 0
    rows = _read_rows(out / "rates_vs_power.csv")
    svg = (out / "rates_vs_power.svg").read_text()
    assert svg.startswith("<svg")
    zero_rows = [r for r in rows if float(r["power_mw"]) == 0.0]
    assert zero_rows and all(float(r["r_trig_hz"]) == 0.0 for r in zero_rows)
    assert zero_rows[0]["car"] == ""


def test_model_rows_match_per_power_evaluations():
    # Every row of the sweep equals the model evaluated at that one power.
    scenario = parse_scenario({"power_sweep_mw": {"start": 0.0, "stop": 30.0, "steps": 4}})
    topo = scenario.topology
    rep = topo.rep_rate_hz
    extr = replace(
        topo,
        bins=tuple(
            replace(b, eta_sw=min(b.eta_sw / MEMS_ASYMMETRY, 1.0)) for b in topo.bins
        ),
    )
    expected = {}
    for power in scenario.sweep.powers():
        for label, plain, removed in (
            ("MUX8", topo, extr),
            ("MUX4", topo.subset(1), extr.subset(1)),
        ):
            probs, probs_extr = evaluate_mux(plain, power), evaluate_mux(removed, power)
            expected[label, power] = (
                rep * probs.p_trig, rep * probs.p_c, rep * probs_extr.p_a
            )
        for b in topo.bins:
            source = b.source
            c = calibrate_coupling(source.p_seed_mw)
            single = source_probs(
                xi_from_power(c, bin_pump_power_mw(b, power)),
                source.eta_i,
                source.eta_s,
                source.back_reflection_fraction,
            )
            expected[source_label(b.pass_id, b.delay_id), power] = (
                rep * single.p_trig, rep * single.p_c, rep * single.p_a
            )
    powers, labels, columns = _model_table(scenario)
    assert powers.size * len(labels) == len(expected)
    for (i, power), (j, label) in itertools.product(enumerate(powers), enumerate(labels)):
        r_trig, r_c, r_a_extr = expected[label, power]
        row = {name: column[i, j] for name, column in columns.items()}
        assert row["r_trig_nosat_hz"] == pytest.approx(r_trig, rel=1e-12, abs=0.0)
        assert row["r_c_nosat_hz"] == pytest.approx(r_c, rel=1e-12, abs=0.0)
        assert row["r_a_extr_hz"] == pytest.approx(r_a_extr, rel=1e-12, abs=0.0)


def test_model_single_step_sweep(tmp_path):
    scenario = _scenario(tmp_path, power_sweep_mw={"start": 5.0, "stop": 5.0, "steps": 1})
    out = tmp_path / "out"
    assert main(["model", "--scenario", scenario, "--out", str(out)]) == 0
    rows = _read_rows(out / "rates_vs_power.csv")
    # one row per source label (MUX8, MUX4, eight singles)
    assert len(rows) == 10
    assert len({r["source"] for r in rows}) == 10


def test_mux_trigger_curve_dominates_singles(tmp_path):
    out = tmp_path / "out"
    assert main(["model", "--scenario", _scenario(tmp_path), "--out", str(out)]) == 0
    rows = _read_rows(out / "rates_vs_power.csv")
    by_power = {}
    for r in rows:
        by_power.setdefault(r["power_mw"], {})[r["source"]] = float(r["r_trig_hz"])
    for power, sources in by_power.items():
        if float(power) == 0.0:
            continue
        singles = [v for k, v in sources.items() if k.startswith("P")]
        assert sources["MUX8"] > max(singles)


# --- simulate -------------------------------------------------------------------

def test_simulate_report_and_z_scores(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", _scenario(tmp_path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "z=" in printed
    rows = _read_rows(out / "simulation_report.csv")
    assert [r["quantity"] for r in rows] == [
        "r_trig_hz",
        "r_coincidence_hz",
        "r_accidental_hz",
    ]
    trig = rows[0]
    assert abs(float(trig["z_score"])) < 5.0


def test_simulate_trace_export(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scenario", _scenario(tmp_path), "--out", str(out),
         "--cycles", "5000", "--trace"]
    )
    assert code == 0
    rows = _read_rows(out / "trace.csv")
    assert len(rows) == 5000


def test_simulate_zero_cycles_fails(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["simulate", "--scenario", _scenario(tmp_path), "--out", str(out), "--cycles", "0"]
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "cycles" in err["detail"]


# --- determinism ------------------------------------------------------------------

def test_reruns_are_byte_identical(tmp_path):
    scenario = _scenario(tmp_path)
    dirs = (tmp_path / "a", tmp_path / "b")
    for out in dirs:
        assert main(["model", "--scenario", scenario, "--out", str(out)]) == 0
        assert main(["simulate", "--scenario", scenario, "--out", str(out)]) == 0
        assert main(["car", "--scenario", scenario, "--out", str(out)]) == 0
    for name in (
        "rates_vs_power.csv",
        "rates_vs_power.svg",
        "simulation_report.csv",
        "car_curves.csv",
        "car_curves.svg",
    ):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_seed_override_changes_simulation(tmp_path):
    scenario = _scenario(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", scenario, "--out", str(out_a)]) == 0
    assert main(
        ["simulate", "--scenario", scenario, "--out", str(out_b), "--seed", "8"]
    ) == 0
    assert (out_a / "simulation_report.csv").read_bytes() != (
        out_b / "simulation_report.csv"
    ).read_bytes()


# --- car --------------------------------------------------------------------------

def test_car_column_decreases_with_power(tmp_path):
    scenario = _scenario(
        tmp_path, power_sweep_mw={"start": 1.0, "stop": 20.0, "steps": 8}
    )
    out = tmp_path / "out"
    assert main(["car", "--scenario", scenario, "--out", str(out)]) == 0
    rows = _read_rows(out / "car_curves.csv")
    by_source = {}
    for r in rows:
        by_source.setdefault(r["source"], []).append(
            (float(r["power_mw"]), float(r["car"]))
        )
    for series in by_source.values():
        series.sort()
        cars = [c for _, c in series]
        assert all(b < a for a, b in zip(cars, cars[1:]))


# --- fit --------------------------------------------------------------------------

def test_fit_round_trip_via_cli(tmp_path):
    from muxsim.fitting import predict_rates
    from muxsim.defaults import FULL_CHAIN

    powers = np.linspace(2.0, 20.0, 6)
    trig, c, a = predict_rates(0.015, 0.0019, 5.2, 0.0, powers, 80e6, FULL_CHAIN)
    obs_path = tmp_path / "obs.csv"
    lines = ["source,power_mw,r_trig,r_c,r_a"]
    for p, t, cc, aa in zip(powers, trig, c, a):
        lines.append(f"P1D0,{p},{t},{cc},{aa}")
    obs_path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "out"
    code = main(
        ["fit", "--observations", str(obs_path), "--model-kind", "pass1",
         "--out", str(out)]
    )
    assert code == 0
    rows = _read_rows(out / "fit_results.csv")
    assert len(rows) == 1
    assert float(rows[0]["eta_i"]) == pytest.approx(0.015, rel=0.05)
    assert float(rows[0]["r2_mean"]) >= 0.999


def test_fit_empty_file_fails_with_parse_error(tmp_path, capsys):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("")
    code = main(["fit", "--observations", str(obs_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ObservationsParseError"


def test_fit_header_only_gives_empty_table(tmp_path):
    obs_path = tmp_path / "obs.csv"
    obs_path.write_text("power_mw,r_trig,r_c,r_a\n")
    out = tmp_path / "out"
    assert main(["fit", "--observations", str(obs_path), "--out", str(out)]) == 0
    assert len(_read_rows(out / "fit_results.csv")) == 0


def test_fit_requires_observations(tmp_path, capsys):
    assert main(["fit", "--out", str(tmp_path / "o")]) == 1
    assert "observations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    ["8.0,nan,1000.0,10.0", "8.0,inf,1000.0,10.0", "nan,1e5,1000.0,10.0", "-1.0,1e5,1000.0,10.0"],
    ids=["nan-rate", "inf-rate", "nan-power", "negative-power"],
)
def test_fit_rejects_non_finite_or_negative_observation(tmp_path, capsys, row):
    obs_path = tmp_path / "obs.csv"
    good = [f"{p},{p * 1e4},{p * 100},{p * p}" for p in (2.0, 4.0, 6.0)]
    obs_path.write_text("\n".join(["power_mw,r_trig,r_c,r_a", *good, row]) + "\n")
    out = tmp_path / "o"
    assert main(["fit", "--observations", str(obs_path), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ObservationsParseError"
    assert "line 5" in err["detail"]
    assert not (out / "fit_results.csv").exists()


# --- spectra -------------------------------------------------------------------------

def _write_spectrum(path, model, n=60):
    wl = np.linspace(model.center_nm - 3.0, model.center_nm + 3.0, n)
    with open(path, "w") as fh:
        fh.write("wavelength_nm,counts\n")
        for x, y in zip(wl, model.intensity(wl)):
            fh.write(f"{x},{y}\n")


def test_spectra_single_file(tmp_path):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    _write_spectrum(spectra / "s0.csv", SpectrumModel(1550.0, 0.9, 100.0))
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 0
    rows = _read_rows(out / "gamma_matrix.csv")
    assert len(rows) == 1
    assert float(rows[0]["s0"]) == 1.0


def test_spectra_duplicated_pair(tmp_path):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    model = SpectrumModel(1550.0, 0.9, 100.0)
    _write_spectrum(spectra / "s0.csv", model)
    _write_spectrum(spectra / "s1.csv", model)
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 0
    rows = _read_rows(out / "gamma_matrix.csv")
    assert float(rows[0]["s1"]) == pytest.approx(1.0, abs=1e-9)


def _spectrum_lines():
    wl = np.linspace(1548.0, 1552.0, 41)
    counts = 100.0 * np.exp(-((wl - 1550.0) ** 2) / 0.5)
    return ["wavelength_nm,counts"] + [f"{x:.4f},{y}" for x, y in zip(wl, counts)]


def _replace_line(lines, number, text):
    lines = list(lines)
    lines[number - 1] = text
    return lines


@pytest.mark.parametrize(
    "lines, where",
    [
        (["wl,counts", "1550.0,3.0"], "line 1"),
        (["wavelength_nm,counts", "1550.0,3.0"], "4 distinct wavelengths"),
        (_replace_line(_spectrum_lines(), 22, "1550.0000,nan"), "line 22"),
        (_replace_line(_spectrum_lines(), 22, "1550.0000,oops"), "line 22"),
        (_replace_line(_spectrum_lines(), 22, "inf,3.0"), "line 22"),
        (_replace_line(_spectrum_lines(), 22, "1550.0000,-3.0"), "line 22"),
    ],
    ids=["missing-column", "one-row", "nan-count", "unparsable-count", "inf-wavelength",
         "negative-count"],
)
def test_spectra_rejects_bad_files(tmp_path, capsys, lines, where):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    _write_spectrum(spectra / "good.csv", SpectrumModel(1550.0, 0.9, 100.0))
    (spectra / "bad.csv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpectrumFitError"
    assert str(spectra / "bad.csv") in err["detail"] and where in err["detail"]
    assert not (out / "gamma_matrix.csv").exists()


def test_spectra_of_two_sample_counts_match_lone_fits(tmp_path):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    for i, (n, params) in enumerate(
        [(61, (1550.0, 0.9, 100.0)), (41, (1550.2, 0.8, 90.0)),
         (61, (1549.9, 1.0, 120.0)), (41, (1550.1, 0.95, 80.0))]
    ):
        _write_spectrum(spectra / f"s{i}.csv", SpectrumModel(*params), n=n)
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 0
    files = sorted(spectra.glob("*.csv"))
    lone = [fit_gaussian(load_spectrum_csv(f))[0] for f in files]
    table = indistinguishability_table(lone)
    rows = _read_rows(out / "gamma_matrix.csv")
    assert [row["source"] for row in rows] == [f.stem for f in files]
    for row, expected in zip(rows, table):
        assert [row[f.stem] for f in files] == ["%.10g" % g for g in expected]


_CONSTANT = ["wavelength_nm,counts"] + [f"{1550 + i},5.0" for i in range(10)]
_UNPARSABLE = _replace_line(_spectrum_lines(), 7, "1550.0000,oops")


@pytest.mark.parametrize(
    "first, second, where",
    [
        (_CONSTANT, _UNPARSABLE, "constant counts"),
        (_UNPARSABLE, _CONSTANT, "line 7"),
        (_CONSTANT, _CONSTANT, "constant counts"),
        (_UNPARSABLE, _UNPARSABLE, "line 7"),
    ],
    ids=["unfittable-then-unparsable", "unparsable-then-unfittable", "two-unfittable",
         "two-unparsable"],
)
def test_spectra_names_the_first_bad_file(tmp_path, capsys, first, second, where):
    spectra = tmp_path / "spectra"
    spectra.mkdir()
    _write_spectrum(spectra / "a.csv", SpectrumModel(1550.0, 0.9, 100.0))
    (spectra / "b.csv").write_text("\n".join(first) + "\n")
    (spectra / "c.csv").write_text("\n".join(second) + "\n")
    out = tmp_path / "out"
    assert main(["spectra", "--spectra-dir", str(spectra), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpectrumFitError"
    assert err["detail"].startswith(f"{spectra / 'b.csv'}: ") and where in err["detail"]
    assert str(spectra / "c.csv") not in err["detail"]


def test_spectra_missing_directory_fails(tmp_path, capsys):
    code = main(
        ["spectra", "--spectra-dir", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    )
    assert code == 1
    assert capsys.readouterr().err


# --- scenario validation -----------------------------------------------------------------

def test_unknown_scenario_key_rejected(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"power_sweep": {"start": 0.0}}))
    assert main(["model", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "unknown keys" in json.loads(capsys.readouterr().err)["detail"]


@pytest.mark.parametrize(
    "command, text",
    [
        ("model", '{"deadtime_chain_s": [NaN]}'),
        ("model", '{"idle_time_s": Infinity}'),
        ("model", '{"power_sweep_mw": {"start": 0, "stop": 1e999, "steps": 3}}'),
        ("simulate", '{"simulation": {"cycles": 1e5}}'),
        ("simulate", '{"simulation": {"cycles": true}}'),
        ("model", '{"power_sweep_mw": {"steps": "5"}}'),
        ("model", '{"deadtime_chain_s": 1e-7}'),
        ("simulate", '{"simulation": 5}'),
    ],
)
def test_non_finite_or_mistyped_scenario_values_rejected(
    tmp_path, capsys, command, text
):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ScenarioError"
    assert not (tmp_path / "o").exists()


_PASS2_BIN = {
    "pass": 2, "delay": 0, "eta_i": 0.1, "eta_s": 0.01, "p_seed_mw": 5.0,
    "pump_fraction": 0.5, "eta_sw": 0.8,
}


@pytest.mark.parametrize(
    "text",
    [
        '{"power_sweep_mw": {"start": -1, "stop": 5, "steps": 3}}',
        '{"idle_time_s": -1e-6}',
        '{"deadtime_chain_s": [-1e-7]}',
        '{"topology": {"eta_sw_mode": "other"}}',
        json.dumps({"topology": {"bins": [_PASS2_BIN]}}),
        json.dumps({"topology": {"bins": [{**_PASS2_BIN, "pass": 1, "eta_i": 1.5}]}}),
        '{"topology": {"bins": 5}}',
        # Amplifier blocks of 8 and 40 cycles rising to the 160-cycle window:
        # three stages that can block, beyond the exact acceptance.
        '{"deadtime_chain_s": [1e-7, 5e-7]}',
        # An idle window of 8e7 cycles, past the renewal sum's table limit.
        '{"idle_time_s": 1.0}',
    ],
)
def test_out_of_domain_scenario_values_rejected(tmp_path, capsys, text):
    # Values the model types reject, a topology without the pass-1 bins that
    # MUX4 needs, and a chain the model cannot cover fail at parse time like
    # malformed ones.
    test_non_finite_or_mistyped_scenario_values_rejected(
        tmp_path, capsys, "model", text
    )


def test_back_reflection_beyond_a_probability_rejected(tmp_path, capsys):
    # f * p_trig > 1 fails every command at parse time, with the largest
    # value: at the 25 mW top of the default sweep, 12.5 mW on this bin.
    bin_ = {**_PASS2_BIN, "pass": 1, "back_reflection_fraction": 5000.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"topology": {"bins": [bin_]}}))
    xi = xi_from_power(calibrate_coupling(5.0), 12.5)
    largest = 5000.0 * p_trig_idler(xi, 0.1)
    for command in ("model", "car", "simulate"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ScenarioError"
        prefix = "f * p_trig reaches "
        assert error["detail"].startswith(prefix)
        value = float(error["detail"][len(prefix):].split()[0])
        assert value == pytest.approx(largest, rel=1e-12)
    assert not (tmp_path / "o").exists()


def test_decreasing_sweep_rejected(tmp_path, capsys):
    scenario = _scenario(
        tmp_path, power_sweep_mw={"start": 10.0, "stop": 5.0, "steps": 4}
    )
    assert main(["model", "--scenario", scenario, "--out", str(tmp_path / "o")]) == 1
    assert "increasing" in json.loads(capsys.readouterr().err)["detail"]


def test_explicit_bin_topology_parses(tmp_path):
    scenario = _scenario(
        tmp_path,
        topology={
            "bins": [
                {
                    "pass": 1,
                    "delay": 3,
                    "eta_i": 0.1,
                    "eta_s": 0.01,
                    "p_seed_mw": 5.0,
                    "pump_fraction": 0.9,
                    "eta_sw": 0.8,
                }
            ]
        },
    )
    out = tmp_path / "out"
    assert main(["model", "--scenario", scenario, "--out", str(out)]) == 0
    rows = _read_rows(out / "rates_vs_power.csv")
    # MUX of one pass-1 bin: labels MUX8, MUX4, P1D3
    assert {r["source"] for r in rows} == {"MUX8", "MUX4", "P1D3"}
