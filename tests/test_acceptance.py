"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with the
measured figure of merit before asserting.
"""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from muxsim import (
    DeadtimeChain,
    MuxBin,
    MuxTopology,
    Observation,
    PulseTrainConfig,
    SourceParams,
    SpectrumModel,
    detected_from_true,
    evaluate_mux,
    event_trace,
    fit_source,
    overlap_gamma,
    run_pulse_train,
    saturated_report,
    seed_squeezing,
    simple_mux_single_prob,
    true_from_detected,
)
from muxsim.cli import _model_table, load_scenario, main
from muxsim.defaults import (
    FULL_CHAIN,
    PASS1_SOURCES,
    PASS2_SOURCES,
    default_topology,
)
from muxsim.fitting import predict_rates
from muxsim.hsps import emission_probs, source_probs
from muxsim.mux import saturated_rates

from conftest import mc_source_probs


def _check(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {criterion}: {status} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_core_closed_forms_match_monte_carlo():
    start = time.time()
    rng = np.random.default_rng(20240817)
    n_trials = 1_000_000
    worst = 0.0
    for case in range(20):
        xi = float(rng.uniform(0.01, 0.4))
        eta_i = float(rng.uniform(0.001, 0.9))
        eta_s = float(rng.uniform(0.001, 0.9))
        est = mc_source_probs(xi, eta_i, eta_s, n_trials, seed=5000 + case)

        p_trig, p_c, p_a = source_probs(xi, eta_i, eta_s, 0.0)
        emission = emission_probs(xi, eta_i, eta_s, 0.0)
        # The heralded conditionals are the joint probabilities over p_trig.
        p_single = emission.p_single / p_trig
        p_multi = emission.p_multi / p_trig

        zs = [
            est["p_trig"].z_against(p_trig),
            est["p_c"].z_against(p_c),
            est["p_a"].z_against(p_a),
        ]
        n_trig = est["p_single"].n
        for key, exact in (("p_single", p_single), ("p_multi", p_multi)):
            if n_trig >= 50:
                se = math.sqrt(max(exact * (1.0 - exact), 0.0) / n_trig)
                obs = est[key].value
                zs.append(0.0 if se == 0.0 and obs == exact else (obs - exact) / se)
            else:
                # too few heralds for a conditional estimate; compare joint counts
                expected = p_trig * exact * n_trials
                observed = est[key].value * n_trig
                zs.append(
                    (observed - expected) / math.sqrt(expected)
                    if expected > 0.0
                    else (0.0 if observed == 0 else math.inf)
                )
        worst = max(worst, max(abs(z) for z in zs))
    elapsed = time.time() - start
    _check(
        1,
        worst < 3.0 and elapsed < 60.0,
        f"worst |z| = {worst:.2f} over 20 parameter sets x 5 quantities, {elapsed:.1f} s",
    )


def test_criterion_02_full_mux_simulation_matches_hybrid_model():
    topology = default_topology()
    n = 1_000_000
    config = PulseTrainConfig(topology, 5.0, n, FULL_CHAIN, rng_seed=12345)
    trace, _ = event_trace(config)
    analytic = saturated_report(evaluate_mux(topology, 5.0), 80e6, FULL_CHAIN)
    zs = []
    for count, rate_hz in (
        (int(trace.accepted.sum()), analytic.r_trig_hz),
        (int(trace.signal_click.sum()), analytic.r_coincidence_hz),
        (int(trace.accidental_click.sum()), analytic.r_accidental_hz),
    ):
        expected = rate_hz / 80e6 * n
        zs.append((count - expected) / math.sqrt(expected) if expected > 0 else 0.0)
    worst = max(abs(z) for z in zs)
    _check(
        2,
        worst < 3.0,
        "trig/coincidence/accidental z = "
        + ", ".join(f"{z:+.2f}" for z in zs)
        + f" at {n} cycles",
    )


def test_trigger_rate_matches_simulation_across_power_sweep():
    # 1e8 cycles per power resolve the trigger rate to 0.2-0.5%, well inside
    # the 3-7% by which the deadtime saturation changes it over this sweep.
    topology = default_topology()
    zs = []
    for power in (5.0, 15.0, 25.0, 40.0):
        config = PulseTrainConfig(topology, power, 10**8, FULL_CHAIN, rng_seed=12345)
        _, report = run_pulse_train(config)
        p_trig = evaluate_mux(topology, power).p_trig
        analytic = saturated_rates(p_trig, 0.0, 0.0, 80e6, FULL_CHAIN)[0]
        zs.append((report.r_trig_hz - analytic) / report.r_trig_err_hz)
    _check(
        "2 (power sweep)",
        all(abs(z) < 3.0 for z in zs),
        "r_trig z = " + ", ".join(f"{z:+.2f}" for z in zs) + " at 5, 15, 25, 40 mW",
    )


def test_criterion_03_calibration_anchor():
    xi = seed_squeezing()
    _check(3, abs(xi - 0.335715) <= 5e-6, f"xi_seed = {xi:.8f} vs 0.335715 +/- 5e-6")


def test_criterion_04_heralded_single_emission_bound():
    xis = np.linspace(0.0, 0.999, 100)
    etas = np.linspace(0.0, 1.0, 100)
    # Per clock, a herald with exactly one signal photon delivered.
    per_clock = emission_probs(xis[:, None], etas, etas, 0.0).p_single
    peak = float(per_clock.max())
    _check(4, peak <= 0.25 + 1e-12, f"grid maximum per-clock single emission = {peak:.6f}")


def test_criterion_05_seventeen_bin_headline():
    value = simple_mux_single_prob(0.25, 17, 1.0)
    _check(5, value >= 0.99, f"1 - 0.75^17 = {value:.5f}")


def test_criterion_06_fit_round_trips():
    start = time.time()
    powers = np.linspace(2.0, 25.0, 12)
    tables = [(PASS1_SOURCES, "pass1"), (PASS2_SOURCES, "pass2")]

    worst_clean = worst_f = 0.0
    min_r2_clean = 1.0
    for sources, kind in tables:
        for source in sources.values():
            truth = (
                source.eta_i,
                source.eta_s,
                source.p_seed_mw,
                source.back_reflection_fraction,
            )
            trig, c, a = predict_rates(*truth, powers, 80e6, FULL_CHAIN)
            obs = [
                Observation(p, t, cc, aa)
                for p, t, cc, aa in zip(powers, trig, c, a)
            ]
            result = fit_source(obs, kind, FULL_CHAIN, seed=0)
            fitted = result.params
            worst_clean = max(
                worst_clean,
                abs(fitted.eta_i / truth[0] - 1.0),
                abs(fitted.eta_s / truth[1] - 1.0),
                abs(fitted.p_seed_mw / truth[2] - 1.0),
            )
            if kind == "pass2":
                worst_f = max(
                    worst_f, abs(fitted.back_reflection_fraction / truth[3] - 1.0)
                )
            min_r2_clean = min(min_r2_clean, result.r2_mean)

    noise_rng = np.random.default_rng(6)
    worst_noisy = 0.0
    min_r2_noisy = 1.0
    for sources, kind in tables:
        for source in sources.values():
            truth = (
                source.eta_i,
                source.eta_s,
                source.p_seed_mw,
                source.back_reflection_fraction,
            )
            trig, c, a = predict_rates(*truth, powers, 80e6, FULL_CHAIN)
            obs = [
                Observation(
                    p,
                    t * (1.0 + noise_rng.normal(0.0, 0.03)),
                    cc * (1.0 + noise_rng.normal(0.0, 0.03)),
                    aa * (1.0 + noise_rng.normal(0.0, 0.03)),
                )
                for p, t, cc, aa in zip(powers, trig, c, a)
            ]
            result = fit_source(obs, kind, FULL_CHAIN, seed=0)
            fitted = result.params
            worst_noisy = max(
                worst_noisy,
                abs(fitted.eta_i / truth[0] - 1.0),
                abs(fitted.eta_s / truth[1] - 1.0),
                abs(fitted.p_seed_mw / truth[2] - 1.0),
            )
            min_r2_noisy = min(min_r2_noisy, result.r2_mean)

    elapsed = time.time() - start
    ok = (
        worst_clean <= 0.05
        and min_r2_clean >= 0.999
        and worst_f <= 0.20
        and worst_noisy <= 0.15
        and min_r2_noisy >= 0.98
        and elapsed < 300.0
    )
    _check(
        6,
        ok,
        f"noiseless worst err {worst_clean:.4f} (R2 >= {min_r2_clean:.4f}), "
        f"f err {worst_f:.4f}, noisy worst err {worst_noisy:.3f} "
        f"(R2 >= {min_r2_noisy:.4f}), {elapsed:.0f} s",
    )


def test_fit_recovers_simulated_source():
    # Closed loop: one pass-1 bin (pump fraction 1, eta_sw 1) simulated at 12
    # powers, 1e8 cycles each, then fitted.  Over 20 seed sets the parameter
    # errors reached 8.2% and the trigger-rate scale eta_i / p_seed 1.6% with
    # the exact saturation model; the stage-by-stage Poisson model put that
    # scale 3.7-7.1% off on every one of them.
    truth = PASS1_SOURCES[0]
    topology = MuxTopology((MuxBin(1, 0, truth, 1.0, 1.0),), 80e6, 3e-9)
    obs = []
    for i, power in enumerate(np.linspace(2.0, 25.0, 12)):
        config = PulseTrainConfig(topology, power, 10**8, FULL_CHAIN, rng_seed=100 + i)
        _, report = run_pulse_train(config)
        obs.append(
            Observation(
                power, report.r_trig_hz, report.r_coincidence_hz, report.r_accidental_hz
            )
        )
    fitted = fit_source(obs, "pass1", FULL_CHAIN, seed=0).params
    errors = [
        fitted.eta_i / truth.eta_i - 1.0,
        fitted.eta_s / truth.eta_s - 1.0,
        fitted.p_seed_mw / truth.p_seed_mw - 1.0,
    ]
    scale = (fitted.eta_i / fitted.p_seed_mw) / (truth.eta_i / truth.p_seed_mw) - 1.0
    _check(
        "6 (closed loop)",
        max(abs(e) for e in errors) < 0.10 and abs(scale) < 0.025,
        "eta_i, eta_s, p_seed errors "
        + ", ".join(f"{e:+.4f}" for e in errors)
        + f" (bound 0.10), eta_i / p_seed error {scale:+.4f} (bound 0.025)",
    )


def test_criterion_07_saturation_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        chain = DeadtimeChain(tuple(rng.uniform(1e-8, 3e-6, rng.integers(1, 5))))
        true_rate = float(rng.uniform(1e3, 2e6))
        recovered = true_from_detected(detected_from_true(true_rate, chain), chain)
        worst = max(worst, abs(recovered - true_rate) / true_rate)
    half = detected_from_true(5e5, DeadtimeChain((2e-6,)))
    _check(
        7,
        worst <= 1e-9 and half == 2.5e5,
        f"worst round-trip rel err = {worst:.2e}; dT=1 gives {half:.1f} Hz",
    )


def test_criterion_08_spectral_overlap_oracle():
    def quadrature(a, b):
        def amp(model):
            s = model.sigma_nm
            norm = (2.0 * math.pi * s * s) ** -0.25
            return lambda x: norm * math.exp(-((x - model.center_nm) ** 2) / (4.0 * s * s))

        fa, fb = amp(a), amp(b)
        lo = min(a.center_nm, b.center_nm) - 12.0 * max(a.sigma_nm, b.sigma_nm)
        hi = max(a.center_nm, b.center_nm) + 12.0 * max(a.sigma_nm, b.sigma_nm)
        val, _ = quad(lambda x: fa(x) * fb(x), lo, hi, epsabs=1e-13, epsrel=1e-13)
        return val * val

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(30):
        a = SpectrumModel(float(rng.uniform(1540, 1560)), float(rng.uniform(0.3, 3.0)), 1.0)
        b = SpectrumModel(
            a.center_nm + float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 3.0)), 1.0
        )
        worst = max(worst, abs(overlap_gamma(a, b) - quadrature(a, b)))
    identical = overlap_gamma(a, a)
    _check(
        8,
        worst <= 1e-8 and identical == 1.0,
        f"worst closed-form vs quadrature gap = {worst:.2e}; gamma(a,a) = {identical}",
    )


def _car_rate_curves(table):
    """Per source, one dict of the model's columns at each power."""
    powers, labels, columns = table
    return {
        label: [
            {"power_mw": power, **{k: v[i, j] for k, v in columns.items()}}
            for i, power in enumerate(powers)
        ]
        for j, label in enumerate(labels)
    }


def _interp_log(points, car):
    cars = np.array([c for c, _ in points])
    rates = np.array([r for _, r in points])
    order = np.argsort(cars)
    cars, rates = cars[order], rates[order]
    if car < cars[0] or car > cars[-1]:
        return None
    return float(np.exp(np.interp(math.log(car), np.log(cars), np.log(rates))))


def test_criterion_09_figure_shape_reproduction():
    scenario = load_scenario(None)
    by_source = _car_rate_curves(_model_table(scenario))
    single_labels = [k for k in by_source if k.startswith("P")]

    # (a) peak trigger-rate enhancement over the best single source
    enhancements = []
    for i, row in enumerate(by_source["MUX8"]):
        if row["power_mw"] == 0.0:
            continue
        best = max(by_source[k][i]["r_trig_hz"] for k in single_labels)
        enhancements.append((row["r_trig_hz"] / best - 1.0) * 100.0)
    peak = max(enhancements)
    ok_a = 290.0 * 0.7 <= peak <= 290.0 * 1.3

    # (b) coincidence-rate ratio at matched CAR in the low-power window
    def car_curve(label, car_key, rate_key):
        return [
            (row[car_key], row[rate_key])
            for row in by_source[label]
            if row[car_key] is not None and row[car_key] > 0.0
        ]

    def matched_ratios(car_key, rate_key):
        mux = car_curve("MUX8", car_key, rate_key)
        singles = [car_curve(k, car_key, rate_key) for k in single_labels]
        ratios = {}
        for car_target in (20.0, 30.0, 50.0, 70.0, 100.0):
            mux_rate = _interp_log(mux, car_target)
            bests = [r for r in (_interp_log(s, car_target) for s in singles) if r]
            if mux_rate is not None and bests:
                ratios[car_target] = mux_rate / max(bests)
        return ratios

    ratios = matched_ratios("car", "r_c_hz")
    ok_b = len(ratios) >= 3 and all(1.1 <= r <= 2.2 for r in ratios.values())

    # (c) removing the multiplexed channel's extra measurement loss must
    # increase the matched-CAR enhancement
    ratios_extr = matched_ratios("car_extr", "r_c_extr_hz")
    shared = set(ratios) & set(ratios_extr)
    ok_c = bool(shared) and all(ratios_extr[c] > ratios[c] for c in shared)

    _check(
        9,
        ok_a and ok_b and ok_c,
        f"peak enhancement {peak:.0f}% (band 203-377); matched-CAR ratios "
        + ", ".join(f"{c:g}:{r:.2f}" for c, r in sorted(ratios.items()))
        + f"; loss-removed ratios higher at {len(shared)} CAR points: {ok_c}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(
            {
                "power_sweep_mw": {"start": 0.0, "stop": 25.0, "steps": 11},
                "simulation": {"cycles": 200_000, "seed": 12345, "reference_power_mw": 5.0},
            }
        )
    )
    obs_path = tmp_path / "obs.csv"
    powers = np.linspace(2.0, 20.0, 6)
    trig, c, a = predict_rates(0.015, 0.0019, 5.2, 0.0, powers, 80e6, FULL_CHAIN)
    obs_path.write_text(
        "source,power_mw,r_trig,r_c,r_a\n"
        + "".join(
            f"P1D0,{p},{t},{cc},{aa}\n" for p, t, cc, aa in zip(powers, trig, c, a)
        )
    )

    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["model", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert main(["simulate", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert main(["car", "--scenario", str(scenario_path), "--out", str(out)]) == 0
        assert main(
            ["fit", "--observations", str(obs_path), "--out", str(out),
             "--scenario", str(scenario_path)]
        ) == 0
        outputs.append(out)

    names = [
        "rates_vs_power.csv",
        "rates_vs_power.svg",
        "simulation_report.csv",
        "car_curves.csv",
        "car_curves.svg",
        "fit_results.csv",
    ]
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in names
    )
    _check(10, identical, f"{len(names)} output files byte-identical across reruns")
