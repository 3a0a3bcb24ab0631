"""Seeded input generators and the operation plan of each workload.

The same (workload, seed) always gives the same files and the same plan.
The program under test only ever sees the files written here.
"""

import json
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("mc-sweep", "fit-sweep", "cli-outputs")

# The default 8-bin apparatus, written out so that the inputs stay fixed
# whatever the program's built-in defaults become.
REP_RATE_HZ = 80e6
AMPLIFIER_DEADTIMES_S = (1e-7, 1e-7)
IDLE_TIME_S = 2e-6
PUMP_FRACTIONS = (0.2375, 0.2693, 0.2258, 0.2586)
BACK_REFLECTION_FRACTION = 0.25
# (eta_i, eta_s, p_seed_mw) per delay bin.
PASS1_SOURCES = ((0.015, 0.0019, 5.2), (0.015, 0.0019, 6.8),
                 (0.016, 0.0021, 5.6), (0.017, 0.0018, 4.6))
PASS2_SOURCES = ((0.018, 0.0024, 6.3), (0.017, 0.0021, 6.7),
                 (0.016, 0.0023, 6.8), (0.015, 0.0020, 6.9))


def _eta_sw(delay_id: int) -> float:
    """Buffer fiber, three ~1 dB switches, the delay loops the path uses
    (one per set bit of 3 - delay_id), and the 0.96 MEMS asymmetry."""
    loops = bin(3 - delay_id).count("1")
    return 0.90 * 10.0 ** (-0.3) * 0.95**loops * 0.96


def default_bins() -> list:
    bins = []
    for pass_id, table in ((1, PASS1_SOURCES), (2, PASS2_SOURCES)):
        for delay_id, (eta_i, eta_s, p_seed) in enumerate(table):
            bins.append({
                "pass": pass_id, "delay": delay_id, "eta_i": eta_i,
                "eta_s": eta_s, "p_seed_mw": p_seed,
                "pump_fraction": PUMP_FRACTIONS[delay_id], "eta_sw": _eta_sw(delay_id),
                "back_reflection_fraction": BACK_REFLECTION_FRACTION if pass_id == 2 else 0.0,
            })
    return bins


def scenario(**extra) -> dict:
    doc = {
        "topology": {"bins": default_bins(), "rep_rate_hz": REP_RATE_HZ, "bin_spacing_ns": 3.0},
        "deadtime_chain_s": list(AMPLIFIER_DEADTIMES_S),
        "idle_time_s": IDLE_TIME_S,
    }
    doc.update(extra)
    return doc


# mc-sweep: reference powers and cycles per power point.
MC_POWERS_MW = (5.0, 15.0, 25.0, 40.0)
MC_CYCLES = 3_000_000
# fit-sweep: the power grid and noise of acceptance criterion 6.
FIT_POWERS_MW = tuple(np.linspace(2.0, 25.0, 12).tolist())
FIT_NOISE = 0.03
FIT_SEED = 0
# cli-outputs.
SWEEP = {"start": 0.0, "stop": 40.0, "steps": 321}
TRACE_CYCLES = 1_000_000
N_SPECTRA = 8
SPECTRUM_GRID_NM = (1545.0, 1555.0, 161)
SPECTRUM_PEAK_COUNTS = 2000.0
# The spectra do not follow the workload seed: Nelder-Mead in fit_gaussian
# takes either ~370 or ~24,500 evaluations per spectrum, depending on the
# noise draw, so seeded spectra made wall_s spread by a third across seeds.
SPECTRA_SEED = 0
# Probes: small commands that give sim_mcycles_per_s and fit_s_per_source
# a value on the workloads built around other layers.
PROBE_SIM_CYCLES = 400_000
PROBE_SIM_POWER_MW = 5.0


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _sim_scenario(path: Path, power: float, cycles: int, sim_seed: int) -> str:
    return _write_json(path, scenario(simulation={
        "cycles": cycles, "seed": sim_seed, "reference_power_mw": power}))


def _observations(path: Path, sources: dict, kind: str, powers, rng) -> dict:
    """Write one CSV of rate sweeps, generated by muxsim's own forward model
    at known parameters, with multiplicative Gaussian noise of FIT_NOISE
    (none when rng is None).  Returns the generating truth per source."""
    from muxsim.fitting import predict_rates
    from muxsim.saturation import DeadtimeChain

    chain = DeadtimeChain(AMPLIFIER_DEADTIMES_S + (IDLE_TIME_S,))
    truth = {}
    lines = ["source,power_mw,r_trig,r_c,r_a"]
    for label, (eta_i, eta_s, p_seed) in sources.items():
        f = BACK_REFLECTION_FRACTION if kind == "pass2" else 0.0
        clean = predict_rates(eta_i, eta_s, p_seed, f, powers, REP_RATE_HZ, chain)
        noisy = [c * (1.0 + rng.normal(0.0, FIT_NOISE, c.size)) if rng is not None else c
                 for c in clean]
        for i, p in enumerate(powers):
            lines.append(",".join([label, repr(float(p))] + [repr(float(x[i])) for x in noisy]))
        truth[label] = {
            "params": [eta_i, eta_s, p_seed, f],
            "clean": [c.tolist() for c in clean], "observed": [x.tolist() for x in noisy],
        }
    path.write_text("\n".join(lines) + "\n")
    return truth


def _fit_op(op_id: str, obs: str, kind: str, scen: str, out: Path, n_sources: int,
            noisy: bool, probe: bool = False) -> dict:
    return {"id": op_id, "kind": "fit", "probe": probe, "model_kind": kind,
            "sources": n_sources, "noisy": noisy, "out": str(out / op_id),
            "argv": ["fit", "--observations", obs, "--model-kind", kind,
                     "--scenario", scen, "--out", str(out / op_id)]}


def _probe_fit(d: Path, out: Path, truth: dict) -> dict:
    """Noiseless pass-1 sweep of one source at 4 powers, the fewest a fit
    takes; it does not depend on the seed."""
    scen = _write_json(d / "fit-scenario.json", scenario(simulation={"seed": FIT_SEED}))
    obs = d / "probe-observations.csv"
    truth["probe-fit"] = _observations(
        obs, {"P1D0": PASS1_SOURCES[0]}, "pass1", np.linspace(2.0, 25.0, 4), None)
    return _fit_op("probe-fit", str(obs), "pass1", scen, out, 1, noisy=False, probe=True)


def _simulate_op(op_id, scen, out, power, cycles, probe=False, trace=False) -> dict:
    argv = ["simulate", "--scenario", scen, "--out", str(out / op_id)]
    return {"id": op_id, "kind": "simulate", "probe": probe, "power_mw": power,
            "cycles": cycles, "trace": trace, "scenario": scen, "out": str(out / op_id),
            "argv": argv + (["--trace"] if trace else [])}


def _spectra(d: Path, rng) -> list:
    lo, hi, n = SPECTRUM_GRID_NM
    wl = np.linspace(lo, hi, n)
    truth = []
    for i in range(N_SPECTRA):
        center, fwhm = float(rng.uniform(1549.0, 1551.0)), float(rng.uniform(0.6, 1.2))
        sigma = fwhm * oracles.FWHM_TO_SIGMA
        counts = rng.poisson(SPECTRUM_PEAK_COUNTS * np.exp(-((wl - center) ** 2) / (2 * sigma**2)))
        rows = "".join(f"{x:.4f},{int(c)}\n" for x, c in zip(wl, counts))
        (d / f"s{i}.csv").write_text("wavelength_nm,counts\n" + rows)
        truth.append({"label": f"s{i}", "center_nm": center, "fwhm_nm": fwhm})
    return truth


def make_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under work/in and return its plan: the
    operations of one round, the files set-up parses, and the truth the
    checks compare against."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    d, out = work / "in", work / "out"
    d.mkdir(parents=True)
    out.mkdir()
    truth: dict = {}
    ops = []
    if workload == "mc-sweep":
        for power in MC_POWERS_MW:
            tag = f"p{power:02.0f}"
            scen = _sim_scenario(d / f"scenario-{tag}.json", power, MC_CYCLES,
                                 int(rng.integers(1, 2**31)))
            ops.append(_simulate_op(f"simulate-{tag}", scen, out, power, MC_CYCLES))
            ops.append({"id": f"analytic-{tag}", "kind": "analytic", "probe": False,
                        "of": f"simulate-{tag}", "scenario": scen, "power_mw": power})
        ops.append(_probe_fit(d, out, truth))
    elif workload == "fit-sweep":
        scen = _write_json(d / "fit-scenario.json", scenario(simulation={"seed": FIT_SEED}))
        probe = _sim_scenario(d / "probe-scenario.json", PROBE_SIM_POWER_MW,
                              PROBE_SIM_CYCLES, int(rng.integers(1, 2**31)))
        # Probes before, between and after the fits sample the machine's
        # speed across the whole round, as the fits do.
        ops.append(_simulate_op("probe-simulate-0", probe, out, PROBE_SIM_POWER_MW,
                                PROBE_SIM_CYCLES, probe=True))
        for n, (kind, table) in enumerate((("pass1", PASS1_SOURCES), ("pass2", PASS2_SOURCES))):
            obs = d / f"observations-{kind}.csv"
            labels = {f"P{kind[-1]}D{i}": s for i, s in enumerate(table)}
            truth[f"fit-{kind}"] = _observations(obs, labels, kind, np.array(FIT_POWERS_MW), rng)
            ops.append(_fit_op(f"fit-{kind}", str(obs), kind, scen, out, len(labels), noisy=True))
            ops.append(_simulate_op(f"probe-simulate-{n + 1}", probe, out, PROBE_SIM_POWER_MW,
                                    PROBE_SIM_CYCLES, probe=True))
    else:
        sweep = _write_json(d / "sweep-scenario.json", scenario(power_sweep_mw=SWEEP))
        trace = _sim_scenario(d / "trace-scenario.json", 5.0, TRACE_CYCLES,
                              int(rng.integers(1, 2**31)))
        (d / "spectra").mkdir()
        truth["spectra"] = _spectra(d / "spectra", np.random.default_rng(SPECTRA_SEED))
        ops = [
            {"id": "model", "kind": "model", "probe": False, "scenario": sweep, "out": str(out / "model"),
             "argv": ["model", "--scenario", sweep, "--out", str(out / "model")]},
            {"id": "car", "kind": "car", "probe": False, "of": "model", "out": str(out / "car"),
             "argv": ["car", "--scenario", sweep, "--out", str(out / "car")]},
            _simulate_op("simulate-trace", trace, out, 5.0, TRACE_CYCLES, trace=True),
            {"id": "spectra", "kind": "spectra", "probe": False, "out": str(out / "spectra"),
             "argv": ["spectra", "--spectra-dir", str(d / "spectra"), "--out", str(out / "spectra")]},
            _probe_fit(d, out, truth),
        ]
    parsed = [op["argv"][op["argv"].index(flag) + 1]
              for op in ops if not op["probe"] and "argv" in op
              for flag in ("--scenario", "--observations") if flag in op["argv"]]
    return {"workload": workload, "seed": seed, "ops": ops,
            "setup_parses": sorted(set(parsed)), "truth": truth}
