"""Checks of each command's output files against the oracles and against
properties the method must have.  Every check returns a list of problems;
an empty list means the output passed."""

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracles

# Acceptance criterion 6's gates: (max relative parameter error, min R^2)
# for noiseless and for noisy observations.
GATES = {False: (0.05, 0.999), True: (0.15, 0.98)}
# A maximiser of mean R^2 must score at least as well as the generating
# parameters do on the same data; this slack only covers rounding.
R2_SLACK = 1e-4
# Absolute tolerance on gamma for spectra with SPECTRUM_PEAK_COUNTS counts.
GAMMA_TOL = 0.02


def _rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _report(op) -> dict:
    rows = _rows(Path(op["out"]) / "simulation_report.csv")
    return {r["quantity"]: r for r in rows}


def herald_window(scenario_path: str, power_mw: float):
    """(lower, upper) accepted-herald rate in Hz for the scenario's apparatus."""
    doc = json.loads(Path(scenario_path).read_text())
    rep = doc["topology"]["rep_rate_hz"]
    p = oracles.mux_herald_prob(doc["topology"]["bins"], power_mw)
    amps = [oracles.blocked_cycles(d, rep) for d in doc["deadtime_chain_s"]]
    lo, hi = oracles.renewal_window(p, amps, oracles.blocked_cycles(doc["idle_time_s"], rep))
    return lo * rep, hi * rep


def check_simulate(op) -> list:
    """Simulated trigger rate inside the renewal window, within three of its
    own standard errors; coincidences and accidentals need a trigger."""
    rep = _report(op)
    lo, hi = herald_window(op["scenario"], op["power_mw"])
    trig = float(rep["r_trig_hz"]["simulated"])
    err = float(rep["r_trig_hz"]["std_error"])
    problems = []
    if not lo - 3 * err <= trig <= hi + 3 * err:
        problems.append(f"{op['id']}: r_trig {trig:.6g} Hz outside [{lo:.6g}, {hi:.6g}] +- 3 x {err:.3g}")
    for q in ("r_coincidence_hz", "r_accidental_hz"):
        if float(rep[q]["simulated"]) > trig:
            problems.append(f"{op['id']}: {q} exceeds r_trig")
    if op.get("trace"):
        problems += check_trace(op, rep)
    return problems


def check_analytic(op, simulate_op) -> list:
    """The analytic trigger rate `simulate` reports must lie in the window."""
    ana = float(_report(simulate_op)["r_trig_hz"]["analytic"])
    lo, hi = herald_window(op["scenario"], op["power_mw"])
    if lo <= ana <= hi:
        return []
    return [f"{op['id']}: analytic r_trig {ana:.7g} Hz outside renewal window "
            f"[{lo:.7g}, {hi:.7g}] ({ana / hi - 1:+.2%} from the upper bound)"]


def check_trace(op, report) -> list:
    path = Path(op["out"]) / "trace.csv"
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64)
    col = {name: data[:, i] for i, name in enumerate(header)}
    n, problems = op["cycles"], []
    if data.shape[0] != n or not np.array_equal(col["cycle"], np.arange(n)):
        return [f"{op['id']}: trace has {data.shape[0]} rows, expected cycles 0..{n - 1}"]
    doc = json.loads(Path(op["scenario"]).read_text())
    rep = doc["topology"]["rep_rate_hz"]
    for q, name in (("r_trig_hz", "accepted"), ("r_coincidence_hz", "signal_click"),
                    ("r_accidental_hz", "accidental_click")):
        from_trace = float(f"{int(col[name].sum()) * rep / n:.10g}")
        if from_trace != float(report[q]["simulated"]):
            problems.append(f"{op['id']}: {name} column gives {from_trace} Hz, report {report[q]['simulated']}")
    gap = 1 + oracles.blocked_cycles(doc["idle_time_s"], rep)
    accepted = np.flatnonzero(col["accepted"])
    if accepted.size > 1 and np.diff(accepted).min() < gap:
        problems.append(f"{op['id']}: accepted heralds {np.diff(accepted).min()} cycles apart, < {gap}")
    for name in ("signal_click", "accidental_click"):
        if np.any(col[name].astype(bool) & ~col["accepted"].astype(bool)):
            problems.append(f"{op['id']}: {name} on a cycle without an accepted herald")
    return problems


def check_fit(op, truth) -> list:
    """Criterion 6's gates against the generating parameters.  On noisy
    pass-2 sweeps only eta_i is gated: eta_s, p_seed and f trade off against
    each other within the noise (see the benchmark's README)."""
    rows = {r["source"]: r for r in _rows(Path(op["out"]) / "fit_results.csv")}
    max_err, min_r2 = GATES[op["noisy"]]
    problems = []
    for label, t in truth.items():
        row = rows.get(label)
        if row is None or row["error"]:
            problems.append(f"{op['id']}: {label} not fitted: {row and row['error']}")
            continue
        fitted = [float(row[k]) for k in ("eta_i", "eta_s", "p_seed_mw")]
        gated = fitted[:1] if op["noisy"] and op["model_kind"] == "pass2" else fitted
        errs = [abs(v / p - 1.0) for v, p in zip(gated, t["params"])]
        r2 = float(row["r2_mean"])
        r2_truth = float(np.mean([oracles.log_r_squared(np.array(c), np.array(o))
                                  for c, o in zip(t["clean"], t["observed"])]))
        if max(errs) > max_err:
            problems.append(f"{op['id']}: {label} parameter error {max(errs):.3f} > {max_err}")
        if r2 < min_r2 or r2 < r2_truth - R2_SLACK:
            problems.append(f"{op['id']}: {label} R2 {r2} below {min_r2} or the truth's {r2_truth:.6f}")
    return problems


def check_model(op) -> list:
    doc = json.loads(Path(op["scenario"]).read_text())
    bins, rep = doc["topology"]["bins"], doc["topology"]["rep_rate_hz"]
    rows = _rows(Path(op["out"]) / "rates_vs_power.csv")
    problems, last = [], {}
    for row in rows:
        power, src = float(row["power_mw"]), row["source"]
        vals = {k: float(v) for k, v in row.items() if k not in ("source", "power_mw") and v != ""}
        if not all(math.isfinite(v) and v >= 0.0 for v in vals.values()):
            problems.append(f"model: {src} at {power} mW has a negative or non-finite rate")
        for q in ("r_trig", "r_c", "r_a"):
            if vals[f"{q}_hz"] > vals[f"{q}_nosat_hz"]:
                problems.append(f"model: {src} at {power} mW saturated {q} above unsaturated")
        if src in ("MUX8", "MUX4"):
            subset = bins if src == "MUX8" else [b for b in bins if b["pass"] == 1]
            want = rep * oracles.mux_herald_prob(subset, power)
            if not math.isclose(vals["r_trig_nosat_hz"], want, rel_tol=1e-9, abs_tol=1e-300):
                problems.append(f"model: {src} at {power} mW r_trig_nosat {vals['r_trig_nosat_hz']} != {want}")
        trig = [vals[k] for k in ("r_trig_hz", "r_trig_nosat_hz", "r_trig_extr_hz")]
        if src in last and any(a < b for a, b in zip(trig, last[src])):
            problems.append(f"model: {src} trigger rate falls at {power} mW")
        last[src] = trig
    expected = doc["power_sweep_mw"]["steps"] * (2 + len(bins))
    if len(rows) != expected:
        problems.append(f"model: {len(rows)} rows, expected {expected}")
    return problems


def check_car(op, model_op) -> list:
    model = _rows(Path(model_op["out"]) / "rates_vs_power.csv")
    car = _rows(Path(op["out"]) / "car_curves.csv")
    keys = ("source", "power_mw", "car", "r_c_hz", "car_extr", "r_c_extr_hz")
    want = [tuple(r[k] for k in keys) for r in model if r["car"] != ""]
    got = [tuple(r[k] for k in keys) for r in car]
    return [] if got == want else [f"car: {len(got)} rows differ from the {len(want)} model rows with a CAR"]


def check_spectra(op, truth) -> list:
    rows = _rows(Path(op["out"]) / "gamma_matrix.csv")
    labels = [t["label"] for t in truth]
    if [r["source"] for r in rows] != labels:
        return [f"spectra: rows {[r['source'] for r in rows]} != {labels}"]
    g = np.array([[float(r[l]) for l in labels] for r in rows])
    problems = []
    if not np.array_equal(g, g.T) or not np.all(np.diag(g) == 1.0):
        problems.append("spectra: gamma matrix is not symmetric with a unit diagonal")
    want = np.array([[oracles.overlap_gamma(a["center_nm"], a["fwhm_nm"], b["center_nm"], b["fwhm_nm"])
                      for b in truth] for a in truth])
    worst = float(np.abs(g - want).max())
    if worst > GAMMA_TOL:
        problems.append(f"spectra: gamma differs from the generating spectra's by {worst:.4f} > {GAMMA_TOL}")
    return problems
