"""Scenario-driven command-line front end.

Commands evaluate the analytic models over a power sweep, run the pulse
train simulator, fit observation CSVs, and emit CAR and spectral-overlap
reports.  CSV files are the authoritative outputs; SVG charts are
generated natively as a convenience.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import defaults
from .eventsim import PulseTrainConfig, run_pulse_train
from .fitting import load_observations_csv, fit_all, write_fit_table_csv
from .hsps import SourceParams, SourceProbs
from .mux import (
    MuxBin,
    MuxTopology,
    bin_table,
    evaluate_mux,
    extrinsic_removed,
    priority_nest,
    saturated_rates,
    saturated_report,
    switchless,
)
from .saturation import DeadtimeChain
from .spectral import fit_gaussian, indistinguishability_table


class ScenarioError(ValueError):
    """The scenario document is malformed."""


@dataclass(frozen=True)
class PowerSweep:
    start_mw: float
    stop_mw: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ScenarioError(f"steps must be >= 1, got {self.steps}")
        if self.start_mw < 0.0:
            raise ScenarioError(f"sweep must start at >= 0 mW, got {self.start_mw}")
        if self.steps > 1 and self.stop_mw <= self.start_mw:
            raise ScenarioError("power sweep must be strictly increasing")

    def powers(self) -> np.ndarray:
        return np.linspace(self.start_mw, self.stop_mw, self.steps)


@dataclass(frozen=True)
class Scenario:
    topology: MuxTopology
    sweep: PowerSweep
    deadtime_chain: DeadtimeChain  # amplifiers, then the idle window
    cycles: int
    seed: int
    reference_power_mw: float

    def __post_init__(self):
        if not any(b.pass_id == 1 for b in self.topology.bins):
            raise ScenarioError("topology needs at least one pass-1 bin (MUX4)")
        # ValueError unless the model's exact acceptance covers the chain.
        self.deadtime_chain.acceptance(0.0, self.topology.rep_rate_hz)


def _reject_unknown(obj: dict, allowed: Sequence[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown keys in {where}: {sorted(unknown)}")


def _finite(value, where: str) -> float:
    """A finite JSON number; booleans are not numbers."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ScenarioError(f"{where} must be a finite number, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    """A JSON integer; booleans and numbers written as floats are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _reject_constant(name: str):
    """json.load hook for the NaN, Infinity and -Infinity literals."""
    raise ScenarioError(f"non-finite number {name} in scenario")


def _parse_bin(obj: dict, index: int) -> MuxBin:
    where = f"topology.bins[{index}]"
    allowed = (
        "pass",
        "delay",
        "eta_i",
        "eta_s",
        "p_seed_mw",
        "back_reflection_fraction",
        "pump_fraction",
        "eta_sw",
    )
    _reject_unknown(obj, allowed, where)
    try:
        source = SourceParams(
            eta_i=_finite(obj["eta_i"], f"{where}.eta_i"),
            eta_s=_finite(obj["eta_s"], f"{where}.eta_s"),
            p_seed_mw=_finite(obj["p_seed_mw"], f"{where}.p_seed_mw"),
            back_reflection_fraction=_finite(
                obj.get("back_reflection_fraction", 0.0),
                f"{where}.back_reflection_fraction",
            ),
        )
        return MuxBin(
            pass_id=_integer(obj["pass"], f"{where}.pass"),
            delay_id=_integer(obj["delay"], f"{where}.delay"),
            source=source,
            pump_fraction=_finite(obj["pump_fraction"], f"{where}.pump_fraction"),
            eta_sw=_finite(obj["eta_sw"], f"{where}.eta_sw"),
        )
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing key {exc}") from exc


def _parse_topology(obj: dict) -> MuxTopology:
    _reject_unknown(
        obj, ("eta_sw_mode", "bins", "rep_rate_hz", "bin_spacing_ns"), "topology"
    )
    if "bins" in obj:
        if not isinstance(obj["bins"], list):
            raise ScenarioError(f"topology.bins must be a list, got {obj['bins']!r}")
        bins = tuple(_parse_bin(b, i) for i, b in enumerate(obj["bins"]))
        return MuxTopology(
            bins,
            rep_rate_hz=_finite(
                obj.get("rep_rate_hz", defaults.REP_RATE_HZ), "topology.rep_rate_hz"
            ),
            bin_spacing_s=_finite(
                obj.get("bin_spacing_ns", 3.0), "topology.bin_spacing_ns"
            )
            * 1e-9,
        )
    return defaults.default_topology(obj.get("eta_sw_mode", "composed"))


def parse_scenario(doc: dict) -> Scenario:
    allowed = (
        "topology",
        "power_sweep_mw",
        "deadtime_chain_s",
        "idle_time_s",
        "simulation",
    )
    _reject_unknown(doc, allowed, "scenario")
    sweep_obj = doc.get("power_sweep_mw", {"start": 0.0, "stop": 25.0, "steps": 26})
    _reject_unknown(sweep_obj, ("start", "stop", "steps"), "power_sweep_mw")
    sim_obj = doc.get("simulation", {})
    _reject_unknown(
        sim_obj, ("cycles", "seed", "reference_power_mw"), "simulation"
    )
    # The amplifier deadtimes, then the idle window as the chain's last stage.
    amplifiers = doc.get("deadtime_chain_s", defaults.FULL_CHAIN.stages[:-1])
    if not isinstance(amplifiers, (list, tuple)):
        raise ScenarioError(f"deadtime_chain_s must be a list, got {amplifiers!r}")
    chain = [_finite(d, "deadtime_chain_s") for d in amplifiers]
    chain.append(_finite(doc.get("idle_time_s", defaults.IDLE_TIME_S), "idle_time_s"))
    # The model types reject values outside their domain with ValueError.
    try:
        return Scenario(
            topology=_parse_topology(doc.get("topology", {})),
            sweep=PowerSweep(
                start_mw=_finite(
                    sweep_obj.get("start", 0.0), "power_sweep_mw.start"
                ),
                stop_mw=_finite(sweep_obj.get("stop", 25.0), "power_sweep_mw.stop"),
                steps=_integer(sweep_obj.get("steps", 26), "power_sweep_mw.steps"),
            ),
            deadtime_chain=DeadtimeChain(tuple(chain)),
            cycles=_integer(sim_obj.get("cycles", 1_000_000), "simulation.cycles"),
            seed=_integer(sim_obj.get("seed", 12345), "simulation.seed"),
            reference_power_mw=_finite(
                sim_obj.get("reference_power_mw", 5.0),
                "simulation.reference_power_mw",
            ),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path: Optional[str]) -> Scenario:
    if path is None:
        return parse_scenario({})
    with open(path) as fh:
        return parse_scenario(json.load(fh, parse_constant=_reject_constant))


# --- native SVG line charts -------------------------------------------------

_COLORS = (
    "#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
    "#16a085", "#7f8c8d", "#2c3e50", "#f39c12", "#3498db",
)


def svg_line_chart(
    path: Path,
    series: Dict[str, List[Tuple[float, float]]],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
) -> None:
    width, height, margin = 800, 500, 70
    points = [p for pts in series.values() for p in pts]
    if logy:
        points = [(x, y) for x, y in points if y > 0]
    if not points:
        points = [(0.0, 0.0), (1.0, 1.0)]
    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) if logy else p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="25" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2}" y="{height - 20}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="20" y="{height / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {height / 2})">{ylabel}'
        + ("(log10)" if logy else "") + "</text>",
    ]
    for i, (label, pts) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        draw = [(x, y) for x, y in pts if (y > 0 or not logy)]
        coords = " ".join(
            f"{sx(x):.2f},{sy(math.log10(y) if logy else y):.2f}" for x, y in draw
        )
        if coords:
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        lines.append(
            f'<text x="{width - margin + 5}" y="{margin + 16 * i}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


# --- model evaluation helpers ------------------------------------------------

# Rate columns of a model row: saturated, unsaturated, extrinsic removed.
_RATE_COLUMNS = (
    "r_trig_hz", "r_c_hz", "r_a_hz", "car",
    "r_trig_nosat_hz", "r_c_nosat_hz", "r_a_nosat_hz", "car_nosat",
    "r_trig_extr_hz", "r_c_extr_hz", "r_a_extr_hz", "car_extr",
)


def _model_rows(scenario: Scenario) -> List[dict]:
    """One row per (power, source) with saturated / unsaturated / extrinsic-
    removed rate variants."""
    topo = scenario.topology
    rep = topo.rep_rate_hz
    powers = scenario.sweep.powers()
    table = bin_table(topo, powers)
    extr = bin_table(extrinsic_removed(topo), powers)
    pass1 = [k for k, b in enumerate(topo.bins) if b.pass_id == 1]
    # (label, probabilities, extrinsic-removed probabilities) over the
    # powers; a single source is measured without the switch network, so it
    # has no extrinsic loss to remove.
    sources = [
        ("MUX8", priority_nest(table), priority_nest(extr)),
        ("MUX4", priority_nest(table.take(pass1)), priority_nest(extr.take(pass1))),
    ]
    solo = bin_table(switchless(topo), powers)
    sources += [
        (defaults.source_label(b.pass_id, b.delay_id), solo.take(k), solo.take(k))
        for k, b in enumerate(topo.bins)
    ]

    def per_power(probs: SourceProbs, chain: DeadtimeChain) -> List[tuple]:
        """(r_trig, r_c, r_a, CAR) at each power; CAR is None without
        accidentals."""
        r_trig, r_c, r_a = (
            x.tolist()
            for x in saturated_rates(probs.p_trig, probs.p_c, probs.p_a, rep, chain)
        )
        car = [c / a if a > 0.0 else None for c, a in zip(r_c, r_a)]
        return list(zip(r_trig, r_c, r_a, car))

    # Per source, the saturated, unsaturated and extrinsic-removed rates.
    no_chain = DeadtimeChain()
    variants = [
        (
            label,
            per_power(probs, scenario.deadtime_chain),
            per_power(probs, no_chain),
            per_power(extr_probs, no_chain),
        )
        for label, probs, extr_probs in sources
    ]
    return [
        {
            "power_mw": power,
            "source": label,
            **dict(zip(_RATE_COLUMNS, sat[i] + unsat[i] + extr_rates[i])),
        }
        for i, power in enumerate(powers)
        for label, sat, unsat, extr_rates in variants
    ]


def _write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(
                {
                    k: ("" if v is None else (f"{v:.10g}" if isinstance(v, float) else v))
                    for k, v in row.items()
                }
            )


# --- commands ----------------------------------------------------------------

def cmd_model(scenario: Scenario, out_dir: Path) -> List[Path]:
    rows = _model_rows(scenario)
    csv_path = out_dir / "rates_vs_power.csv"
    _write_csv(csv_path, list(rows[0].keys()), rows)
    series: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row["source"], []).append(
            (row["power_mw"], row["r_trig_hz"])
        )
    svg_path = out_dir / "rates_vs_power.svg"
    svg_line_chart(
        svg_path, series, "Trigger rates vs reference power",
        "reference power (mW)", "trigger rate (Hz)",
    )
    return [csv_path, svg_path]


def cmd_simulate(
    scenario: Scenario, out_dir: Path, export_trace: bool = False
) -> List[Path]:
    config = PulseTrainConfig(
        topology=scenario.topology,
        reference_power_mw=scenario.reference_power_mw,
        n_clock_cycles=scenario.cycles,
        deadtime_chain=scenario.deadtime_chain,
        rng_seed=scenario.seed,
    )
    trace, report = run_pulse_train(config)
    probs = evaluate_mux(scenario.topology, scenario.reference_power_mw)
    analytic = saturated_report(
        probs, scenario.topology.rep_rate_hz, scenario.deadtime_chain
    )
    rows = []
    for name in ("r_trig_hz", "r_coincidence_hz", "r_accidental_hz"):
        sim, ana = getattr(report, name), getattr(analytic, name)
        err = getattr(report, name.replace("_hz", "_err_hz"))
        z = (sim - ana) / err if err and err > 0 else None
        rows.append(
            {"quantity": name, "simulated": sim, "std_error": err,
             "analytic": ana, "z_score": z}
        )
        z_text = f"{z:+.2f}" if z is not None else "n/a"
        print(f"{name}: sim={sim:.6g} Hz analytic={ana:.6g} Hz z={z_text}")
    csv_path = out_dir / "simulation_report.csv"
    _write_csv(
        csv_path, ["quantity", "simulated", "std_error", "analytic", "z_score"], rows
    )
    written = [csv_path]
    if export_trace:
        trace_path = out_dir / "trace.csv"
        trace.to_csv(trace_path)
        written.append(trace_path)
    return written


def cmd_fit(
    observations_csv: str, model_kind: str, out_dir: Path, scenario: Scenario
) -> List[Path]:
    by_source = load_observations_csv(observations_csv)
    kinds = {label: model_kind for label in by_source}
    results = fit_all(
        by_source,
        kinds,
        scenario.deadtime_chain,
        rep_rate_hz=scenario.topology.rep_rate_hz,
        seed=scenario.seed,
    )
    csv_path = out_dir / "fit_results.csv"
    write_fit_table_csv(csv_path, results)
    return [csv_path]


def cmd_car(scenario: Scenario, out_dir: Path) -> List[Path]:
    rows = _model_rows(scenario)
    car_rows = []
    for row in rows:
        if row["car"] is None:
            continue
        car_rows.append(
            {
                "source": row["source"],
                "power_mw": row["power_mw"],
                "car": row["car"],
                "r_c_hz": row["r_c_hz"],
                "car_extr": row["car_extr"],
                "r_c_extr_hz": row["r_c_extr_hz"],
            }
        )
    csv_path = out_dir / "car_curves.csv"
    _write_csv(
        csv_path,
        ["source", "power_mw", "car", "r_c_hz", "car_extr", "r_c_extr_hz"],
        car_rows,
    )
    series: Dict[str, List[Tuple[float, float]]] = {}
    for row in car_rows:
        series.setdefault(row["source"], []).append((row["car"], row["r_c_hz"]))
    svg_path = out_dir / "car_curves.svg"
    svg_line_chart(
        svg_path, series, "Coincidence rate vs CAR", "CAR",
        "coincidence rate (Hz)", logy=True,
    )
    return [csv_path, svg_path]


def cmd_spectra(spectra_dir: str, out_dir: Path) -> List[Path]:
    directory = Path(spectra_dir)
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no spectra CSV files in {spectra_dir}")
    labels, models = [], []
    for file in files:
        data = np.genfromtxt(file, delimiter=",", names=True)
        samples = list(zip(data["wavelength_nm"], data["counts"]))
        model, _ = fit_gaussian(samples)
        labels.append(file.stem)
        models.append(model)
    if len(models) == 1:
        table = np.ones((1, 1))
    else:
        table = indistinguishability_table(models)
    csv_path = out_dir / "gamma_matrix.csv"
    rows = []
    for label, row in zip(labels, table):
        entry = {"source": label}
        entry.update({l: float(v) for l, v in zip(labels, row)})
        rows.append(entry)
    _write_csv(csv_path, ["source"] + labels, rows)
    return [csv_path]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="muxsim",
        description="Multiplexed heralded single-photon source toolkit",
    )
    parser.add_argument("command", choices=["model", "simulate", "fit", "car", "spectra"])
    parser.add_argument("--scenario", help="scenario JSON file (defaults built in)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, help="override simulation seed")
    parser.add_argument("--cycles", type=int, help="override simulation cycles")
    parser.add_argument("--trace", action="store_true", help="export per-cycle trace CSV")
    parser.add_argument("--observations", help="observations CSV (fit command)")
    parser.add_argument(
        "--model-kind", choices=["pass1", "pass2"], default="pass1",
        help="source model used by the fit command",
    )
    parser.add_argument("--spectra-dir", help="directory of spectrum CSVs (spectra command)")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(args.scenario)
        if args.seed is not None:
            scenario = replace(scenario, seed=args.seed)
        if args.cycles is not None:
            scenario = replace(scenario, cycles=args.cycles)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "model":
            written = cmd_model(scenario, out_dir)
        elif args.command == "simulate":
            written = cmd_simulate(scenario, out_dir, export_trace=args.trace)
        elif args.command == "fit":
            if not args.observations:
                raise ScenarioError("fit requires --observations")
            written = cmd_fit(args.observations, args.model_kind, out_dir, scenario)
        elif args.command == "car":
            written = cmd_car(scenario, out_dir)
        else:
            if not args.spectra_dir:
                raise ScenarioError("spectra requires --spectra-dir")
            written = cmd_spectra(args.spectra_dir, out_dir)
    except Exception as exc:  # noqa: BLE001 - single CLI error funnel
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
