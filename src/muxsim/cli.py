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
    BIN_SPACING_S,
    REP_RATE_HZ,
    MuxBin,
    MuxTopology,
    bin_probs,
    bin_table,
    bin_xi,
    evaluate_mux,
    extrinsic_removed,
    priority_nest,
    saturated_rates,
    saturated_report,
    switchless,
)
from .report import open_output, write_csv
from .saturation import DeadtimeChain
from .spectral import (
    SpectrumFitError,
    fit_gaussians,
    indistinguishability_table,
    load_spectrum_csv,
)


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
        if self.cycles < 1:
            raise ScenarioError(f"cycles must be >= 1, got {self.cycles}")
        if self.seed < 0:
            raise ScenarioError(f"simulation.seed must be >= 0, got {self.seed}")
        if self.reference_power_mw < 0.0:
            raise ScenarioError(
                f"reference_power_mw must be >= 0, got {self.reference_power_mw}"
            )
        if not any(b.pass_id == 1 for b in self.topology.bins):
            raise ScenarioError("topology needs at least one pass-1 bin (MUX4)")
        # ValueError unless the model's exact acceptance covers the chain.
        saturated_rates(0.0, 0.0, 0.0, self.topology.rep_rate_hz, self.deadtime_chain)
        # ValueError unless f * p_trig <= 1 in every bin at every power the
        # commands evaluate; p_trig rises with power, so the highest decides.
        top = max(self.sweep.powers()[-1], self.reference_power_mw)
        bin_table(self.topology, [top])


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
    if "bins" not in obj:
        bins = defaults.default_topology(obj.get("eta_sw_mode", "composed")).bins
    elif "eta_sw_mode" in obj:
        raise ScenarioError("topology takes eta_sw_mode or bins, not both")
    elif not isinstance(obj["bins"], list):
        raise ScenarioError(f"topology.bins must be a list, got {obj['bins']!r}")
    else:
        bins = tuple(_parse_bin(b, i) for i, b in enumerate(obj["bins"]))
    rate_hz = _finite(obj.get("rep_rate_hz", REP_RATE_HZ), "topology.rep_rate_hz")
    spacing_s = BIN_SPACING_S
    if "bin_spacing_ns" in obj:
        spacing_s = _finite(obj["bin_spacing_ns"], "topology.bin_spacing_ns") * 1e-9
    return MuxTopology(bins, rate_hz, spacing_s)


def parse_scenario(doc: dict) -> Scenario:
    allowed = (
        "topology",
        "power_sweep_mw",
        "deadtime_chain_s",
        "idle_time_s",
        "simulation",
    )
    _reject_unknown(doc, allowed, "scenario")
    sweep_obj = doc.get("power_sweep_mw", {})
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
                start_mw=_finite(sweep_obj.get("start", 0.0), "power_sweep_mw.start"),
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
    # utf-8-sig: a leading byte-order mark, as some editors write, is dropped.
    with open(path, encoding="utf-8-sig") as fh:
        return parse_scenario(json.load(fh, parse_constant=_reject_constant))


# --- native SVG line charts -------------------------------------------------

_COLORS = (
    "#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
    "#16a085", "#7f8c8d", "#2c3e50", "#f39c12", "#3498db",
)


def svg_line_chart(
    path: Path,
    series: Dict[str, Tuple[np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    logy: bool = False,
) -> None:
    """One polyline per label through its (x, y) arrays; with logy, points
    with y <= 0 are left out and y is drawn as log10(y)."""
    width, height, margin = 800, 500, 70
    drawn = {}
    for label, (x, y) in series.items():
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if logy:
            # math.log10: np.log10 differs from it in the last bit for some y.
            keep = y > 0
            x, y = x[keep], np.array([math.log10(v) for v in y[keep].tolist()])
        drawn[label] = (x, y)
    xs = np.concatenate([np.empty(0), *(x for x, _ in drawn.values())])
    ys = np.concatenate([np.empty(0), *(y for _, y in drawn.values())])
    x_lo, x_hi, y_lo, y_hi = (
        (xs.min(), xs.max(), ys.min(), ys.max()) if xs.size else (0.0, 1.0, 0.0, 1.0)
    )
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

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
    for i, (label, (x, y)) in enumerate(drawn.items()):
        color = _COLORS[i % len(_COLORS)]
        if x.size:
            points = np.empty((x.size, 2))
            points[:, 0] = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
            points[:, 1] = (
                height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
            )
            coords = " ".join(["%.2f,%.2f"] * x.size) % tuple(points.ravel().tolist())
            lines.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        lines.append(
            f'<text x="{width - margin + 5}" y="{margin + 16 * i}" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    lines.append("</svg>")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


# --- model table -------------------------------------------------------------

# Suffixes of the rate columns: saturated, unsaturated, extrinsic removed.
_VARIANTS = ("", "_nosat", "_extr")


def _model_table(
    scenario: Scenario,
) -> Tuple[np.ndarray, List[str], Dict[str, np.ndarray]]:
    """The sweep's powers, the source labels (MUX8, MUX4, then each bin) and
    one (n_powers, n_sources) array per rate column, for the saturated,
    unsaturated and extrinsic-removed variants; CAR is NaN where r_a = 0."""
    topo = scenario.topology
    rep = topo.rep_rate_hz
    powers = scenario.sweep.powers()
    pass1 = [k for k, b in enumerate(topo.bins) if b.pass_id == 1]
    labels = ["MUX8", "MUX4"]
    labels += [defaults.source_label(b.pass_id, b.delay_id) for b in topo.bins]
    # The three topologies differ only in eta_sw, so they share one squeezing
    # table.  A single source is measured without the switch network, so it
    # has no extrinsic loss to remove.
    xi = bin_xi(topo, powers)
    solo = bin_probs(switchless(topo), xi)

    def by_source(table: SourceProbs) -> List[np.ndarray]:
        """p_trig, p_c and p_a of MUX8, MUX4 and each single source."""
        mux8, mux4 = priority_nest(table), priority_nest(table.take(pass1))
        return [np.column_stack(p) for p in zip(mux8, mux4, solo)]

    plain = by_source(bin_probs(topo, xi))
    extr = by_source(bin_probs(extrinsic_removed(topo), xi))
    no_chain = DeadtimeChain()
    variants = (
        saturated_rates(*plain, rep, scenario.deadtime_chain),
        saturated_rates(*plain, rep, no_chain),
        saturated_rates(*extr, rep, no_chain),
    )
    columns = {}
    for suffix, (r_trig, r_c, r_a) in zip(_VARIANTS, variants):
        car = np.divide(r_c, r_a, out=np.full_like(r_c, np.nan), where=r_a > 0.0)
        columns.update(
            {f"r_trig{suffix}_hz": r_trig, f"r_c{suffix}_hz": r_c,
             f"r_a{suffix}_hz": r_a, f"car{suffix}": car}
        )
    return powers, labels, columns


# --- commands ----------------------------------------------------------------

def cmd_model(scenario: Scenario, out_dir: Path) -> List[Path]:
    powers, labels, columns = _model_table(scenario)
    csv_path = out_dir / "rates_vs_power.csv"
    write_csv(
        csv_path,
        ["power_mw", "source", *columns],
        [np.repeat(powers, len(labels)), labels * powers.size,
         *(column.ravel() for column in columns.values())],
    )
    trig = columns["r_trig_hz"]
    svg_path = out_dir / "rates_vs_power.svg"
    svg_line_chart(
        svg_path, {label: (powers, trig[:, j]) for j, label in enumerate(labels)},
        "Trigger rates vs reference power", "reference power (mW)", "trigger rate (Hz)",
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
    trace_path = out_dir / "trace.csv" if export_trace else None
    _, report = run_pulse_train(config, trace_path)
    probs = evaluate_mux(scenario.topology, scenario.reference_power_mw)
    analytic = saturated_report(
        probs, scenario.topology.rep_rate_hz, scenario.deadtime_chain
    )
    names = ["r_trig_hz", "r_coincidence_hz", "r_accidental_hz"]
    values = []
    for name in names:
        sim, ana = getattr(report, name), getattr(analytic, name)
        err = getattr(report, name.replace("_hz", "_err_hz"))
        z = (sim - ana) / err if err and err > 0 else None
        values.append((sim, err, ana, math.nan if z is None else z))
        z_text = f"{z:+.2f}" if z is not None else "n/a"
        print(f"{name}: sim={sim:.6g} Hz analytic={ana:.6g} Hz z={z_text}")
    csv_path = out_dir / "simulation_report.csv"
    write_csv(
        csv_path,
        ["quantity", "simulated", "std_error", "analytic", "z_score"],
        [names, *np.array(values, dtype=float).T],
    )
    return [csv_path, trace_path] if export_trace else [csv_path]


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
    powers, labels, columns = _model_table(scenario)
    car, r_c = columns["car"], columns["r_c_hz"]
    keep = ~np.isnan(car)
    at_power, of_source = np.nonzero(keep)
    names = ["car", "r_c_hz", "car_extr", "r_c_extr_hz"]
    csv_path = out_dir / "car_curves.csv"
    write_csv(
        csv_path,
        ["source", "power_mw", *names],
        [[labels[j] for j in of_source.tolist()], powers[at_power],
         *(columns[name][keep] for name in names)],
    )
    series = {
        label: (car[keep[:, j], j], r_c[keep[:, j], j])
        for j, label in enumerate(labels)
        if keep[:, j].any()
    }
    svg_path = out_dir / "car_curves.svg"
    svg_line_chart(
        svg_path, series, "Coincidence rate vs CAR", "CAR",
        "coincidence rate (Hz)", logy=True,
    )
    return [csv_path, svg_path]


def cmd_spectra(spectra_dir: str, out_dir: Path) -> List[Path]:
    files = sorted(Path(spectra_dir).glob("*.csv"))
    if not files:
        raise FileNotFoundError(f"no spectra CSV files in {spectra_dir}")
    # Each file is read just before it is checked, so the first bad file
    # fails first, whether it cannot be read or cannot be fitted.
    try:
        fitted = fit_gaussians(load_spectrum_csv(file) for file in files)
    except SpectrumFitError as exc:
        if exc.index is None:  # a read error, which names its file
            raise
        raise SpectrumFitError(f"{files[exc.index]}: {exc}") from exc
    labels = [file.stem for file in files]
    models = [model for model, _ in fitted]
    table = np.ones((1, 1)) if len(models) == 1 else indistinguishability_table(models)
    csv_path = out_dir / "gamma_matrix.csv"
    write_csv(csv_path, ["source", *labels], [labels, *table.T])
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
