"""Runs one workload's rounds in this process through muxsim.cli.main.

Usage: python3 bench/worker.py PLAN.json SECONDS TRACE RESULT.json

A round runs every operation of the plan once.  A run makes the whole
number of rounds whose timed commands come closest to SECONDS, at least
one, so the share of failed operations never depends on run length.
Checks run outside the timed region.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time

import checks
from muxsim.cli import main


def run_op(op) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        t0 = time.perf_counter()
        code = main(op["argv"])
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue()


def check(op, by_id, truth) -> list:
    kind = op["kind"]
    if kind == "simulate":
        return checks.check_simulate(op)
    if kind == "fit":
        return checks.check_fit(op, truth[op["id"]])
    if kind == "model":
        return checks.check_model(op)
    if kind == "car":
        return checks.check_car(op, by_id[op["of"]])
    return checks.check_spectra(op, truth["spectra"])


class Runner:
    def __init__(self, plan, tracer=None):
        self.plan = plan
        self.by_id = {op["id"]: op for op in plan["ops"]}
        self.tracer = tracer
        self.attempted = 0
        self.failed = []
        self.problems = []
        self.rounds = []  # per round: {op id: seconds}

    def round(self) -> dict:
        times, codes = {}, {}
        for op in self.plan["ops"]:
            if op["kind"] == "analytic":
                continue
            if self.tracer:
                self.tracer.enabled = not op["probe"]
            codes[op["id"]], times[op["id"]], log = run_op(op)
            if codes[op["id"]] != 0:
                self.failed.append(f"{op['id']}: exit {codes[op['id']]}: {log.strip()[-300:]}")
        if self.tracer:
            self.tracer.enabled = True
        for op in self.plan["ops"]:
            self.attempted += 1
            if op["kind"] == "analytic":
                if codes[op["of"]] == 0:
                    self.failed += checks.check_analytic(op, self.by_id[op["of"]])
                else:
                    self.failed.append(f"{op['id']}: no report from {op['of']}")
        self.rounds.append(times)
        return codes

    def run(self, seconds: float, after_round=lambda: None) -> dict:
        """The whole number of rounds (at least one) whose timed commands
        come closest to SECONDS; returns the last round's exit codes."""
        start = len(self.rounds)
        while True:
            codes = self.round()
            after_round()
            done = [sum(t.values()) for t in self.rounds[start:]]
            if sum(done) + statistics.mean(done) / 2 >= seconds:
                return codes

    def check_outputs(self, codes):
        """Outputs are deterministic, so the last round's files stand for all."""
        for op in self.plan["ops"]:
            if op["kind"] != "analytic" and codes[op["id"]] == 0:
                self.problems += check(op, self.by_id, self.plan["truth"])

    def wall_s(self, rounds) -> float:
        main_ops = [op["id"] for op in self.plan["ops"] if not op["probe"] and op["kind"] != "analytic"]
        return statistics.median(sum(r[i] for i in main_ops) for r in rounds)

    def per_unit(self, kind: str, unit: str) -> float:
        """Median over rounds of a kind's time per unit (cycles or sources);
        probes stand in only where the workload has no such command itself."""
        ops = [op for op in self.plan["ops"] if op["kind"] == kind]
        ops = [op for op in ops if not op["probe"]] or ops
        units = sum(op[unit] for op in ops)
        return statistics.median(sum(r[op["id"]] for op in ops) / units for r in self.rounds)


def end_to_end(runner: Runner) -> dict:
    return {
        "wall_s": runner.wall_s(runner.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mcycles_per_s": 1e-6 / runner.per_unit("simulate", "cycles"),
        "fit_s_per_source": runner.per_unit("fit", "sources"),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(stats) -> dict:
    """Per-layer figures of one traced round; 0 where the layer did not run."""
    m = {}
    sims = stats["eventsim.run_pulse_train"].details
    for tag, power in (("p05", 5.0), ("p40", 40.0)):
        at = [d for d in sims if d["power_mw"] == power]
        m[f"eventsim.run_pulse_train.mcycles_per_s.{tag}"] = _ratio(
            sum(d["cycles"] for d in at) / 1e6, sum(d["s"] for d in at))
    csvs = stats["eventsim.to_csv"].details
    m["eventsim.to_csv.s"] = sum(d["s"] for d in csvs)
    m["eventsim.to_csv.mrows_per_s"] = _ratio(sum(d["rows"] for d in csvs) / 1e6, m["eventsim.to_csv.s"])
    m["eventsim.trace_csv_mb"] = sum(d["bytes"] for d in csvs) / 1e6
    for name in ("mux.evaluate_mux", "saturation.detected_from_true"):
        m[f"{name}.calls"] = stats[name].calls
        m[f"{name}.us_per_call"] = _ratio(stats[name].total_s * 1e6, stats[name].calls)
    for name in ("mux.saturated_report", "hsps.seed_squeezing", "hsps.calibrate_coupling"):
        m[f"{name}.calls"] = stats[name].calls
    fits = stats["fitting.fit_source"].details
    for kind in ("pass1", "pass2"):
        m[f"fitting.fit_source.s.{kind}"] = _ratio(
            sum(d["s"] for d in fits if d["kind"] == kind), sum(d["kind"] == kind for d in fits))
    predict = stats["fitting.predict_rates"]
    m["fitting.predict_rates.calls_per_fit"] = _ratio(sum(d["predict_calls"] for d in fits), len(fits))
    m["fitting.predict_rates.us_per_call"] = _ratio(predict.total_s * 1e6, predict.calls)
    m["fitting.predict_rates.share_of_fit"] = _ratio(
        sum(d["predict_s"] for d in fits), sum(d["s"] for d in fits))
    m["fitting.iterations_per_fit"] = _ratio(sum(d["iterations"] for d in fits), len(fits))
    m["fitting.converged_fits"] = sum(d["converged"] for d in fits)
    gauss = stats["spectral.fit_gaussian"]
    m["spectral.fit_gaussian.s_per_file"] = _ratio(gauss.total_s, gauss.calls)
    for cmd in ("model", "car", "simulate", "fit", "spectra"):
        m[f"cli.cmd_{cmd}.self_s"] = stats[f"cli.cmd_{cmd}"].self_s
    for name in ("cli.svg_line_chart", "cli.load_scenario", "fitting.load_observations_csv"):
        m[f"{name}.s"] = stats[name].total_s
    return m


COUNTS = ("mux.evaluate_mux.calls", "mux.saturated_report.calls", "hsps.seed_squeezing.calls",
          "hsps.calibrate_coupling.calls", "saturation.detected_from_true.calls",
          "fitting.predict_rates.calls_per_fit", "fitting.iterations_per_fit",
          "fitting.converged_fits")


def traced(plan, seconds: float):
    """Untraced rounds for half the time, then traced rounds for the other
    half; the difference of their median wall_s is the tracing overhead."""
    import tracing

    tracer = tracing.Tracer()
    runner = Runner(plan, tracer)
    runner.run(seconds / 2)
    untraced = len(runner.rounds)
    per_round = []

    def collect():
        per_round.append(layer_metrics(tracer.stats))
        tracer.reset()

    tracer.install()
    try:
        codes = runner.run(seconds / 2, collect)
        # One more run of the workload's largest simulation with tracemalloc
        # on, outside the rounds so that its cost moves no timing.
        sims = [op for op in plan["ops"] if op["kind"] == "simulate" and not op["probe"]]
        bytes_per_cycle = 0.0
        if sims:
            op = max(sims, key=lambda o: o["cycles"])
            tracer.reset()
            tracer.measure_memory = True
            code, _, log = run_op(op)
            if code == 0:
                peak = tracer.stats["eventsim.run_pulse_train"].details[0]["peak_bytes"]
                bytes_per_cycle = peak / op["cycles"]
            else:
                runner.problems.append(f"memory run of {op['id']} failed: {log[-300:]}")
    finally:
        tracer.uninstall()
    runner.check_outputs(codes)
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    for k in COUNTS:
        metrics[k] = per_round[0][k]
        if len({r[k] for r in per_round}) > 1:
            runner.problems.append(f"{k} differs between rounds: {[r[k] for r in per_round]}")
    metrics["eventsim.run_pulse_train.rss_bytes_per_cycle"] = bytes_per_cycle
    metrics["trace_overhead_s"] = (runner.wall_s(runner.rounds[untraced:])
                                   - runner.wall_s(runner.rounds[:untraced]))
    return runner, metrics


def main_worker(argv) -> int:
    plan_path, seconds, trace, result_path = argv
    plan = json.loads(open(plan_path).read())
    if trace == "1":
        runner, metrics = traced(plan, float(seconds))
    else:
        runner = Runner(plan)
        codes = runner.run(float(seconds))
        metrics = end_to_end(runner)
        runner.check_outputs(codes)
    with open(result_path, "w") as fh:
        json.dump({"attempted": runner.attempted, "failed": runner.failed,
                   "problems": runner.problems, "metrics": metrics,
                   "rounds": len(runner.rounds)}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main_worker(sys.argv[1:]))
