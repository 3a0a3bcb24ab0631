"""Spans around muxsim's public functions, installed from outside the
package.

Every module-level binding of a traced function is replaced, so calls
through names imported into other modules (cli's run_pulse_train, fitting's
detected_from_true, ...) are recorded as well.  Spans nest: a span's self
time is its duration minus the durations of the traced spans it caused.
"""

import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import muxsim.cli  # noqa: F401 - loads every module whose bindings are wrapped

TRACED = {
    "eventsim.run_pulse_train": ("muxsim.eventsim", "run_pulse_train"),
    "eventsim.to_csv": ("muxsim.eventsim", "EventTrace.to_csv"),
    "mux.evaluate_mux": ("muxsim.mux", "evaluate_mux"),
    "mux.saturated_report": ("muxsim.mux", "saturated_report"),
    "hsps.seed_squeezing": ("muxsim.hsps", "seed_squeezing"),
    "hsps.calibrate_coupling": ("muxsim.hsps", "calibrate_coupling"),
    "saturation.detected_from_true": ("muxsim.saturation", "detected_from_true"),
    "fitting.fit_source": ("muxsim.fitting", "fit_source"),
    "fitting.predict_rates": ("muxsim.fitting", "predict_rates"),
    "fitting.load_observations_csv": ("muxsim.fitting", "load_observations_csv"),
    "spectral.fit_gaussian": ("muxsim.spectral", "fit_gaussian"),
    "cli.cmd_model": ("muxsim.cli", "cmd_model"),
    "cli.cmd_car": ("muxsim.cli", "cmd_car"),
    "cli.cmd_simulate": ("muxsim.cli", "cmd_simulate"),
    "cli.cmd_fit": ("muxsim.cli", "cmd_fit"),
    "cli.cmd_spectra": ("muxsim.cli", "cmd_spectra"),
    "cli.svg_line_chart": ("muxsim.cli", "svg_line_chart"),
    "cli.load_scenario": ("muxsim.cli", "load_scenario"),
}


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    # Per-call details of the spans whose metrics need more than sums.
    details: list = field(default_factory=list)


class Tracer:
    """Records spans while installed; `enabled` can pause recording."""

    def __init__(self):
        self.stats = {name: Stats() for name in TRACED}
        self.enabled = True
        self.measure_memory = False
        self._children = []  # child time accumulated per open span
        self._restore = []

    def reset(self):
        self.stats = {name: Stats() for name in TRACED}

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = _snapshot(tracer.stats["fitting.predict_rates"])
            memory = name == "eventsim.run_pulse_train" and tracer.measure_memory
            if memory:
                tracemalloc.start()
            tracer._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += dt
                stats = tracer.stats[name]
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - child
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            detail = _detail(name, args, kwargs, result, dt, before,
                             tracer.stats["fitting.predict_rates"])
            if memory:
                detail["peak_bytes"] = peak
            if detail:
                stats.details.append(detail)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = getattr(cls, meth)
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                original = getattr(owner, attr)
                wrappers[id(original)] = (original, self._wrap(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("muxsim"):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is wrappers[id(value)][0]:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []


def _snapshot(stats: Stats):
    return stats.calls, stats.total_s


def _detail(name, args, kwargs, result, dt, before, predict_stats) -> dict:
    if name == "eventsim.run_pulse_train":
        config = args[0] if args else kwargs["config"]
        return {"s": dt, "cycles": config.n_clock_cycles, "power_mw": config.reference_power_mw}
    if name == "eventsim.to_csv":
        path = args[1] if len(args) > 1 else kwargs["path"]
        return {"s": dt, "rows": args[0].n_cycles, "bytes": os.path.getsize(path)}
    if name == "fitting.fit_source":
        kind = args[1] if len(args) > 1 else kwargs["model_kind"]
        calls, total = _snapshot(predict_stats)
        return {"s": dt, "kind": kind, "iterations": result.iterations,
                "converged": result.converged, "predict_calls": calls - before[0],
                "predict_s": total - before[1]}
    return {}
