"""Simulation and analysis toolkit for actively multiplexed heralded
single-photon sources: closed-form rate models, a pulse-level Monte Carlo
simulator of the full apparatus, and parameter fitting to rate data."""

from .hsps import (
    SourceParams,
    calibrate_coupling,
    p_trig_idler,
    seed_squeezing,
)
from .mux import (
    MuxBin,
    MuxTopology,
    evaluate_mux,
    saturated_report,
    simple_mux_single_prob,
)
from .eventsim import (
    EventTrace,
    PulseTrainConfig,
    event_trace,
    route_bin,
    run_pulse_train,
)
from .report import RateReport
from .saturation import (
    DeadtimeChain,
    detected_from_true,
    true_from_detected,
)
from .spectral import (
    SpectrumModel,
    fit_gaussian,
    fit_gaussians,
    indistinguishability_table,
    overlap_gamma,
)
from .fitting import FitResult, Observation, fit_all, fit_source, r_squared

__all__ = [
    "DeadtimeChain",
    "EventTrace",
    "FitResult",
    "MuxBin",
    "MuxTopology",
    "Observation",
    "PulseTrainConfig",
    "RateReport",
    "SourceParams",
    "SpectrumModel",
    "calibrate_coupling",
    "detected_from_true",
    "evaluate_mux",
    "event_trace",
    "fit_all",
    "fit_gaussian",
    "fit_gaussians",
    "fit_source",
    "indistinguishability_table",
    "overlap_gamma",
    "p_trig_idler",
    "r_squared",
    "route_bin",
    "run_pulse_train",
    "saturated_report",
    "seed_squeezing",
    "simple_mux_single_prob",
    "true_from_detected",
]
