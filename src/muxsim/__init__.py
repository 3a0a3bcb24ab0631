"""Simulation and analysis toolkit for actively multiplexed heralded
single-photon sources: closed-form rate models, a pulse-level Monte Carlo
simulator of the full apparatus, and parameter fitting to rate data."""

from .hsps import (
    EmissionProbs,
    SourceParams,
    SqueezingPoint,
    calibrate_coupling,
    emission_probs,
    p_multi_signal,
    p_signal_given_no_pair_trigger,
    p_single_signal,
    p_trig_idler,
    p_trig_signal,
    pass2_trigger_split,
    rates,
    seed_squeezing,
    squeezing_from_power,
)
from .mux import (
    LossMask,
    MuxBin,
    MuxProbabilities,
    MuxTopology,
    emission_tradeoff_curve,
    evaluate_mux,
    saturated_report,
    simple_mux_single_prob,
)
from .eventsim import (
    EventTrace,
    PulseTrainConfig,
    route_bin,
    run_pulse_train,
)
from .report import RateReport
from .saturation import (
    DeadtimeChain,
    detected_from_true,
    effective_eta_i,
    true_from_detected,
)
from .spectral import (
    SpectrumModel,
    fit_gaussian,
    indistinguishability_table,
    overlap_gamma,
)
from .fitting import FitResult, Observation, fit_all, fit_source, r_squared

__all__ = [
    "DeadtimeChain",
    "EmissionProbs",
    "EventTrace",
    "FitResult",
    "LossMask",
    "MuxBin",
    "MuxProbabilities",
    "MuxTopology",
    "Observation",
    "PulseTrainConfig",
    "RateReport",
    "SourceParams",
    "SpectrumModel",
    "SqueezingPoint",
    "calibrate_coupling",
    "detected_from_true",
    "effective_eta_i",
    "emission_probs",
    "emission_tradeoff_curve",
    "evaluate_mux",
    "fit_all",
    "fit_gaussian",
    "fit_source",
    "indistinguishability_table",
    "overlap_gamma",
    "p_multi_signal",
    "p_signal_given_no_pair_trigger",
    "p_single_signal",
    "p_trig_idler",
    "p_trig_signal",
    "pass2_trigger_split",
    "r_squared",
    "rates",
    "route_bin",
    "run_pulse_train",
    "saturated_report",
    "seed_squeezing",
    "simple_mux_single_prob",
    "squeezing_from_power",
    "true_from_detected",
]
