"""Recover per-source parameters from rate observations over a power sweep.

The objective is the mean coefficient of determination across the
trigger, coincidence and accidental channels, maximized by a multi-start
derivative-free simplex search.  Rates are compared in log space when all
observations are positive so that decades are balanced.
"""

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize
from scipy.stats import qmc

from .hsps import (
    SourceParams,
    calibrate_coupling,
    seed_squeezing,
    source_probs,
    xi_from_power,
)
from .mux import saturated_rates
from .saturation import DeadtimeChain, SaturationError, true_from_detected


class FitError(RuntimeError):
    """No finite optimum could be found."""


class ObservationsParseError(ValueError):
    """Malformed observations CSV; message carries the line number."""


@dataclass(frozen=True)
class Observation:
    """One power point of measured rates."""

    reference_power_mw: float
    r_trig_hz: float
    r_c_hz: float
    r_a_hz: float

    def __post_init__(self):
        for name in ("r_trig_hz", "r_c_hz", "r_a_hz"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class FitResult:
    params: SourceParams
    r2_trig: float
    r2_c: float
    r2_a: float
    r2_mean: float
    converged: bool
    iterations: int


# Search bounds: (eta_i, eta_s, p_seed_mw[, f]).
ETA_BOUNDS = (1e-4, 0.5)
P_SEED_BOUNDS = (0.5, 50.0)
F_BOUNDS = (0.0, 1.0)
N_STARTS = 16


def r_squared(predicted: Sequence[float], observed: Sequence[float]) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot (may be negative)."""
    pred = np.asarray(predicted, dtype=float)
    obs = np.asarray(observed, dtype=float)
    if pred.shape != obs.shape or obs.size < 2:
        raise ValueError("predicted and observed must have equal length >= 2")
    ss_tot = float(np.sum((obs - obs.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("observed values are all identical; R^2 undefined")
    ss_res = float(np.sum((obs - pred) ** 2))
    return 1.0 - ss_res / ss_tot


def predict_rates(
    eta_i: float,
    eta_s: float,
    p_seed_mw: float,
    f: float,
    powers_mw: Sequence[float],
    rep_rate_hz: float,
    chain: DeadtimeChain,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Model (trigger, coincidence, accidental) rates over a power sweep,
    saturated by the deadtime chain."""
    xi = xi_from_power(calibrate_coupling(p_seed_mw), np.asarray(powers_mw, float))
    p = source_probs(xi, eta_i, eta_s, f)
    return saturated_rates(p.p_trig, p.p_c, p.p_a, rep_rate_hz, chain)


def _fold(x: float, lo: float, hi: float) -> float:
    """Reflect an unconstrained coordinate into [lo, hi]."""
    width = hi - lo
    y = (x - lo) % (2.0 * width)
    return lo + (y if y <= width else 2.0 * width - y)


def _channel_r2(
    pred: np.ndarray, obs: np.ndarray, log_space: bool
) -> Optional[float]:
    if log_space:
        if np.any(pred <= 0.0):
            return None
        return r_squared(np.log(pred), np.log(obs))
    return r_squared(pred, obs)


def _heuristic_start(
    powers: np.ndarray,
    r_trig: np.ndarray,
    r_c: np.ndarray,
    r_a: np.ndarray,
    rep_rate_hz: float,
    chain: DeadtimeChain,
    with_f: bool,
) -> np.ndarray:
    """Moment-based initial guess: CAR fixes the squeezing scale, levels
    fix the transmissions."""
    try:
        t_true = np.array([true_from_detected(r, chain) for r in r_trig])
    except SaturationError:
        t_true = r_trig.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        s_est = np.where(r_c > 0.0, r_a / r_c, np.nan)  # ~ xi^2 at low power
    valid = np.isfinite(s_est) & (s_est > 0.0) & (s_est < 0.49)
    if valid.sum() >= 2:
        xi_est = np.sqrt(s_est[valid])
        c_est = float(np.median(np.arctanh(xi_est) / np.sqrt(powers[valid])))
        p_seed = (math.atanh(seed_squeezing()) / c_est) ** 2
        eta_i = float(np.median(t_true[valid] / (rep_rate_hz * s_est[valid])))
        with np.errstate(divide="ignore", invalid="ignore"):
            eta_s = float(np.median(r_c[valid] / t_true[valid]))
    else:
        p_seed, eta_i, eta_s = 5.0, 0.02, 0.002
    start = [
        float(np.clip(eta_i, *ETA_BOUNDS)),
        float(np.clip(eta_s, *ETA_BOUNDS)),
        float(np.clip(p_seed, *P_SEED_BOUNDS)),
    ]
    if with_f:
        start.append(0.2)
    return np.array(start)


def fit_source(
    observations: Sequence[Observation],
    model_kind: str,
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float = 80e6,
    seed: int = 0,
    n_starts: int = N_STARTS,
) -> FitResult:
    """Maximize mean R^2 over (eta_i, eta_s, p_seed[, f])."""
    if model_kind not in ("pass1", "pass2"):
        raise ValueError(f"model_kind must be 'pass1' or 'pass2', got {model_kind!r}")
    if len(observations) < 4:
        raise ValueError("need at least 4 observations")
    powers = np.array([o.reference_power_mw for o in observations])
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")
    r_trig = np.array([o.r_trig_hz for o in observations])
    r_c = np.array([o.r_c_hz for o in observations])
    r_a = np.array([o.r_a_hz for o in observations])
    with_f = model_kind == "pass2"
    log_space = bool((r_trig > 0).all() and (r_c > 0).all() and (r_a > 0).all())

    bounds = [ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS] + ([F_BOUNDS] if with_f else [])
    log_scaled = [True, True, True] + ([False] if with_f else [])

    def fold_params(x: np.ndarray) -> List[float]:
        return [_fold(v, lo, hi) for v, (lo, hi) in zip(x, bounds)]

    def objective(x: np.ndarray) -> float:
        eta_i, eta_s, p_seed, *rest = fold_params(x)
        f = rest[0] if rest else 0.0
        try:
            pred = predict_rates(
                eta_i, eta_s, p_seed, f, powers, rep_rate_hz, deadtime_chain
            )
        except (ValueError, ArithmeticError):
            return 1e9
        r2s = [
            _channel_r2(p, o, log_space)
            for p, o in zip(pred, (r_trig, r_c, r_a))
        ]
        if any(v is None for v in r2s):
            return 1e9
        return -float(np.mean(r2s))

    # Latin-hypercube starts (log-spaced for the scale parameters) plus a
    # moment-based heuristic start.
    sampler = qmc.LatinHypercube(d=len(bounds), seed=seed)
    unit = sampler.random(n_starts)
    starts = []
    for row in unit:
        point = []
        for u, (lo, hi), logs in zip(row, bounds, log_scaled):
            if logs:
                point.append(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
            else:
                point.append(lo + u * (hi - lo))
        starts.append(np.array(point))
    starts.append(
        _heuristic_start(powers, r_trig, r_c, r_a, rep_rate_hz, deadtime_chain, with_f)
    )

    best = None
    for idx, x0 in enumerate(starts):
        res = minimize(
            objective, x0, method="Nelder-Mead",
            options={"maxiter": 800, "xatol": 1e-8, "fatol": 1e-10},
        )
        if best is None or res.fun < best[0]:
            best = (res.fun, idx, res)
    if best is None or best[0] >= 1e9:
        raise FitError("all starts diverged; no finite objective found")

    polish = minimize(
        objective, best[2].x, method="Nelder-Mead",
        options={"maxiter": 4000, "xatol": 1e-11, "fatol": 1e-13},
    )
    final = polish if polish.fun <= best[2].fun else best[2]
    if final.fun >= 1e9:
        raise FitError("optimum is not finite")

    eta_i, eta_s, p_seed, *rest = fold_params(final.x)
    f = rest[0] if rest else 0.0
    pred = predict_rates(eta_i, eta_s, p_seed, f, powers, rep_rate_hz, deadtime_chain)
    r2s = [
        _channel_r2(p, o, log_space)
        for p, o in zip(pred, (r_trig, r_c, r_a))
    ]
    return FitResult(
        params=SourceParams(eta_i, eta_s, p_seed, f),
        r2_trig=r2s[0],
        r2_c=r2s[1],
        r2_a=r2s[2],
        r2_mean=float(np.mean(r2s)),
        converged=bool(final.success),
        iterations=int(final.nit) + int(best[2].nit),
    )


def fit_all(
    observations_by_source: Mapping[str, Sequence[Observation]],
    model_kind_by_source: Mapping[str, str],
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float = 80e6,
    seed: int = 0,
) -> Dict[str, object]:
    """Independent fits per source; failures are recorded, not raised."""
    results: Dict[str, object] = {}
    for label, obs in observations_by_source.items():
        kind = model_kind_by_source.get(label, "pass1")
        try:
            results[label] = fit_source(
                obs, kind, deadtime_chain, rep_rate_hz, seed=seed
            )
        except (FitError, ValueError) as exc:
            results[label] = exc
    return results


def load_observations_csv(path) -> Dict[str, List[Observation]]:
    """Read (source,) power_mw, r_trig, r_c, r_a rows grouped by source."""
    required = ("power_mw", "r_trig", "r_c", "r_a")
    by_source: Dict[str, List[Observation]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ObservationsParseError(f"{path}: empty file (line 1)")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise ObservationsParseError(
                f"{path}: missing columns {missing} (line 1)"
            )
        for row in reader:
            line = reader.line_num
            try:
                obs = Observation(
                    reference_power_mw=float(row["power_mw"]),
                    r_trig_hz=float(row["r_trig"]),
                    r_c_hz=float(row["r_c"]),
                    r_a_hz=float(row["r_a"]),
                )
            except (TypeError, ValueError) as exc:
                raise ObservationsParseError(f"{path}: line {line}: {exc}") from exc
            by_source.setdefault(row.get("source") or "source", []).append(obs)
    return by_source


def write_fit_table_csv(path, results: Mapping[str, object]) -> None:
    """Emit one row per source: fitted parameters and R^2 statistics."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "source",
                "eta_i",
                "eta_s",
                "p_seed_mw",
                "back_reflection_fraction",
                "r2_trig",
                "r2_c",
                "r2_a",
                "r2_mean",
                "converged",
                "error",
            ]
        )
        for label, result in results.items():
            if isinstance(result, FitResult):
                p = result.params
                writer.writerow(
                    [
                        label,
                        f"{p.eta_i:.6g}",
                        f"{p.eta_s:.6g}",
                        f"{p.p_seed_mw:.6g}",
                        f"{p.back_reflection_fraction:.6g}",
                        f"{result.r2_trig:.6g}",
                        f"{result.r2_c:.6g}",
                        f"{result.r2_a:.6g}",
                        f"{result.r2_mean:.6g}",
                        int(result.converged),
                        "",
                    ]
                )
            else:
                writer.writerow([label] + [""] * 9 + [str(result)])
