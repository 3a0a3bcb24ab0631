"""Recover per-source parameters from rate observations over a power sweep.

The objective is the mean coefficient of determination across the
trigger, coincidence and accidental channels, compared in log space when
all observations are positive so that decades are balanced.  Maximizing it
is a weighted least-squares problem, solved from several starts by bounded
trust-region reflective steps (Branch, Coleman & Li, SIAM J. Sci. Comput.
21, 1999); the Jacobian at the optimum gives each parameter a standard error.
"""

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares
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
    """Fitted parameters, per-channel R^2 and the best start's solver state:
    ``converged`` is its least-squares ``status > 0``, ``iterations`` its
    ``nfev`` (finite-difference Jacobian evaluations not counted).  The
    ``rel_se_*`` fields are first-order relative standard errors (inf where
    undetermined); ``rel_se_f`` is None for pass-1 fits."""

    params: SourceParams
    r2_trig: float
    r2_c: float
    r2_a: float
    r2_mean: float
    converged: bool
    iterations: int
    rel_se_eta_i: float
    rel_se_eta_s: float
    rel_se_p_seed: float
    rel_se_f: Optional[float]


# Search bounds: (eta_i, eta_s, p_seed_mw[, f]).
ETA_BOUNDS = (1e-4, 0.5)
P_SEED_BOUNDS = (0.5, 50.0)
F_BOUNDS = (0.0, 1.0)
N_STARTS = 16
# Residual where the model cannot be evaluated: far above any prediction's,
# so a start that only finds such points loses to every other start.
FAILED_RESIDUAL = 1e10


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


def _standard_errors(jac: np.ndarray, cost: float) -> np.ndarray:
    """Standard errors of the fit coordinates, s^2 (J^T J)^-1 with
    s^2 = sum r^2 / (m - n); inf where J^T J does not determine them."""
    m, n = jac.shape
    try:
        var = 2.0 * cost / (m - n) * np.diag(np.linalg.inv(jac.T @ jac))
    except np.linalg.LinAlgError:
        return np.full(n, np.inf)
    return np.sqrt(np.where(var >= 0.0, var, np.inf))


def _heuristic_start(
    powers: np.ndarray,
    r_trig: np.ndarray,
    r_c: np.ndarray,
    r_a: np.ndarray,
    rep_rate_hz: float,
    chain: DeadtimeChain,
    with_f: bool,
) -> np.ndarray:
    """Moment-based initial guess in fit coordinates: CAR fixes the
    squeezing scale, levels fix the transmissions."""
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
    start = np.log(
        [
            np.clip(eta_i, *ETA_BOUNDS),
            np.clip(eta_s, *ETA_BOUNDS),
            np.clip(p_seed, *P_SEED_BOUNDS),
        ]
    )
    return np.append(start, 0.2) if with_f else start


def fit_source(
    observations: Sequence[Observation],
    model_kind: str,
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float = 80e6,
    seed: int = 0,
    n_starts: int = N_STARTS,
) -> FitResult:
    """Maximize mean R^2 over (eta_i, eta_s, p_seed[, f]).

    The residuals r_k = (g(pred_k) - g(obs_k)) / sqrt(3 SS_tot,k), with g
    = log when every observation is positive and the identity otherwise,
    have 1 - sum r^2 = mean R^2.  They are minimized over (log eta_i,
    log eta_s, log p_seed[, f]) within the search bounds from
    Latin-hypercube starts plus a moment-based one; the best start wins.
    """
    if model_kind not in ("pass1", "pass2"):
        raise ValueError(f"model_kind must be 'pass1' or 'pass2', got {model_kind!r}")
    if len(observations) < 4:
        raise ValueError("need at least 4 observations")
    powers = np.array([o.reference_power_mw for o in observations])
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")
    observed = np.array([[o.r_trig_hz, o.r_c_hz, o.r_a_hz] for o in observations]).T
    with_f = model_kind == "pass2"
    log_space = bool((observed > 0.0).all())
    target = np.log(observed) if log_space else observed
    ss_tot = np.sum((target - target.mean(axis=1, keepdims=True)) ** 2, axis=1)
    if np.any(ss_tot == 0.0):
        raise ValueError("observed values are all identical; R^2 undefined")
    weight = 1.0 / np.sqrt(3.0 * ss_tot)[:, None]
    # ValueError now, not a diverged fit, for a chain the model cannot cover.
    deadtime_chain.acceptance(0.0, rep_rate_hz)

    def params(x: np.ndarray) -> Tuple[float, float, float, float]:
        eta_i, eta_s, p_seed = np.exp(x[:3])
        return eta_i, eta_s, p_seed, (x[3] if with_f else 0.0)

    def residuals(x: np.ndarray) -> np.ndarray:
        try:
            pred = np.stack(
                predict_rates(*params(x), powers, rep_rate_hz, deadtime_chain)
            )
        except (ValueError, ArithmeticError):
            return np.full(target.size, FAILED_RESIDUAL)
        if log_space:
            if np.any(pred <= 0.0):
                return np.full(target.size, FAILED_RESIDUAL)
            pred = np.log(pred)
        return ((pred - target) * weight).ravel()

    bounds = np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T
    if with_f:
        bounds = np.column_stack([bounds, F_BOUNDS])

    # Latin-hypercube starts (log-spaced for the scale parameters) plus a
    # moment-based heuristic start.
    sampler = qmc.LatinHypercube(d=bounds.shape[1], seed=seed)
    starts = list(qmc.scale(sampler.random(n_starts), *bounds))
    starts.append(
        _heuristic_start(powers, *observed, rep_rate_hz, deadtime_chain, with_f)
    )

    best = None
    for x0 in starts:
        res = least_squares(residuals, x0, bounds=bounds, method="trf", x_scale="jac")
        if best is None or res.cost < best.cost:
            best = res
    if best.cost >= 0.5 * target.size * FAILED_RESIDUAL**2:
        raise FitError("all starts diverged; no finite objective found")

    r2 = 1.0 - 3.0 * np.sum(best.fun.reshape(3, -1) ** 2, axis=1)
    eta_i, eta_s, p_seed, f = params(best.x)
    se = _standard_errors(best.jac, best.cost)
    return FitResult(
        params=SourceParams(float(eta_i), float(eta_s), float(p_seed), float(f)),
        r2_trig=float(r2[0]),
        r2_c=float(r2[1]),
        r2_a=float(r2[2]),
        r2_mean=float(1.0 - 2.0 * best.cost),
        converged=bool(best.status > 0),
        iterations=int(best.nfev),
        # an error in log(x) is, to first order, the relative error in x
        rel_se_eta_i=float(se[0]),
        rel_se_eta_s=float(se[1]),
        rel_se_p_seed=float(se[2]),
        rel_se_f=float(se[3] / f if f > 0.0 else math.inf) if with_f else None,
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
    """Emit one row per source: fitted parameters, R^2 statistics and the
    parameters' relative standard errors."""
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
                "rel_se_eta_i",
                "rel_se_eta_s",
                "rel_se_p_seed_mw",
                "rel_se_back_reflection_fraction",
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
                        f"{result.rel_se_eta_i:.6g}",
                        f"{result.rel_se_eta_s:.6g}",
                        f"{result.rel_se_p_seed:.6g}",
                        "" if result.rel_se_f is None else f"{result.rel_se_f:.6g}",
                    ]
                )
            else:
                writer.writerow([label] + [""] * 9 + [str(result)] + [""] * 4)
