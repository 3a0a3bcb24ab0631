"""Recover per-source parameters from rate observations over a power sweep.

The objective is the mean coefficient of determination across the
trigger, coincidence and accidental channels, compared in log space when
all observations are positive so that decades are balanced.  Maximizing it
is a weighted least-squares problem.  A box-bounded Levenberg-Marquardt
solver in numpy advances all starts together, one call of the rate model
per iteration: the trial points of every start still running and their
finite-difference points.  Sources that share a model kind, a power
column and a residual space are solved together, their starts in one
solver run, each start on its own source's residuals; every source still
gets the fit it gets alone.  The Jacobian at the optimum gives each
parameter a standard error.
"""

import csv
import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

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
        for name in ("reference_power_mw", "r_trig_hz", "r_c_hz", "r_a_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters, per-channel R^2 and the best start's solver state:
    ``converged`` is true when that start stopped on a tolerance, not on the
    damping limit or the iteration cap; ``iterations`` counts its residual
    evaluations, finite-difference Jacobian points not counted.  The
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
# Levenberg-Marquardt: initial damping, its factors after an accepted and a
# rejected step, and the stopping rules.
LM_DAMPING = 1e-3
LM_ACCEPT = 1.0 / 3.0
LM_REJECT = 4.0
LM_FTOL = 1e-12
LM_XTOL = 1e-12
LM_MAX_DAMPING = 1e12
LM_MAX_ITERATIONS = 200
_FD_STEP = math.sqrt(np.finfo(float).eps)


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
    saturated by the deadtime chain.  The four parameters may be (k, 1)
    columns, giving (k, n_powers) rates for k parameter points at once;
    points that share p_seed_mw share one squeezing row."""
    powers = np.asarray(powers_mw, float)
    coupling, row = np.unique(calibrate_coupling(p_seed_mw), return_inverse=True)
    shape = np.broadcast_shapes(np.shape(p_seed_mw), powers.shape)
    xi = xi_from_power(coupling[:, None], powers)[row.reshape(-1)].reshape(shape)
    return saturated_rates(*source_probs(xi, eta_i, eta_s, f), rep_rate_hz, chain)


def _standard_errors(jac: np.ndarray, cost: float) -> np.ndarray:
    """Standard errors of the fit coordinates, s^2 (J^T J)^-1 with
    s^2 = sum r^2 / (m - n); inf where J^T J does not determine them."""
    m, n = jac.shape
    try:
        var = 2.0 * cost / (m - n) * np.diag(np.linalg.inv(jac.T @ jac))
    except np.linalg.LinAlgError:
        return np.full(n, np.inf)
    return np.sqrt(np.where(var >= 0.0, var, np.inf))


def _params(x: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(eta_i, eta_s, p_seed, f) of the fit points along the last axis of x:
    (log eta_i, log eta_s, log p_seed[, f]), f = 0 for a pass-1 point."""
    eta_i, eta_s, p_seed = np.moveaxis(np.exp(x[..., :3]), -1, 0)
    return eta_i, eta_s, p_seed, (x[..., 3] if x.shape[-1] == 4 else 0.0)


def _residual_batch(
    xs: np.ndarray,
    starts: np.ndarray,
    powers: np.ndarray,
    target: np.ndarray,
    weight: np.ndarray,
    log_space: bool,
    rep_rate_hz: float,
    chain: DeadtimeChain,
) -> np.ndarray:
    """Residuals (g(pred) - target) * weight of the k fit points in the rows
    of xs, as (k, 3 n) rows, from one model call; target and weight hold a
    (3, n) block per start and starts gives each point's.  A batch the model
    rejects is split in halves until its bad points stand alone, so only
    they get FAILED_RESIDUAL, at O(log k) model calls per bad point."""
    m = target[0].size
    try:
        pred = np.stack(
            predict_rates(*_params(xs[:, None]), powers, rep_rate_hz, chain), axis=1
        )
    except (ValueError, ArithmeticError):
        if len(xs) == 1:
            return np.full((1, m), FAILED_RESIDUAL)
        half = len(xs) // 2
        problem = (powers, target, weight, log_space, rep_rate_hz, chain)
        return np.concatenate([
            _residual_batch(xs[:half], starts[:half], *problem),
            _residual_batch(xs[half:], starts[half:], *problem),
        ])
    out = np.full((len(xs), m), FAILED_RESIDUAL)
    ok = ~np.any(pred <= 0.0, axis=(1, 2)) if log_space else slice(None)
    fitted = np.log(pred[ok]) if log_space else pred
    own = starts[ok]  # each point's start picks its target and weight block
    out[ok] = ((fitted - target[own]) * weight[own]).reshape(-1, m)
    return out


def _forward_jacobian(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    upper: np.ndarray,
    starts: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(k, m) residuals and (k, m, n) forward-difference Jacobians at the k
    rows of x, the points of the given starts, from one batch call of the
    rows and their k n difference points.  Coordinate j steps by sqrt(eps)
    max(1, |x_j|), away from the upper bound."""
    k, n = x.shape
    h = _FD_STEP * np.maximum(1.0, np.abs(x))
    h = np.where(x + h > upper, -h, h)
    points = x[:, None, :] + np.eye(n) * h[:, None, :]
    h = np.diagonal(points, axis1=1, axis2=2) - x  # the step as represented
    rows = batch(
        np.concatenate([x, points.reshape(k * n, n)]),
        np.concatenate([starts, np.repeat(starts, n)]),
    )
    fun = rows[:k]
    diff = rows[k:].reshape(k, n, -1) - fun[:, None, :]
    return fun, np.swapaxes(diff / h[:, :, None], 1, 2)


def _lockstep_lm(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0s: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """Minimize 0.5 |r(x)|^2 within lower <= x <= upper from every row of
    x0s at once by Levenberg-Marquardt (More, Lecture Notes in Math. 630,
    1978); batch(xs, starts) maps (k, n) points to their (k, m) residual
    rows, starts giving the row of x0s each point belongs to, so that the
    starts may minimize different residuals.

    Each start keeps its own damping, scaled by diag(J^T J), and its own
    Jacobian.  Each iteration makes one batch call: the trial points of the
    starts still running together with their finite-difference points, a
    speculative Jacobian kept when the step is accepted and dropped when it
    is rejected.  A coordinate at a bound whose gradient points out of the
    box, or one the Jacobian does not see, is held for that step, and the
    trial point is clipped to the box.  A start stops, converged, when a
    solved step, accepted or not, moves its cost by at most LM_FTOL relative
    either way and the quadratic model predicted no more gain (MINPACK's
    ftol test), or when such a step is at most LM_XTOL relative in size; it
    stops unconverged when its damping exceeds LM_MAX_DAMPING or after
    LM_MAX_ITERATIONS.  A last batch call gives the residuals at the
    returned points.  Returns (x, residuals, cost, converged, nfev, jac) per
    start, nfev counting residual evaluations without Jacobian points and
    jac the (m, n) forward-difference Jacobian at x that the solver holds.
    """
    x = np.array(x0s, dtype=float)
    k, n = x.shape
    fun, first = _forward_jacobian(batch, x, upper, np.arange(k))
    cost = 0.5 * np.einsum("km,km->k", fun, fun)
    # C order, whatever the layout of the difference quotients: einsum's
    # summation order, and so the last bits of every step, depend on it.
    jac = np.empty((k, fun.shape[1], n))
    jac[...] = first
    damping = np.full(k, LM_DAMPING)
    nfev = np.ones(k, dtype=int)
    converged = np.zeros(k, dtype=bool)
    running = np.ones(k, dtype=bool)
    for _ in range(LM_MAX_ITERATIONS):
        idx = np.flatnonzero(running)
        xi, ji, ci = x[idx], jac[idx], cost[idx]
        grad = np.einsum("kmi,km->ki", ji, fun[idx])
        hess = np.einsum("kmi,kmj->kij", ji, ji)
        scale = np.diagonal(hess, axis1=1, axis2=2)
        free = (scale > 0.0) & ~(
            ((xi <= lower) & (grad > 0.0)) | ((xi >= upper) & (grad < 0.0))
        )
        # Held coordinates get the identity's row and column: no step.
        system = hess * (free[:, :, None] & free[:, None, :])
        diag = np.where(free, damping[idx, None] * scale, 1.0)
        system[:, np.arange(n), np.arange(n)] += diag
        step = np.linalg.solve(system, -np.where(free, grad, 0.0)[..., None])[..., 0]
        trial = np.clip(xi + step, lower, upper)
        trial_fun, trial_jac = _forward_jacobian(batch, trial, upper, idx)
        trial_cost = 0.5 * np.einsum("km,km->k", trial_fun, trial_fun)
        nfev[idx] += 1

        # Both tests take the step as solved, before clipping: a step cut
        # short by a bound gains little, but that does not show convergence.
        curvature = np.einsum("kij,kj->ki", hess, step)
        predicted = -np.einsum("ki,ki->k", grad + 0.5 * curvature, step)
        better = trial_cost < ci
        small_gain = (np.abs(ci - trial_cost) <= LM_FTOL * ci) & (
            predicted <= LM_FTOL * ci
        )
        small_step = np.linalg.norm(step, axis=1) <= LM_XTOL * (
            LM_XTOL + np.linalg.norm(xi, axis=1)
        )
        done = small_gain | small_step
        moved = idx[better]
        x[moved], fun[moved] = trial[better], trial_fun[better]
        jac[moved], cost[moved] = trial_jac[better], trial_cost[better]
        damping[idx] *= np.where(better, LM_ACCEPT, LM_REJECT)
        converged[idx[done]] = True
        running[idx[done | (damping[idx] > LM_MAX_DAMPING)]] = False
        if not running.any():
            break
    # A batch's rows need not be independent of the rows beside them, so
    # the residuals returned are those of x alone.
    fun = batch(x, np.arange(k))
    return x, fun, 0.5 * np.einsum("km,km->k", fun, fun), converged, nfev, jac


def _latin_hypercube(n: int, bounds: np.ndarray, seed: int) -> np.ndarray:
    """n points in the box bounds = (lower, upper), one per n-th of each axis:
    qmc.scale(qmc.LatinHypercube(d, seed=seed).random(n), *bounds), bit for bit."""
    lower, upper = bounds
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(size=(n, lower.size))
    perms = np.array([rng.permutation(n) + 1 for _ in lower])
    return (perms.T - jitter) / n * (upper - lower) + lower


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


@dataclass(frozen=True)
class _Problem:
    """One source's checked observations in fit form: the residual target,
    (3, n), its per-channel weights, (3, 1), and the moment-based start."""

    powers: np.ndarray
    target: np.ndarray
    weight: np.ndarray
    log_space: bool
    start: np.ndarray


def _problem(
    observations: Sequence[Observation],
    model_kind: str,
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float,
) -> _Problem:
    """Check one source's observations, as ValueError naming what is wrong,
    and put them in fit form."""
    if model_kind not in ("pass1", "pass2"):
        raise ValueError(f"model_kind must be 'pass1' or 'pass2', got {model_kind!r}")
    if len(observations) < 4:
        raise ValueError("need at least 4 observations")
    powers = np.array([o.reference_power_mw for o in observations])
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")
    observed = np.array([[o.r_trig_hz, o.r_c_hz, o.r_a_hz] for o in observations]).T
    log_space = bool((observed > 0.0).all())
    target = np.log(observed) if log_space else observed
    ss_tot = np.sum((target - target.mean(axis=1, keepdims=True)) ** 2, axis=1)
    if np.any(ss_tot == 0.0):
        raise ValueError("observed values are all identical; R^2 undefined")
    weight = 1.0 / np.sqrt(3.0 * ss_tot)[:, None]
    # ValueError now, not a diverged fit, for a chain the model cannot cover.
    deadtime_chain.acceptance(0.0, rep_rate_hz)
    start = _heuristic_start(
        powers, *observed, rep_rate_hz, deadtime_chain, model_kind == "pass2"
    )
    return _Problem(powers, target, weight, log_space, start)


def _fit_group(
    problems: Sequence[_Problem],
    with_f: bool,
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float,
    seed: int,
    n_starts: int,
) -> List[object]:
    """Fit sources that share a model kind, a power column and a residual
    space in one solver run over all their starts; one FitResult or
    FitError per source, each from its own starts alone."""
    bounds = np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T
    if with_f:
        bounds = np.column_stack([bounds, F_BOUNDS])
    # Latin-hypercube starts drawn with numpy alone (log-spaced for the scale
    # parameters) plus each source's moment-based start.
    lhs = _latin_hypercube(n_starts, bounds, seed)
    starts = np.vstack([block for p in problems for block in (lhs, p.start)])
    per_source = n_starts + 1
    batch = functools.partial(
        _residual_batch,
        powers=problems[0].powers,
        target=np.repeat([p.target for p in problems], per_source, axis=0),
        weight=np.repeat([p.weight for p in problems], per_source, axis=0),
        log_space=problems[0].log_space,
        rep_rate_hz=rep_rate_hz,
        chain=deadtime_chain,
    )
    x, fun, cost, converged, nfev, jac = _lockstep_lm(batch, starts, *bounds)

    results: List[object] = []
    for first in range(0, len(starts), per_source):
        best = first + int(np.argmin(cost[first : first + per_source]))
        if not cost[best] < 0.5 * fun.shape[1] * FAILED_RESIDUAL**2:
            results.append(FitError("all starts diverged; no finite objective found"))
            continue
        r2 = 1.0 - 3.0 * np.sum(fun[best].reshape(3, -1) ** 2, axis=1)
        eta_i, eta_s, p_seed, f = _params(x[best])
        se = _standard_errors(jac[best], cost[best])
        results.append(FitResult(
            params=SourceParams(float(eta_i), float(eta_s), float(p_seed), float(f)),
            r2_trig=float(r2[0]),
            r2_c=float(r2[1]),
            r2_a=float(r2[2]),
            r2_mean=float(1.0 - 2.0 * cost[best]),
            converged=bool(converged[best]),
            iterations=int(nfev[best]),
            # an error in log(x) is, to first order, the relative error in x
            rel_se_eta_i=float(se[0]),
            rel_se_eta_s=float(se[1]),
            rel_se_p_seed=float(se[2]),
            rel_se_f=float(se[3] / f if f > 0.0 else math.inf) if with_f else None,
        ))
    return results


def _fit_each(problems: Sequence[_Problem], *args) -> List[object]:
    """_fit_group(problems, *args), or, where its run raises ValueError as a
    whole (a seed the generator rejects, a singular step), each source's
    run alone, so that each gets the exception it raises alone."""
    try:
        return _fit_group(problems, *args)
    except ValueError as exc:
        if len(problems) == 1:
            return [exc]
        return [r for p in problems for r in _fit_each([p], *args)]


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
    This is fit_all's solver run for a group of one source.
    """
    problem = _problem(observations, model_kind, deadtime_chain, rep_rate_hz)
    (result,) = _fit_group(
        [problem], model_kind == "pass2", deadtime_chain, rep_rate_hz, seed, n_starts
    )
    if isinstance(result, FitError):
        raise result
    return result


def fit_all(
    observations_by_source: Mapping[str, Sequence[Observation]],
    model_kind_by_source: Mapping[str, str],
    deadtime_chain: DeadtimeChain,
    rep_rate_hz: float = 80e6,
    seed: int = 0,
) -> Dict[str, object]:
    """Fit every source as fit_source does alone, with the same result or
    exception, recorded against its source, not raised.  The sources that
    pass fit_source's checks are grouped by (model kind, power column in
    file order, log space or not), and each group is solved in one solver
    run over all its members' starts."""
    results: Dict[str, object] = {}
    groups: Dict[tuple, List[Tuple[str, _Problem]]] = {}
    for label, obs in observations_by_source.items():
        kind = model_kind_by_source.get(label, "pass1")
        try:
            problem = _problem(obs, kind, deadtime_chain, rep_rate_hz)
        except ValueError as exc:
            results[label] = exc
            continue
        results[label] = None  # placeholder that keeps the input order
        key = (kind, problem.powers.tobytes(), problem.log_space)
        groups.setdefault(key, []).append((label, problem))
    for (kind, _, _), members in groups.items():
        labels, problems = zip(*members)
        fitted = _fit_each(
            problems, kind == "pass2", deadtime_chain, rep_rate_hz, seed, N_STARTS
        )
        results.update(zip(labels, fitted))
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
