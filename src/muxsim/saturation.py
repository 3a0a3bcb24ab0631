"""The deadtime chain between the herald detectors and the switch driver.

A chain lists its stages in seconds, in signal order: the APD amplifiers,
then the feed-forward idle window.  After each herald a stage passes, it
blocks the next ``blocks`` whole clock cycles; a herald it blocks neither
reaches the later stages nor re-arms it.  The simulator applies that rule to
its herald candidates; the model and the fitter scale their rates by its
exact acceptance.  ``detected_from_true`` and its inverse are the
stage-by-stage Poisson approximation D = T / (d T + 1), from which the
fitter takes its start point.
"""

import functools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

# Longest idle block, in cycles, of the renewal sum (it has fewer terms).
MAX_IDLE_BLOCK = 1 << 17
# Most (pair count, point) terms of the renewal sum held at once.
BLOCK_TERMS = 1 << 15


class SaturationError(ValueError):
    """Detected rate at or above 1/d has no finite true rate."""


@dataclass(frozen=True)
class DeadtimeChain:
    """Deadtimes in seconds, in signal order, the idle window last; the empty
    chain blocks nothing."""

    stages: Tuple[float, ...] = ()

    def __post_init__(self):
        if not all(0.0 <= d < math.inf for d in self.stages):
            raise ValueError(f"deadtimes must be finite and >= 0, got {self.stages}")

    def blocks(self, rep_rate_hz: float) -> Tuple[int, ...]:
        """Clock cycles each stage blocks after a herald it passes: its
        deadtime rounded to the nearest whole cycle."""
        return tuple(int(round(d * rep_rate_hz)) for d in self.stages)

    def acceptance(self, p: ArrayLike, rep_rate_hz: float) -> np.ndarray:
        """Share of heralds the chain accepts when each cycle holds one with
        probability p, broadcast over p.

        Every accepted herald re-arms every stage, so acceptances form a
        renewal process (Mueller, Nucl. Instrum. Methods 112, 47 (1973)).  A
        stage whose block is no longer than an earlier stage's never blocks:
        its input is already spaced further apart.  The blocks that remain
        rise, c_1 < ... < c_m.  For m = 1 the acceptance is 1 / (1 + c_1 p).
        For m = 2, with a = c_1 and I = c_2, a herald the first stage passes
        during the window re-arms it, so the next acceptance waits out the
        window, then the first stage's residual block r, then a herald: the
        accepted rate per cycle is p / (1 + p (I + E[r])), with
        E[r] = sum_{j=1..a} j u_{I-a+j}, where
        u_t = sum_{k>=1} C(t - k a - 1, k - 1) p^k (1 - p)^(t - k (a + 1))
        is the probability that the first stage passes a herald at cycle t.
        Chains with m >= 3, or with I > MAX_IDLE_BLOCK, raise ValueError; a
        scenario holding one fails with ScenarioError.

        Grouped by the pair count k, E[r] = sum_{k=1..K} p^k q^n_k V_k(q),
        q = 1 - p, K = I // (a + 1), where n_k is the least exponent of q
        among the k-pair terms and V_k, of degree < a, holds their weights.
        A point costs K exponentials: K = 17 for the default chain (a = 8,
        I = 160 at 80 MHz).  Points go through in blocks of at most
        BLOCK_TERMS // K, so a call holds three arrays of at most BLOCK_TERMS
        floats (five with a tangent) whatever the size of p.  Each p is
        evaluated alone, so its acceptance does not depend on the shape of
        the array it comes in.

        A forward-mode tangent p (a `fitting._Tangent`) gets back
        ``p.chain_rule(A, dA/dp)``: A, with a plain call's bits, and the
        tangent times dA/dp, a derivative rule written by hand (the fitter's
        d xi / d log p_seed is the other): -c A^2 for one stage that can
        block, -A^2 (I + E[r] + p dE[r]/dp) for two, finite on all of
        [0, 1].  The fitter reaches it through `mux.saturated_rates`; a
        plain p takes the value-only pass.
        """
        if not hasattr(p, "chain_rule"):
            return _acceptance(self, p, rep_rate_hz, slope=False)[0]
        return p.chain_rule(*_acceptance(self, p.value, rep_rate_hz, slope=True))


def _acceptance(chain: DeadtimeChain, p: ArrayLike, rep_rate_hz: float, slope: bool):
    """(A, dA/dp or None) of DeadtimeChain.acceptance."""
    p = np.asarray(p, dtype=float)
    rising, law = _renewal_law(chain, rep_rate_hz)
    if law is None:  # at most one stage can block
        accepted = 1.0 / (1.0 + sum(rising) * p)
        return accepted, (-sum(rising) * accepted * accepted if slope else None)
    flat = p.reshape(-1)
    mean_residual = np.empty((1 + slope, flat.size))
    width = max(1, BLOCK_TERMS // law[0].size)
    for start in range(0, flat.size, width):
        block = slice(start, start + width)
        mean_residual[:, block] = _mean_residual(flat[block], *law, slope=slope)
    mean_residual = mean_residual.reshape((1 + slope,) + p.shape)
    accepted = 1.0 / (1.0 + p * (rising[1] + mean_residual[0]))
    if not slope:
        return accepted, None
    return accepted, -accepted * accepted * (
        rising[1] + mean_residual[0] + p * mean_residual[1]
    )


def _mean_residual(
    p: np.ndarray,
    log_scale: np.ndarray,
    exponents: np.ndarray,
    coefficients: np.ndarray,
    edge_slopes: Tuple[float, float],
    slope: bool = False,
) -> np.ndarray:
    """E[r] at each point of the 1-d array p, from the pair-count groups of
    _renewal_law, as a row; with slope, dE[r]/dp as a second row.

    The k-pair group T_k = s_k p^k q^n V_k(q) has the derivative
    T_k (k / p - n / q) - s_k p^k q^n V_k'(q), so the slope costs V_k', in
    V_k's Horner pass, and three more sums over k.  At p = 0 (or below the
    smallest normal float) and at p = 1 the slope is a constant of the law."""
    # Pair counts along the first axis, points along the second.
    row = p[None]
    with np.errstate(divide="ignore"):
        log_p, log_q = np.log(row), np.log1p(-row)
    # A floor in place of log(0) keeps 0 * log(0) at 0 in the exponents.
    np.maximum(log_p, -1e300, out=log_p)
    np.maximum(log_q, -1e300, out=log_q)
    terms = np.multiply(exponents[0], log_p)
    poly = np.multiply(exponents[1], log_q)
    terms += poly
    terms += log_scale
    np.exp(terms, out=terms)
    # V_k(q) by Horner's rule, highest degree first, and with slope V_k'(q),
    # which is V_k's top coefficient after the first step.  q is spread over
    # all groups: numpy multiplies arrays of one shape faster.
    q = np.empty_like(poly)
    q[...] = 1.0 - row
    poly[...] = coefficients[-1]
    slope_poly = np.zeros_like(poly) if slope and len(coefficients) == 1 else None
    for c in coefficients[-2::-1]:
        if slope_poly is not None:
            slope_poly *= q
            slope_poly += poly
        elif slope:
            slope_poly = poly.copy()
        poly *= q
        poly += c
    if not slope:
        terms *= poly
        return _sum_groups(terms)[None]
    groups = terms * poly
    terms *= slope_poly
    pairs, least = exponents
    np.multiply(groups, pairs, out=poly)
    np.multiply(groups, least, out=slope_poly)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _sum_groups(poly) / p
        out -= _sum_groups(slope_poly) / q[0]
    out -= _sum_groups(terms)
    out[p < np.finfo(float).tiny] = edge_slopes[0]
    out[q[0] == 0.0] = edge_slopes[1]
    return np.stack([_sum_groups(groups), out])


def _sum_groups(terms: np.ndarray) -> np.ndarray:
    """Column sums of the (K, P) groups, in order of k: numpy sums the
    first axis in order for two or more points, but a single point's column
    pairwise."""
    if terms.shape[1] == 1:
        return np.add.accumulate(terms[:, 0])[-1:]
    return terms.sum(axis=0)


# Default electronics: two pulse amplifiers, then the 2 us (500 kHz) idle window.
AMPLIFIER_DEADTIME_S = 1e-7
IDLE_TIME_S = 2e-6
FULL_CHAIN = DeadtimeChain((AMPLIFIER_DEADTIME_S, AMPLIFIER_DEADTIME_S, IDLE_TIME_S))


@functools.lru_cache(maxsize=64)
def _renewal_law(chain: DeadtimeChain, rep_rate_hz: float) -> tuple:
    """The rising blocks of a chain and, for two, E[r] grouped by the pair
    count k, as (K, 1) columns: log s_k, the exponents (k, n_k) and the a
    coefficients of V_k(q) / s_k, lowest degree first; then dE[r]/dp at
    p = 0 and at p = 1.  The term of offset j and pair count k, of weight
    j C(t - k a - 1, k - 1) with t = I - a + j, has q's exponent
    n = t - k (a + 1), degree n - n_k in V_k; s_k is the largest weight of
    V_k, so that no weight overflows."""
    blocks = chain.blocks(rep_rate_hz)
    rising = [b for i, b in enumerate(blocks) if b > max(blocks[:i], default=0)]
    if len(rising) > 2 or max(rising[1:], default=0) > MAX_IDLE_BLOCK:
        raise ValueError(
            f"deadtime chain with rising blocks {rising} cycles: the exact "
            f"acceptance covers two, the last at most {MAX_IDLE_BLOCK}"
        )
    if len(rising) < 2:
        return tuple(rising), None
    a, idle = rising
    pairs = np.arange(1, idle // (a + 1) + 1)
    least = np.maximum(idle - a + 1 - pairs * (a + 1), 0)
    log_weight = np.full((a, pairs.size), -np.inf)
    for j, t in enumerate(range(idle - a + 1, idle + 1), start=1):
        for k in range(1, t // (a + 1) + 1):
            n = t - k * (a + 1)
            log_weight[n - least[k - 1], k - 1] = (
                math.log(j) + math.lgamma(t - k * a)
                - math.lgamma(k) - math.lgamma(n + 1)
            )
    log_scale = log_weight.max(axis=0)
    weights = np.exp(log_weight - log_scale)
    # At p = 0 only the one-pair group has a slope, s_1 V_1(1); at p = 1
    # those with n_k = 0 give s_k (k V_k(0) - V_k'(0)), with n_k = 1 -s_k V_k(0).
    at_one = 0.0
    for k, n in zip(pairs.tolist(), least.tolist()):
        if n <= 1:
            low = weights[:2, k - 1].tolist() + [0.0]
            at_one += math.exp(log_scale[k - 1]) * (
                k * low[0] - low[1] if n == 0 else -low[0]
            )
    edge_slopes = (math.exp(log_scale[0]) * float(weights[:, 0].sum()), at_one)
    # Columns, to broadcast against a row of points.
    exponents = np.array([pairs, least], dtype=float)[..., None]
    law = (log_scale[:, None], exponents, weights[..., None], edge_slopes)
    return tuple(rising), law


def detected_from_true(true_rate_hz: ArrayLike, chain: DeadtimeChain) -> ArrayLike:
    """Detected rate after each deadtime stage absorbs a share of events;
    broadcasts over an array of true rates."""
    if np.count_nonzero(true_rate_hz < 0.0):
        raise ValueError(f"true rate must be >= 0, got {true_rate_hz}")
    rate = true_rate_hz
    for d in chain.stages:
        rate = rate / (d * rate + 1.0)
    return rate


def true_from_detected(detected_rate_hz: ArrayLike, chain: DeadtimeChain) -> ArrayLike:
    """Exact inverse of detected_from_true (stages unwound in reverse);
    broadcasts over an array of detected rates, any of which at or above a
    stage's saturation raises SaturationError."""
    if np.count_nonzero(detected_rate_hz < 0.0):
        raise ValueError(f"detected rate must be >= 0, got {detected_rate_hz}")
    rate = detected_rate_hz
    for d in reversed(chain.stages):
        if d > 0.0 and np.count_nonzero(rate * d >= 1.0):
            raise SaturationError(
                f"detected rate {rate} Hz at or above saturation 1/d = {1.0 / d} Hz"
            )
        rate = rate / (1.0 - d * rate)
    return rate
