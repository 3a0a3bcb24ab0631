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


class SaturationError(ValueError):
    """Detected rate at or above 1/d has no finite true rate."""


@dataclass(frozen=True)
class DeadtimeChain:
    """Deadtimes in seconds, in signal order, the idle window last; the empty
    chain blocks nothing."""

    stages: Tuple[float, ...] = ()

    def __post_init__(self):
        if any(d < 0.0 for d in self.stages):
            raise ValueError("deadtimes must be >= 0")

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

        For m = 2 a call holds p.size x (number of terms of E[r]) floats,
        several times over: 136 terms for the default chain (a = 8, I = 160
        at 80 MHz); cli._model_table calls it once per source column.
        """
        p = np.asarray(p, dtype=float)
        rising, table = _renewal_law(self, rep_rate_hz)
        if table is None:  # at most one stage can block
            return 1.0 / (1.0 + sum(rising) * p)
        log_weight, powers = table
        logs = np.empty(p.shape + (2,))
        with np.errstate(divide="ignore"):
            np.log(p, out=logs[..., 0])
            np.log1p(-p, out=logs[..., 1])
        # A floor in place of log(0) keeps 0 * log(0) at 0 in the product.
        terms = np.exp(log_weight + np.maximum(logs, -1e300, out=logs) @ powers)
        return 1.0 / (1.0 + p * (rising[1] + terms.sum(-1)))


# Default electronics: two pulse amplifiers, then the 2 us (500 kHz) idle window.
AMPLIFIER_DEADTIME_S = 1e-7
IDLE_TIME_S = 2e-6
FULL_CHAIN = DeadtimeChain((AMPLIFIER_DEADTIME_S, AMPLIFIER_DEADTIME_S, IDLE_TIME_S))


@functools.lru_cache(maxsize=64)
def _renewal_law(chain: DeadtimeChain, rep_rate_hz: float) -> tuple:
    """The rising blocks of a chain and, for two, the terms of E[r]: their
    log(j C(t - k a - 1, k - 1)) and the exponents (k, t - k (a + 1))."""
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
    terms = [
        (j, t, k, t - k * (a + 1))
        for j, t in enumerate(range(idle - a + 1, idle + 1), start=1)
        for k in range(1, t // (a + 1) + 1)
    ]
    log_weight = [
        math.log(j) + math.lgamma(t - k * a) - math.lgamma(k) - math.lgamma(n + 1)
        for j, t, k, n in terms
    ]
    powers = np.array([(k, n) for _, _, k, n in terms], dtype=float).T
    return tuple(rising), (np.array(log_weight), powers)


def detected_from_true(true_rate_hz: ArrayLike, chain: DeadtimeChain) -> ArrayLike:
    """Detected rate after each deadtime stage absorbs a share of events;
    broadcasts over an array of true rates."""
    if np.count_nonzero(true_rate_hz < 0.0):
        raise ValueError(f"true rate must be >= 0, got {true_rate_hz}")
    rate = true_rate_hz
    for d in chain.stages:
        rate = rate / (d * rate + 1.0)
    return rate


def true_from_detected(detected_rate_hz: float, chain: DeadtimeChain) -> float:
    """Exact inverse of detected_from_true (stages unwound in reverse)."""
    if detected_rate_hz < 0.0:
        raise ValueError(f"detected rate must be >= 0, got {detected_rate_hz}")
    rate = detected_rate_hz
    for d in reversed(chain.stages):
        if d > 0.0 and rate * d >= 1.0:
            raise SaturationError(
                f"detected rate {rate} Hz at or above saturation 1/d = {1.0 / d} Hz"
            )
        rate = rate / (1.0 - d * rate)
    return rate
