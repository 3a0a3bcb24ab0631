"""Nonparalyzable deadtime corrections between true and detected rates.

A chain of deadtimes (APD amplifiers, then the feed-forward idle window)
is composed sequentially in signal-path order.  Composition is
order-sensitive: D = T / (d*T + 1) is applied stage by stage going
forward, and inverted in reverse.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.typing import ArrayLike

from .hsps import SourceParams, p_trig_idler


class SaturationError(ValueError):
    """Detected rate at or above 1/d has no finite true rate."""


class ConsistencyError(ValueError):
    """A deadtime inversion produced a transmission outside [0, 1]."""


@dataclass(frozen=True)
class DeadtimeChain:
    """Ordered deadtime durations in seconds; the empty chain is identity."""

    stages: Tuple[float, ...] = ()

    def __post_init__(self):
        if any(d < 0.0 for d in self.stages):
            raise ValueError("deadtimes must be >= 0")

    def extended(self, extra_stage_s: float) -> "DeadtimeChain":
        """Chain with one more stage appended (e.g. a global idle window)."""
        return DeadtimeChain(self.stages + (extra_stage_s,))


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


def effective_eta_i(
    source: SourceParams,
    xi: float,
    rep_rate_hz: float,
    chain: DeadtimeChain,
) -> float:
    """Idler transmission that folds saturation loss into eta_i.

    The saturated trigger probability p is mapped back through the
    trigger closed form: eta_i = p(1 - xi^2) / (xi^2 (1 - p)).
    """
    if rep_rate_hz <= 0.0:
        raise ValueError(f"rep_rate_hz must be > 0, got {rep_rate_hz}")
    s = xi * xi
    if s == 0.0:
        return source.eta_i
    p_true = p_trig_idler(xi, source.eta_i)
    p_detected = detected_from_true(p_true * rep_rate_hz, chain) / rep_rate_hz
    eta = p_detected * (1.0 - s) / (s * (1.0 - p_detected))
    if not 0.0 <= eta <= 1.0:
        raise ConsistencyError(
            f"saturation inversion gave eta_i = {eta} outside [0, 1]"
        )
    return eta
