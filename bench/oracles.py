"""Reference computations made apart from muxsim.

Each function here is derived from the physics stated in its docstring and
uses only the standard library and numpy, so the benchmark can check
muxsim's outputs without trusting muxsim's own code.
"""

import math
from typing import Iterable, Sequence, Tuple

import numpy as np

# Root of (1 - x^2) x^2 = 0.1 on (0, 1/sqrt(2)): x^2 = (1 - sqrt(1 - 0.4)) / 2.
XI_SEED = math.sqrt((1.0 - math.sqrt(0.6)) / 2.0)

# Pump power reaching the second pass of the crystal.
PASS2_POWER_FACTOR = 0.5

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


def squeezing(p_seed_mw: float, power_mw: float) -> float:
    """xi = tanh(c sqrt(P)), with c fixed so that xi(p_seed) = XI_SEED."""
    c = math.atanh(XI_SEED) / math.sqrt(p_seed_mw)
    return math.tanh(c * math.sqrt(power_mw))


def click_prob(xi: float, eta: float) -> float:
    """P(threshold detector clicks) for P(n) = (1 - xi^2) xi^(2n) pairs,
    each photon surviving with probability eta.

    P(no click) = sum_n (1 - s) s^n (1 - eta)^n = (1 - s) / (1 - s (1 - eta)).
    """
    s = xi * xi
    return 1.0 - (1.0 - s) / (1.0 - s * (1.0 - eta))


def bin_herald_prob(bin_: dict, reference_power_mw: float) -> float:
    """P(a bin offers a herald in one cycle): a true idler click or an
    independent back-reflection click of probability f * p_click."""
    power = reference_power_mw * bin_["pump_fraction"]
    if bin_["pass"] == 2:
        power *= PASS2_POWER_FACTOR
    p = click_prob(squeezing(bin_["p_seed_mw"], power), bin_["eta_i"])
    f = bin_.get("back_reflection_fraction", 0.0)
    return 1.0 - (1.0 - p) * (1.0 - f * p)


def mux_herald_prob(bins: Iterable[dict], reference_power_mw: float) -> float:
    """P(at least one bin heralds in a cycle); bins are independent."""
    miss = 1.0
    for bin_ in bins:
        miss *= 1.0 - bin_herald_prob(bin_, reference_power_mw)
    return 1.0 - miss


def blocked_cycles(duration_s: float, rep_rate_hz: float) -> int:
    """Whole clock cycles a deadtime of duration_s blocks."""
    return int(round(duration_s * rep_rate_hz))


def renewal_window(
    p: float, amplifier_blocks: Sequence[int], idle_block: int
) -> Tuple[float, float]:
    """Bounds on the accepted-herald rate per cycle for i.i.d. candidates.

    After an accepted herald the idle window blocks idle_block cycles; the
    next candidate then waits a geometric time of mean 1/p, plus at most
    the longest residual amplifier block.  Renewal theory (Mueller, NIM 112,
    47 (1973)) gives p / (1 + (idle + max amp) p) <= rate <= p / (1 + idle p).
    """
    extra = max(amplifier_blocks, default=0)
    return p / (1.0 + (idle_block + extra) * p), p / (1.0 + idle_block * p)


def deadtime_rule_rate(
    p: float, n_cycles: int, blocks: Sequence[int], seed: int
) -> float:
    """Accepted heralds per cycle from Bernoulli(p) candidates passing a
    sequence of non-paralysable stages; a stage re-arms on every candidate
    that reaches it, even one a later stage blocks."""
    rng = np.random.default_rng(seed)
    next_free = [0] * len(blocks)
    accepted = 0
    for t in np.flatnonzero(rng.random(n_cycles) < p).tolist():
        for j, k in enumerate(blocks):
            if t < next_free[j]:
                break
            next_free[j] = t + k + 1
        else:
            accepted += 1
    return accepted / n_cycles


def overlap_gamma(
    center_a: float, fwhm_a: float, center_b: float, fwhm_b: float
) -> float:
    """Squared overlap of the amplitudes sqrt(I) of two Gaussian intensity
    spectra: [2 sa sb / (sa^2 + sb^2)] exp(-d^2 / (2 (sa^2 + sb^2)))."""
    sa, sb = fwhm_a * FWHM_TO_SIGMA, fwhm_b * FWHM_TO_SIGMA
    ssum = sa * sa + sb * sb
    d = center_a - center_b
    return 2.0 * sa * sb / ssum * math.exp(-d * d / (2.0 * ssum))


def log_r_squared(predicted: np.ndarray, observed: np.ndarray) -> float:
    """1 - SS_res / SS_tot of log rates, the fitter's per-channel score."""
    lp, lo = np.log(predicted), np.log(observed)
    return 1.0 - float(np.sum((lo - lp) ** 2) / np.sum((lo - lo.mean()) ** 2))
