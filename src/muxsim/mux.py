"""Analytic composition of per-bin sources into multiplexed sources.

Bins are listed in priority order: the first bin whose herald clicks wins
the clock cycle, and lower-priority bins contribute only weighted by the
non-trigger probability of everything above them.  Switch-network path
loss enters as a per-bin factor eta_sw multiplying the signal
transmission.

One table holds every bin's per-pulse probabilities at every reference
power (``bin_table``), built from a squeezing table (``bin_xi``) that
topologies differing only in eta_sw share; the nesting is the exclusive
cumulative product of 1 - p_trig along its bin axis (``priority_nest``).
MUX8, MUX4 and the single sources are slices or reductions of such tables.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence, Tuple, TypeVar

import numpy as np
from numpy.typing import ArrayLike

from .hsps import (
    EmissionProbs,
    SourceParams,
    SourceProbs,
    calibrate_coupling,
    source_probs,
    xi_from_power,
)
from .report import RateReport
from .saturation import DeadtimeChain

# Pump power reaching the second pass is roughly halved by the uncoated
# crystal facets and extra filtering.
PASS2_POWER_FACTOR = 0.5
# Extra measurement loss on the multiplexed channel, part of every switch
# path's eta_sw; it is what the extrinsic-removed variants take out.
MEMS_ASYMMETRY = 0.96

Probs = TypeVar("Probs", SourceProbs, EmissionProbs)


@dataclass(frozen=True)
class MuxBin:
    """One (pass, delay) time bin with its source and routing loss."""

    pass_id: int
    delay_id: int
    source: SourceParams
    pump_fraction: float
    eta_sw: float

    def __post_init__(self):
        if self.pass_id not in (1, 2):
            raise ValueError(f"pass_id must be 1 or 2, got {self.pass_id}")
        if self.delay_id < 0:
            raise ValueError("delay_id must be >= 0")
        if not 0.0 <= self.pump_fraction <= 1.0:
            raise ValueError(
                f"pump_fraction must be in [0, 1], got {self.pump_fraction}"
            )
        if not 0.0 < self.eta_sw <= 1.0:
            raise ValueError(f"eta_sw must be in (0, 1], got {self.eta_sw}")


@dataclass(frozen=True)
class MuxTopology:
    """Priority-ordered bins plus the clock parameters they share."""

    bins: Tuple[MuxBin, ...]
    rep_rate_hz: float = 80e6
    bin_spacing_s: float = 3e-9

    def __post_init__(self):
        if not self.bins:
            raise ValueError("topology needs at least one bin")
        for name in ("rep_rate_hz", "bin_spacing_s"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        for pass_id in (1, 2):
            total = sum(
                b.pump_fraction for b in self.bins if b.pass_id == pass_id
            )
            if total > 1.0 + 1e-9:
                raise ValueError(
                    f"pass {pass_id} pump fractions sum to {total} > 1"
                )

    def subset(self, pass_id: int) -> "MuxTopology":
        bins = tuple(b for b in self.bins if b.pass_id == pass_id)
        if not bins:
            raise ValueError(f"topology has no pass-{pass_id} bins")
        return MuxTopology(bins, self.rep_rate_hz, self.bin_spacing_s)


def bin_pump_power_mw(bin_: MuxBin, reference_power_mw: float) -> float:
    """Pump power reaching one bin for a given reference power."""
    power = reference_power_mw * bin_.pump_fraction
    if bin_.pass_id == 2:
        power *= PASS2_POWER_FACTOR
    return power


def bin_xi(topology: MuxTopology, powers: Sequence[float]) -> np.ndarray:
    """Squeezing amplitude of every bin at every reference power, as an
    (n_powers, n_bins) array; topologies that differ only in eta_sw share it."""
    p_mw = np.asarray(powers, dtype=float)
    return np.stack(
        [
            xi_from_power(
                calibrate_coupling(b.source.p_seed_mw), bin_pump_power_mw(b, p_mw)
            )
            for b in topology.bins
        ],
        axis=-1,
    )


def bin_probs(topology: MuxTopology, xi: np.ndarray) -> SourceProbs:
    """Per-pulse probabilities of every bin from its squeezing table xi; a
    bin's signal transmission is eta_s * eta_sw."""
    bins = topology.bins
    return source_probs(
        xi,
        np.array([b.source.eta_i for b in bins]),
        np.array([b.source.eta_s * b.eta_sw for b in bins]),
        np.array([b.source.back_reflection_fraction for b in bins]),
    )


def bin_table(topology: MuxTopology, powers: Sequence[float]) -> SourceProbs:
    """Per-pulse probabilities of every bin at every reference power, as
    (n_powers, n_bins) arrays."""
    return bin_probs(topology, bin_xi(topology, powers))


def priority_nest(table: Probs) -> Probs:
    """Per-cycle probabilities of the MUX whose bins are the table's last
    axis: each bin counts only when every bin above it missed.  The table is
    a SourceProbs or an EmissionProbs, p_trig first, and so is the result."""
    miss = np.cumprod(1.0 - table.p_trig, axis=-1)
    upstream = np.concatenate(
        [np.ones_like(miss[..., :1]), miss[..., :-1]], axis=-1
    )
    return type(table)(
        1.0 - miss[..., -1], *((upstream * x).sum(axis=-1) for x in table[1:])
    )


def switchless(topology: MuxTopology) -> MuxTopology:
    """The same bins measured without the switch network (eta_sw = 1)."""
    return replace(
        topology, bins=tuple(replace(b, eta_sw=1.0) for b in topology.bins)
    )


def extrinsic_removed(topology: MuxTopology) -> MuxTopology:
    """The same bins with the measurement-only MEMS loss divided out of each
    switch path (eta_sw capped at 1)."""
    bins = tuple(
        replace(b, eta_sw=min(b.eta_sw / MEMS_ASYMMETRY, 1.0)) for b in topology.bins
    )
    return replace(topology, bins=bins)


def evaluate_mux(topology: MuxTopology, reference_power_mw: float) -> SourceProbs:
    """All three per-cycle probabilities of one multiplexed source, as floats."""
    mux = priority_nest(bin_table(topology, [reference_power_mw]))
    return SourceProbs(*(float(x[0]) for x in mux))


def saturated_rates(
    p_trig: ArrayLike,
    p_c: ArrayLike,
    p_a: ArrayLike,
    rep_rate_hz: float,
    chain: DeadtimeChain,
) -> Tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(trigger, coincidence, accidental) rates in Hz, broadcast over arrays
    of per-cycle probabilities, each scaled by the chain's exact acceptance
    of heralds that arrive with probability p_trig per cycle.

    Coincidences and accidentals only occur on accepted heralds, so they
    are scaled by the same acceptance as the trigger rate.
    """
    accepted = rep_rate_hz * chain.acceptance(p_trig, rep_rate_hz)
    return p_trig * accepted, p_c * accepted, p_a * accepted


def saturated_report(
    probs: SourceProbs,
    rep_rate_hz: float,
    chain: DeadtimeChain = DeadtimeChain(),
) -> RateReport:
    """Rates with the deadtime chain thinning the accepted-herald stream;
    CAR is unchanged."""
    r_trig, r_c, r_a = saturated_rates(*probs, rep_rate_hz, chain)
    return RateReport(
        r_trig_hz=r_trig,
        r_coincidence_hz=r_c,
        r_accidental_hz=r_a,
        car=(r_c / r_a) if r_a > 0.0 else None,
    )


def simple_mux_single_prob(
    p_trig: float, n_bins: int, p_single: float
) -> float:
    """Simplified N-bin single-photon emission probability per clock cycle."""
    if not 0.0 <= p_trig <= 1.0 or not 0.0 <= p_single <= 1.0:
        raise ValueError("p_trig and p_single must be in [0, 1]")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    return (1.0 - (1.0 - p_trig) ** n_bins) * p_single
