"""The dense pulse-train sampler, kept as the independent oracle for the
herald-sparse sampler in muxsim.eventsim.

It draws a pair number, an idler thinning and a back-reflection variate for
every cycle x bin, keeps (n, bins) arrays, applies the deadtime rule one
candidate at a time in Python, and writes the trace row by row.  The sparse
sampler must reproduce its joint distribution per cycle, its acceptance mask
exactly, and its CSV bytes exactly.
"""

import csv
from dataclasses import dataclass

import numpy as np

from muxsim.eventsim import PulseTrainConfig, route_bin
from muxsim.hsps import p_trig_idler
from muxsim.mux import bin_squeezing
from muxsim.saturation import DeadtimeChain


@dataclass
class DenseTrace:
    """Per-cycle records of one simulated pulse train, with the row-by-row
    CSV writer the sparse trace must reproduce byte for byte."""

    rep_rate_hz: float
    n_cycles: int
    herald_bin: np.ndarray  # candidate bin index per cycle, -1 if none
    accepted: np.ndarray  # herald survived deadtimes and idle window
    back_reflection: np.ndarray  # selected herald was a back-reflection only
    loop_mask: np.ndarray  # bit mask of loops used, -1 when not accepted
    photons_out: np.ndarray  # signal photons surviving to the output slot
    signal_click: np.ndarray  # coincidence click in the gated output slot
    accidental_click: np.ndarray  # click against the herald shifted one cycle

    def to_csv(self, path) -> None:
        """One row per clock cycle."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                [
                    "cycle",
                    "herald_bin",
                    "accepted",
                    "back_reflection",
                    "loop_mask",
                    "photons_out",
                    "signal_click",
                    "accidental_click",
                ]
            )
            for i in range(self.n_cycles):
                writer.writerow(
                    [
                        i,
                        int(self.herald_bin[i]),
                        int(self.accepted[i]),
                        int(self.back_reflection[i]),
                        int(self.loop_mask[i]),
                        int(self.photons_out[i]),
                        int(self.signal_click[i]),
                        int(self.accidental_click[i]),
                    ]
                )


def _accept_heralds(
    candidate_cycles: np.ndarray,
    rep_rate_hz: float,
    chain: DeadtimeChain,
) -> np.ndarray:
    """Boolean acceptance per candidate after sequential refractory stages."""
    blocks = chain.blocks(rep_rate_hz)
    next_free = [0] * len(blocks)
    accepted = np.zeros(candidate_cycles.shape[0], dtype=bool)
    for i, t in enumerate(candidate_cycles):
        passed = True
        for j, k in enumerate(blocks):
            if t < next_free[j]:
                passed = False
                break
            next_free[j] = t + k + 1
        accepted[i] = passed
    return accepted


def run_dense_pulse_train(config: PulseTrainConfig) -> DenseTrace:
    """Simulate the full apparatus for config.n_clock_cycles clock cycles."""
    topo = config.topology
    bins = topo.bins
    n = config.n_clock_cycles
    n_bins = len(bins)
    slots = max(b.delay_id for b in bins) + 1
    rng = np.random.Generator(np.random.Philox(config.rng_seed))

    xis = np.array(
        [bin_squeezing(b, config.reference_power_mw) for b in bins]
    )
    eta_path = np.array([b.source.eta_s * b.eta_sw for b in bins])

    # Pair numbers per cycle and bin; signal photon number equals idler
    # photon number before loss (perfect pair correlation).
    n_pairs = np.zeros((n, n_bins), dtype=np.int32)
    idler_click = np.zeros((n, n_bins), dtype=bool)
    back_click = np.zeros((n, n_bins), dtype=bool)
    for k, bin_ in enumerate(bins):
        s = xis[k] * xis[k]
        if s > 0.0:
            n_pairs[:, k] = rng.geometric(1.0 - s, size=n).astype(np.int32) - 1
        surv = rng.binomial(n_pairs[:, k], bin_.source.eta_i)
        idler_click[:, k] = surv >= 1
        f = bin_.source.back_reflection_fraction
        if f > 0.0 and s > 0.0:
            p_back = f * p_trig_idler(xis[k], bin_.source.eta_i)
            back_click[:, k] = rng.random(n) < p_back

    any_idler = idler_click | back_click
    has_candidate = any_idler.any(axis=1)
    first_bin = np.where(has_candidate, np.argmax(any_idler, axis=1), -1)

    candidates = np.flatnonzero(has_candidate)
    accepted_mask = _accept_heralds(candidates, topo.rep_rate_hz, config.deadtime_chain)
    accepted_cycles = candidates[accepted_mask]
    sel_bins = first_bin[accepted_cycles]

    # Route the selected bin's signal photons; at most one output slot per
    # cycle by construction.
    loop_bits = np.full(n, -1, dtype=np.int8)
    photons_out = np.zeros(n, dtype=np.int32)
    signal_click = np.zeros(n, dtype=bool)
    accidental_click = np.zeros(n, dtype=bool)
    back_flag = np.zeros(n, dtype=bool)

    if accepted_cycles.size:
        delays = np.array([bins[k].delay_id for k in sel_bins])
        masks = np.array(
            [
                sum(bit << j for j, bit in enumerate(route_bin(d, slots)[0]))
                for d in delays
            ],
            dtype=np.int8,
        )
        loop_bits[accepted_cycles] = masks
        out = rng.binomial(
            n_pairs[accepted_cycles, sel_bins], eta_path[sel_bins]
        )
        photons_out[accepted_cycles] = out
        signal_click[accepted_cycles] = out >= 1
        back_flag[accepted_cycles] = back_click[
            accepted_cycles, sel_bins
        ] & ~idler_click[accepted_cycles, sel_bins]

        # Accidental estimate: gate from the herald shifted by one clock
        # cycle; the switch configuration persists through the idle window,
        # so the next cycle's photons from the same bin reach the output.
        in_range = accepted_cycles + 1 < n
        t_next = accepted_cycles[in_range] + 1
        k_next = sel_bins[in_range]
        acc_out = rng.binomial(n_pairs[t_next, k_next], eta_path[k_next])
        accidental_click[accepted_cycles[in_range]] = acc_out >= 1

    accepted = np.zeros(n, dtype=bool)
    accepted[accepted_cycles] = True
    return DenseTrace(
        rep_rate_hz=topo.rep_rate_hz,
        n_cycles=n,
        herald_bin=first_bin.astype(np.int16),
        accepted=accepted,
        back_reflection=back_flag,
        loop_mask=loop_bits,
        photons_out=photons_out,
        signal_click=signal_click,
        accidental_click=accidental_click,
    )
