"""Default apparatus parameters for the double-passed 8-bin source.

Source loss budgets and seed powers come from numerical fits to the
measured rate data; switch-path transmissions are assembled from the
quoted component losses (about 1 dB per switch, 95% per delay loop,
90% for the long buffer fiber) since only the ~4 dB per-path aggregate
was measured directly.
"""

from typing import Dict

from .eventsim import route_bin
from .hsps import SourceParams
from .mux import MEMS_ASYMMETRY, MuxBin, MuxTopology
from .saturation import DeadtimeChain

REP_RATE_HZ = 80e6
BIN_SPACING_S = 3e-9
N_DELAYS = 4

# Electronics: two pulse amplifiers ahead of the feed-forward logic, then
# a global idle window that limits the switch drive rate to 500 kHz.
AMPLIFIER_DEADTIME_S = 1e-7
IDLE_TIME_S = 2e-6
FULL_CHAIN = DeadtimeChain((AMPLIFIER_DEADTIME_S, AMPLIFIER_DEADTIME_S, IDLE_TIME_S))

# Measured pump power share per delay bin (pass 2 is additionally halved
# by the uncoated crystal facets; that factor lives in the mux module).
PUMP_FRACTIONS = (0.2375, 0.2693, 0.2258, 0.2586)

# Back-reflection fraction giving ~20% unpaired counts on the pass-2
# idler arm: f = 0.2 / (0.8 * (1 - p_trig)) ~= 0.25 at the small trigger
# probabilities of this source.
BACK_REFLECTION_FRACTION = 0.25

# Fitted per-source loss budgets and power seeds (mW).
PASS1_SOURCES: Dict[int, SourceParams] = {
    0: SourceParams(eta_i=0.015, eta_s=0.0019, p_seed_mw=5.2),
    1: SourceParams(eta_i=0.015, eta_s=0.0019, p_seed_mw=6.8),
    2: SourceParams(eta_i=0.016, eta_s=0.0021, p_seed_mw=5.6),
    3: SourceParams(eta_i=0.017, eta_s=0.0018, p_seed_mw=4.6),
}
PASS2_SOURCES: Dict[int, SourceParams] = {
    0: SourceParams(0.018, 0.0024, 6.3, BACK_REFLECTION_FRACTION),
    1: SourceParams(0.017, 0.0021, 6.7, BACK_REFLECTION_FRACTION),
    2: SourceParams(0.016, 0.0023, 6.8, BACK_REFLECTION_FRACTION),
    3: SourceParams(0.015, 0.0020, 6.9, BACK_REFLECTION_FRACTION),
}

# Switch-path component transmissions.
SWITCH_TRANSMISSION = 10.0 ** (-0.1)  # ~1 dB per switch
SWITCHES_PER_PATH = 3  # two loop switches plus the pass-combining switch
LOOP_TRANSMISSION = 0.95
BUFFER_TRANSMISSION = 0.90
FLAT_PATH_TRANSMISSION = 10.0 ** (-0.4)  # ~4 dB aggregate override


def composed_eta_sw(delay_id: int, include_mems: bool = True) -> float:
    """Per-path switch-network transmission assembled from components."""
    eta = (
        BUFFER_TRANSMISSION
        * SWITCH_TRANSMISSION**SWITCHES_PER_PATH
        * LOOP_TRANSMISSION ** sum(route_bin(delay_id, N_DELAYS)[0])
    )
    return eta * MEMS_ASYMMETRY if include_mems else eta


def eta_sw_for(delay_id: int, mode: str = "composed") -> float:
    if mode == "composed":
        return composed_eta_sw(delay_id)
    if mode == "flat_4db":
        return FLAT_PATH_TRANSMISSION
    raise ValueError(f"unknown eta_sw mode {mode!r}")


def default_topology(eta_sw_mode: str = "composed") -> MuxTopology:
    """Eight bins in priority order: pass 1 delays 0-3, then pass 2."""
    bins = []
    for pass_id, sources in ((1, PASS1_SOURCES), (2, PASS2_SOURCES)):
        for delay_id in range(N_DELAYS):
            bins.append(
                MuxBin(
                    pass_id=pass_id,
                    delay_id=delay_id,
                    source=sources[delay_id],
                    pump_fraction=PUMP_FRACTIONS[delay_id],
                    eta_sw=eta_sw_for(delay_id, eta_sw_mode),
                )
            )
    return MuxTopology(tuple(bins), REP_RATE_HZ, BIN_SPACING_S)


def source_label(pass_id: int, delay_id: int) -> str:
    return f"P{pass_id}D{delay_id}"
