"""Pulse-level Monte Carlo simulation of the multiplexed source.

Every clock cycle pumps each configured time bin.  A bin heralds when its
idler arm clicks or, on the second pass, when a back-reflected photon
clicks the herald detector; the first bin to herald in a cycle is the
cycle's candidate.  The amplifier deadtimes and the global feed-forward
idle window decide which candidates are accepted, and the accepted bin's
signal photons are routed through the switch network to the output slot.
This is the independent oracle for the closed forms in :mod:`muxsim.hsps`,
:mod:`muxsim.saturation` and :mod:`muxsim.mux`.

The sampler is herald-sparse: it draws only the cycles where a herald can
fire, with the same joint law for every per-cycle output as drawing every
cycle x bin.  For bin k let s = xi_k^2 and eta = eta_i.  The pair number
is geometric, P(n) = (1 - s) s^n, so the idler clicks with probability
p_k = s eta / (1 - s (1 - eta)), and a back-reflection clicks
independently with f_k p_k.  Hence:

* The candidate cycles of bin k form a Bernoulli(q_k) process,
  q_k = 1 - (1 - p_k)(1 - f_k p_k), drawn as cumulative sums of geometric
  gaps (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. X).
* Each candidate is an idler click only, an idler click and a
  back-reflection, or a back-reflection only, with probabilities
  proportional to p (1 - f p), p f p and (1 - p) f p.  The first two
  differ in no output, so a candidate is an idler click with probability
  p / q and a back-reflection only otherwise.
* The pair number splits into m detected and l lost idler photons: given
  an idler click m ~ Geom(1 - p_k) >= 1, otherwise m = 0, and
  l | m ~ NegBin(m + 1, 1 - s (1 - eta)).  n = m + l is drawn only where it
  is used: for accepted heralds, and for the same bin one cycle later
  (conditioned on whether that bin's idler clicked there) for the
  accidental gate.  The signal photons are n thinned by eta_s eta_sw.

The bins are merged in priority order, and the deadtime rule runs on the
merged candidates.  The trace keeps only these sparse records and builds
per-cycle arrays on demand.  Since p_k comes from hsps.p_trig_idler, this
sampler does not check that closed form; the dense sampler kept with the
tests and the source oracle of acceptance criterion 1 do.

The generator is counter-based (Philox), so a fixed seed gives a
bit-identical trace.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .hsps import p_trig_idler
from .mux import MuxTopology, bin_squeezing
from .report import RateReport
from .saturation import DeadtimeChain


class RoutingError(ValueError):
    """Requested delay is not representable by the available loops."""


class ConfigurationError(ValueError):
    """A pulse-train configuration violates an invariant."""


# Delay loops available in the switch network, in units of the bin period.
LOOP_LENGTHS = (1, 2)


@dataclass(frozen=True)
class PulseTrainConfig:
    """Apparatus and run-length settings for one simulation."""

    topology: MuxTopology
    reference_power_mw: float
    n_clock_cycles: int
    # Amplifiers, then the feed-forward idle window.
    deadtime_chain: DeadtimeChain = DeadtimeChain((1e-7, 1e-7, 2e-6))
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_clock_cycles <= 0:
            raise ConfigurationError(
                f"n_clock_cycles must be > 0, got {self.n_clock_cycles}"
            )
        if self.reference_power_mw < 0.0:
            raise ConfigurationError("reference_power_mw must be >= 0")
        topo = self.topology
        slots = max(b.delay_id for b in topo.bins) + 1
        if slots * topo.bin_spacing_s >= 1.0 / topo.rep_rate_hz:
            raise ConfigurationError(
                f"{slots} bins of {topo.bin_spacing_s}s do not fit in one "
                f"clock period of {1.0 / topo.rep_rate_hz}s"
            )
        for bin_ in topo.bins:
            route_bin(bin_.delay_id, slots)  # raises RoutingError if unroutable


# Most geometric gaps drawn per block when skipping ahead to candidate cycles.
_GAP_BLOCK = 1 << 16
# Quiet cycles formatted per write when exporting a trace.
_CSV_BLOCK = 1 << 16
_CSV_HEADER = (
    "cycle,herald_bin,accepted,back_reflection,loop_mask,"
    "photons_out,signal_click,accidental_click\n"
)
_QUIET_TAIL = ",-1,0,0,-1,0,0,0\n"  # every column after the cycle number
_CANDIDATE_ROW = "{},{},{},{},{},{},{},{}\n".format


@dataclass(frozen=True)
class EventTrace:
    """Sparse records of one simulated pulse train.

    Only the cycles holding a herald candidate are stored, plus the outcome
    of each accepted herald.  The per-cycle arrays (``herald_bin``,
    ``accepted``, ...) are read-only properties built on demand.
    """

    rep_rate_hz: float
    n_cycles: int
    candidate_cycles: np.ndarray  # cycles holding a herald candidate, ascending
    candidate_bin: np.ndarray  # first bin to herald in each of those cycles
    accepted_index: np.ndarray  # candidates that survived deadtimes and idle window
    accepted_loop_mask: np.ndarray  # per accepted herald: bit mask of loops used
    accepted_photons: np.ndarray  # signal photons surviving to the output slot
    accepted_accidental: np.ndarray  # click against the herald shifted one cycle
    accepted_back: np.ndarray  # the herald was a back-reflection only

    @property
    def accepted_cycles(self) -> np.ndarray:
        return self.candidate_cycles[self.accepted_index]

    def _per_cycle(self, values, fill, dtype) -> np.ndarray:
        out = np.full(self.n_cycles, fill, dtype=dtype)
        out[self.accepted_cycles] = values
        return out

    @property
    def herald_bin(self) -> np.ndarray:
        """Candidate bin index per cycle, -1 if none."""
        out = np.full(self.n_cycles, -1, dtype=np.int16)
        out[self.candidate_cycles] = self.candidate_bin
        return out

    @property
    def accepted(self) -> np.ndarray:
        """Herald survived deadtimes and idle window."""
        return self._per_cycle(True, False, bool)

    @property
    def back_reflection(self) -> np.ndarray:
        """Selected herald was a back-reflection only."""
        return self._per_cycle(self.accepted_back, False, bool)

    @property
    def loop_mask(self) -> np.ndarray:
        """Bit mask of loops used, -1 when not accepted."""
        return self._per_cycle(self.accepted_loop_mask, -1, np.int8)

    @property
    def photons_out(self) -> np.ndarray:
        """Signal photons surviving to the output slot."""
        return self._per_cycle(self.accepted_photons, 0, np.int32)

    @property
    def signal_click(self) -> np.ndarray:
        """Coincidence click in the gated output slot."""
        return self._per_cycle(self.accepted_photons >= 1, False, bool)

    @property
    def accidental_click(self) -> np.ndarray:
        """Click against the herald shifted one cycle."""
        return self._per_cycle(self.accepted_accidental, False, bool)

    def to_csv(self, path) -> None:
        """One row per clock cycle; quiet cycles are written in bulk."""
        # Columns after herald_bin, one entry per candidate cycle.
        cols = np.zeros((6, self.candidate_cycles.size), dtype=np.int64)
        cols[2] = -1
        acc = self.accepted_index
        cols[0, acc] = 1
        cols[1, acc] = self.accepted_back
        cols[2, acc] = self.accepted_loop_mask
        cols[3, acc] = self.accepted_photons
        cols[4, acc] = self.accepted_photons >= 1
        cols[5, acc] = self.accepted_accidental
        with open(path, "w", newline="") as fh:
            fh.write(_CSV_HEADER)
            start = 0
            for row in zip(
                self.candidate_cycles.tolist(),
                self.candidate_bin.tolist(),
                *cols.tolist(),
            ):
                _write_quiet_rows(fh, start, row[0])
                fh.write(_CANDIDATE_ROW(*row))
                start = row[0] + 1
            _write_quiet_rows(fh, start, self.n_cycles)


def _write_quiet_rows(fh, start: int, stop: int) -> None:
    """Rows of the cycles in [start, stop), none of which holds a candidate."""
    for first in range(start, stop, _CSV_BLOCK):
        last = min(first + _CSV_BLOCK, stop)
        fh.write(_QUIET_TAIL.join(map(str, range(first, last))) + _QUIET_TAIL)


def route_bin(herald_bin: int, n_output_bins: int) -> Tuple[Tuple[int, ...], int]:
    """Loop configuration that offsets a heralded bin into the last bin.

    Returns (loop_mask, output_bin) where loop_mask[j] is 1 when loop j
    (lengths in LOOP_LENGTHS bin periods) is switched into the path.
    """
    if not 0 <= herald_bin < n_output_bins:
        raise ValueError(
            f"herald_bin {herald_bin} outside [0, {n_output_bins})"
        )
    delay = (n_output_bins - 1) - herald_bin
    mask = []
    remaining = delay
    for length in reversed(LOOP_LENGTHS):
        if remaining >= length:
            mask.append(1)
            remaining -= length
        else:
            mask.append(0)
    if remaining != 0:
        raise RoutingError(
            f"delay of {delay} bin periods not representable by loops "
            f"{LOOP_LENGTHS}"
        )
    mask.reverse()
    return tuple(mask), n_output_bins - 1


def _accept_heralds(
    candidate_cycles: np.ndarray, rep_rate_hz: float, chain: DeadtimeChain
) -> np.ndarray:
    """Boolean acceptance per candidate after sequential refractory stages.

    A candidate blocked at one stage never reaches the later ones and does
    not re-arm the stage that blocked it, so the chain is a cascade of
    non-paralyzable filters, each applied to the survivors of the one before.
    """
    accepted = np.ones(candidate_cycles.size, dtype=bool)
    for block in chain.blocks(rep_rate_hz):
        accepted[accepted] = _non_paralyzable(candidate_cycles[accepted], block)
    return accepted


def _non_paralyzable(cycles: np.ndarray, block: int) -> np.ndarray:
    """Which ascending event cycles pass a stage that, after each event it
    passes, blocks the next `block` cycles.

    An event more than `block` cycles after its predecessor always passes,
    and after a passed event the next to pass is the first one at least
    block + 1 cycles later.  So the passed events are found by following
    those jumps, for all clusters at once, from each sure pass that the
    next event follows within `block` cycles, until the chain reaches the
    next sure pass.
    """
    passed = np.ones(cycles.size, dtype=bool)
    passed[1:] = np.diff(cycles) > block
    front = np.flatnonzero(passed[:-1] & ~passed[1:])
    while front.size:
        front = np.searchsorted(cycles, cycles[front] + (block + 1))
        front = front[front < cycles.size]
        front = front[~passed[front]]
        passed[front] = True
    return passed


def _bernoulli_cycles(q: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending cycles in [0, n) of a Bernoulli(q) process, as cumulative
    sums of geometric gaps.  Each block draws a few standard deviations more
    gaps than the rest of the run is expected to need, up to _GAP_BLOCK."""
    blocks, last = [], -1
    while last < n - 1:
        expected = (n - 1 - last) * q
        size = min(_GAP_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 16)
        gaps = rng.geometric(q, size)
        np.minimum(gaps, n + 1, out=gaps)  # a gap past the end ends the run
        blocks.append(last + np.cumsum(gaps))
        last = int(blocks[-1][-1])
    cycles = np.concatenate(blocks)
    return cycles[: np.searchsorted(cycles, n)]


def _bin_candidates(
    p: float, f: float, n: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """(cycles, idler clicked) of one bin's herald candidates, where the idler
    clicks with probability p and a back-reflection with f p.

    A candidate without an idler click is a back-reflection only.  Whether an
    idler click came with a back-reflection changes no output, so those two
    cases are drawn as one, with probability p / q.
    """
    q = p + f * p * (1.0 - p)
    if q == 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool)
    cycles = _bernoulli_cycles(q, n, rng)
    return cycles, rng.random(cycles.size) < p / q


def _merge_bins(per_bin):
    """(cycle, bin, idler clicked) of every bin's candidates, sorted by cycle
    and then bin, so that the first record of a cycle is the bin that
    heralds it."""
    cyc, idl = (np.concatenate(x) for x in zip(*per_bin))
    own = np.repeat(
        np.arange(len(per_bin), dtype=np.int16), [c.size for c, _ in per_bin]
    )
    order = np.lexsort((own, cyc))
    return cyc[order], own[order], idl[order]


def _idler_clicked(
    keys: np.ndarray, idler: np.ndarray, wanted: np.ndarray
) -> np.ndarray:
    """Whether the idler clicked at each wanted key, given the ascending keys
    of all candidate records and their idler flags."""
    pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
    return (keys[pos] == wanted) & idler[pos]


def run_pulse_train(config: PulseTrainConfig) -> Tuple[EventTrace, RateReport]:
    """Simulate the full apparatus for config.n_clock_cycles clock cycles."""
    topo = config.topology
    bins = topo.bins
    n = config.n_clock_cycles
    n_bins = len(bins)
    slots = max(b.delay_id for b in bins) + 1
    rng = np.random.Generator(np.random.Philox(config.rng_seed))

    xis = [bin_squeezing(b, config.reference_power_mw) for b in bins]
    eta_i = [b.source.eta_i for b in bins]
    p_idler = np.array([p_trig_idler(xi, eta) for xi, eta in zip(xis, eta_i)])
    # Success probability of the geometric law of idler photons lost.
    keep = np.array([1.0 - xi * xi * (1.0 - eta) for xi, eta in zip(xis, eta_i)])
    eta_path = np.array([b.source.eta_s * b.eta_sw for b in bins])
    loop_masks = np.array(
        [
            sum(bit << j for j, bit in enumerate(route_bin(b.delay_id, slots)[0]))
            for b in bins
        ],
        dtype=np.int8,
    )

    cyc, own, idl = _merge_bins(
        [
            _bin_candidates(p_idler[k], b.source.back_reflection_fraction, n, rng)
            for k, b in enumerate(bins)
        ]
    )
    heads = np.flatnonzero(np.diff(cyc, prepend=-1))
    candidate_cycles, candidate_bin = cyc[heads], own[heads]
    accepted = np.flatnonzero(
        _accept_heralds(candidate_cycles, topo.rep_rate_hz, config.deadtime_chain)
    )
    sel = heads[accepted]
    t_acc, k_acc, back_only = cyc[sel], own[sel], ~idl[sel]

    # Pair numbers of the selected bin, in the herald's cycle and, for the
    # accidental gate, in the next one: the switch configuration persists
    # through the idle window, so the next cycle's photons from the same bin
    # reach the output.  A (cycle, bin) needed twice gets one draw.
    in_range = t_acc + 1 < n
    wanted, inverse = np.unique(
        np.concatenate(
            [t_acc * n_bins + k_acc, (t_acc[in_range] + 1) * n_bins + k_acc[in_range]]
        ),
        return_inverse=True,
    )
    clicked = _idler_clicked(cyc * n_bins + own, idl, wanted)
    del cyc, own, idl, heads  # the candidate records are no longer needed
    k_want = wanted % n_bins
    # Detected idler photons: >= 1, geometric with ratio p, given a click and
    # none without one; lost ones given m detected: NegBin(m + 1, keep).
    detected = np.zeros(wanted.size, dtype=np.int64)
    detected[clicked] = rng.geometric(1.0 - p_idler[k_want[clicked]])
    pairs = detected + rng.negative_binomial(detected + 1, keep[k_want])
    photons = rng.binomial(pairs[inverse[: t_acc.size]], eta_path[k_acc])
    accidental = np.zeros(t_acc.size, dtype=bool)
    accidental[in_range] = (
        rng.binomial(pairs[inverse[t_acc.size :]], eta_path[k_acc[in_range]]) >= 1
    )

    trace = EventTrace(
        rep_rate_hz=topo.rep_rate_hz,
        n_cycles=n,
        candidate_cycles=candidate_cycles,
        candidate_bin=candidate_bin,
        accepted_index=accepted,
        accepted_loop_mask=loop_masks[k_acc],
        accepted_photons=photons.astype(np.int32),
        accepted_accidental=accidental,
        accepted_back=back_only,
    )
    return trace, _rates_from_trace(trace)


def _binomial_rate(count: int, n: int, rep_rate_hz: float) -> Tuple[float, float]:
    duration = n / rep_rate_hz
    p = count / n
    err = math.sqrt(max(p * (1.0 - p), 0.0) / n) * rep_rate_hz
    return count / duration, err


def _rates_from_trace(trace: EventTrace) -> RateReport:
    n = trace.n_cycles
    n_trig = int(trace.accepted_index.size)
    n_c = int(np.count_nonzero(trace.accepted_photons))
    n_a = int(np.count_nonzero(trace.accepted_accidental))
    r_trig, e_trig = _binomial_rate(n_trig, n, trace.rep_rate_hz)
    r_c, e_c = _binomial_rate(n_c, n, trace.rep_rate_hz)
    r_a, e_a = _binomial_rate(n_a, n, trace.rep_rate_hz)
    car = car_err = None
    if n_a > 0:
        car = n_c / n_a
        if n_c > 0:
            car_err = car * math.sqrt(1.0 / n_c + 1.0 / n_a)
    return RateReport(
        r_trig_hz=r_trig,
        r_coincidence_hz=r_c,
        r_accidental_hz=r_a,
        car=car,
        r_trig_err_hz=e_trig,
        r_coincidence_err_hz=e_c,
        r_accidental_err_hz=e_a,
        car_err=car_err,
    )

