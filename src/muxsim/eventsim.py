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

Each candidate is one int64 key, ((cycle << b | bin) << 1) | idler
clicked, b the bit width of a bin index, so one sort orders the records by
cycle and then bin, and a cycle's first record is the bin that heralds it.
The deadtime rule narrows an index array of these heads, and a gate's idler
click is looked up among the keys.  The trace keeps only these sparse
records and builds per-cycle arrays on demand.  Since p_k and q_k come from
hsps._herald_split, this sampler does not check those closed forms; the
dense sampler kept with the tests and the per-pulse source oracles do.

A run is drawn in consecutive chunks of CHUNK_CYCLES = 2^20 cycles, each
through every step above, so its memory is bounded by two chunks' records
(a peak of about 2.5 MB of arrays at 40 mW on the default apparatus), not by
its length.  Two pieces of state cross a chunk boundary: each deadtime
stage's last pass, and the accidental gate of a herald on the chunk's last
cycle, whose (cycle + 1, bin) is drawn with the next chunk; so a chunk is
handed on, final, only once the next one is drawn.  The law is the same as
one draw over the whole run.  A chunk is an EventTrace of its own cycles,
with the candidates passing each deadtime stage in `survivors`.  Every run
goes through one loop, which keeps the counts of each chunk as one row and
hands the chunk to a sink: `run_pulse_train` drops it or streams it to a
trace CSV, and `event_trace` keeps the chunks and joins them into one
EventTrace of the run, which carries the run's `survivors`.

The generator is counter-based (Philox), so a fixed seed gives a
bit-identical trace.  A run of at most one chunk makes the same draws as the
unchunked sampler did, so its fixed-seed outputs are unchanged; a longer run
draws a different stream for the same seed.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from .hsps import _herald_split
from .mux import MuxTopology, bin_xi
from .report import RateReport, open_output
from .saturation import FULL_CHAIN, DeadtimeChain


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
    deadtime_chain: DeadtimeChain = FULL_CHAIN
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("n_clock_cycles", 1), ("rng_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigurationError(f"{name} must be >= {least}, got {value}")
        power = self.reference_power_mw
        if isinstance(power, bool) or not isinstance(power, numbers.Real):
            raise ConfigurationError(f"reference_power_mw must be real, got {power!r}")
        if not 0.0 <= power < math.inf:
            raise ConfigurationError("reference_power_mw must be finite and >= 0")
        topo = self.topology
        slots = max(b.delay_id for b in topo.bins) + 1
        if slots * topo.bin_spacing_s >= 1.0 / topo.rep_rate_hz:
            raise ConfigurationError(
                f"{slots} bins of {topo.bin_spacing_s}s do not fit in one "
                f"clock period of {1.0 / topo.rep_rate_hz}s"
            )
        for bin_ in topo.bins:
            route_bin(bin_.delay_id, slots)  # raises RoutingError if unroutable


# Cycles drawn per chunk: a run's working set is one chunk's records.
CHUNK_CYCLES = 1 << 20
# Most geometric gaps drawn per block when skipping ahead to candidate cycles.
_GAP_BLOCK = 1 << 16
_CSV_HEADER = (
    b"cycle,herald_bin,accepted,back_reflection,loop_mask,"
    b"photons_out,signal_click,accidental_click\n"
)
_QUIET = (-1, 0, 0, -1, 0, 0, 0)  # every column after the cycle number
_QUIET_TAIL = b"".join(b",%d" % value for value in _QUIET) + b"\n"
_CANDIDATE_ROW = b"%d,%d,%d,%d,%d,%d,%d,%d\n"
# Most trailing digits a block of trace rows spans: 10^4 rows, ~250 KB.
_BLOCK_DIGITS = 4
# The record arrays of an EventTrace, which a run's chunks join along.
_RECORDS = (
    "candidate_cycles",
    "candidate_bin",
    "accepted_index",
    "accepted_loop_mask",
    "accepted_photons",
    "accepted_accidental",
    "accepted_back",
)


def _per_cycle(column: int, dtype, doc: str) -> property:
    """A per-cycle view: the trace CSV's column `column` as a `dtype` array,
    the cycles without a candidate quiet."""

    def view(trace: "EventTrace") -> np.ndarray:
        cols = _csv_columns(trace)
        out = np.full(trace.n_cycles, _QUIET[column - 1], dtype=dtype)
        out[cols[0] - trace.start] = cols[column]
        return out

    return property(view, doc=doc)


@dataclass(frozen=True)
class EventTrace:
    """Sparse records of the cycles [start, start + n_cycles) of a simulated
    pulse train: a whole run, or one chunk of it.

    Only the cycles holding a herald candidate are stored, plus the outcome
    of each accepted herald.  The per-cycle arrays (``herald_bin``,
    ``accepted``, ...) are read-only properties built on demand, each from
    its column of the trace CSV.
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
    start: int = 0  # the first cycle
    survivors: Tuple[int, ...] = ()  # candidates passing each rising deadtime stage

    @property
    def accepted_cycles(self) -> np.ndarray:
        return self.candidate_cycles[self.accepted_index]

    herald_bin = _per_cycle(1, np.int16, "Candidate bin index per cycle, -1 if none.")
    accepted = _per_cycle(2, bool, "Herald survived deadtimes and idle window.")
    back_reflection = _per_cycle(3, bool, "Selected herald was a back-reflection only.")
    loop_mask = _per_cycle(4, np.int8, "Bit mask of loops used, -1 when not accepted.")
    photons_out = _per_cycle(5, np.int32, "Signal photons surviving to the output slot.")
    signal_click = _per_cycle(6, bool, "Coincidence click in the gated output slot.")
    accidental_click = _per_cycle(7, bool, "Click against the herald shifted one cycle.")

    def to_csv(self, path) -> None:
        """One row per clock cycle, through the writer that `run_pulse_train`
        streams a trace with."""
        with open_output(path, "wb") as fh:
            fh.write(_CSV_HEADER)
            _write_part(fh, self)


def _csv_columns(trace: EventTrace) -> np.ndarray:
    """The CSV row of each candidate of `trace` as one column each."""
    cols = np.empty((8, trace.candidate_cycles.size), dtype=np.int64)
    cols[1:] = np.array(_QUIET)[:, None]
    cols[0] = trace.candidate_cycles
    cols[1] = trace.candidate_bin
    acc = trace.accepted_index
    cols[2, acc] = 1
    cols[3, acc] = trace.accepted_back
    cols[4, acc] = trace.accepted_loop_mask
    cols[5, acc] = trace.accepted_photons
    cols[6, acc] = trace.accepted_photons >= 1
    cols[7, acc] = trace.accepted_accidental
    return cols


def _write_part(fh, trace: EventTrace) -> None:
    """Writes to `fh` the trace CSV rows of the cycles of `trace`: a whole
    run, or one chunk.

    Rows go out one block of cycles at a time.  A block holds the cycles
    10^m j to 10^m j + 10^m - 1, whose numbers have the same digit count d,
    with m = min(d - 1, 4).  Its quiet rows differ only in the d - m leading
    digits, so one uint8 matrix per digit count, built with numpy digit
    arithmetic, holds the m trailing digits and the quiet columns of all
    10^m rows, and each block fills in its leading digits.  The block's
    candidate rows are formatted one by one, and the block goes out in one
    write: the join of the slices of the matrix between them.
    """
    cols = _csv_columns(trace)
    lo, hi = trace.start, trace.start + trace.n_cycles
    while lo < hi:
        digits = len(str(lo))
        stop = min(hi, 10**digits)
        _write_rows(fh, cols, lo, stop, digits)
        lo = stop


def _write_rows(fh, cols: np.ndarray, lo: int, hi: int, digits: int) -> None:
    """Rows of the cycles in [lo, hi), whose numbers have `digits` digits,
    given every candidate's row in the columns of `cols`."""
    lead = digits - min(digits - 1, _BLOCK_DIGITS)
    rows = _quiet_rows(digits, lead)
    width = rows.shape[1]
    text = memoryview(rows.reshape(-1))
    size = rows.shape[0]
    first = int(np.searchsorted(cols[0], lo))
    at = lo % size  # the first block's rows start at lo
    for start in range(lo - at, hi, size):
        for col, digit in enumerate(b"%d" % (start // size)):
            rows[:, col] = digit  # a scalar per column beats a (size, lead) broadcast
        stop = min(start + size, hi)
        last = int(np.searchsorted(cols[0], stop))
        pieces = []
        for row in zip(*cols[:, first:last].tolist()):
            pieces += (text[at * width : (row[0] - start) * width], _CANDIDATE_ROW % row)
            at = row[0] - start + 1
        pieces.append(text[at * width : (stop - start) * width])
        fh.write(b"".join(pieces))
        first, at = last, 0


def _quiet_rows(digits: int, lead: int) -> np.ndarray:
    """Quiet rows of the 10^(digits - lead) cycles of one block, as a uint8
    matrix with one row per cycle: the `lead` leading digits are left for the
    block to fill, the trailing ones count up from 0."""
    count = np.arange(10 ** (digits - lead), dtype=np.int32)
    rows = np.empty((count.size, digits + len(_QUIET_TAIL)), dtype=np.uint8)
    rows[:, digits:] = np.frombuffer(_QUIET_TAIL, np.uint8)
    for col in range(digits - 1, lead - 1, -1):
        count, rows[:, col] = np.divmod(count, 10)
        rows[:, col] += ord("0")
    return rows


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
    candidate_cycles: np.ndarray,
    rep_rate_hz: float,
    chain: DeadtimeChain,
    last_passed: Optional[dict] = None,
    survivors: Optional[list] = None,
) -> np.ndarray:
    """Indices of the candidates accepted by sequential refractory stages.

    A candidate blocked at one stage never reaches the later ones and does
    not re-arm the stage that blocked it, so the chain is a cascade of
    non-paralyzable filters, each applied to the survivors of the one before.
    A stage whose block is no longer than an earlier stage's is skipped: the
    survivors it would see are already spaced further apart, so it would
    pass them all.

    `last_passed` continues the cascade from the candidates before these.  It
    maps each rising stage's block to the last cycle that stage passed, and
    is updated in place.  `survivors`, if given, gets the number of
    candidates passing each rising stage appended.
    """
    if last_passed is None:
        last_passed = {}
    accepted, cycles = np.arange(candidate_cycles.size), candidate_cycles
    longest = -1
    for block in chain.blocks(rep_rate_hz):
        if block > longest:
            # A pass at cycle -(block + 1) blocks no cycle of the run.
            passed = _non_paralyzable(cycles, block, last_passed.get(block, -block - 1))
            accepted, cycles = accepted[passed], cycles[passed]
            if cycles.size:
                last_passed[block] = int(cycles[-1])
            if survivors is not None:
                survivors.append(cycles.size)
            longest = block
    return accepted


def _non_paralyzable(cycles: np.ndarray, block: int, last: int) -> np.ndarray:
    """Indices of the ascending event cycles that pass a stage which, after
    each event it passes, blocks the next `block` cycles, given the cycle
    `last` of the stage's last pass before them.

    An event more than `block` cycles after its predecessor (or after
    `last`) always passes, and after a passed event the next to pass is the
    first one at least block + 1 cycles later.  So the passed events are
    found by following those jumps, for all clusters at once, from `last`
    and from each sure pass that the next event follows within `block`
    cycles, until the chain reaches the next sure pass.
    """
    blocked = np.zeros(cycles.size + 1, dtype=bool)  # no chain goes on past the end
    blocked[0] = cycles.size and cycles[0] - last <= block
    np.less_equal(cycles[1:] - cycles[:-1], block, out=blocked[1:-1])
    reach = cycles + (block + 1)
    sure = np.flatnonzero(~blocked[:-1] & blocked[1:])  # a blocked event follows
    front = sure + 2  # most often the first jump ends just after the blocked event
    far = cycles.take(front, mode="clip") < reach[sure]
    front[far] = cycles.searchsorted(reach[sure[far]])
    if blocked[0]:
        front = np.append(front, cycles.searchsorted(last + block + 1))
    while front.size:
        front = front[blocked[front]]
        blocked[front] = False
        front = cycles.searchsorted(reach[front])
    return np.flatnonzero(~blocked[:-1])


def _bernoulli_cycles(q: float, n: int, rng: "np.random.Generator") -> np.ndarray:
    """Ascending cycles in [0, n) of a Bernoulli(q) process, as cumulative
    sums of geometric gaps.  Each block draws a few standard deviations more
    gaps than the rest of the run is expected to need, up to _GAP_BLOCK."""
    blocks, last = [], -1
    while last < n - 1:
        expected = (n - 1 - last) * q
        size = min(_GAP_BLOCK, int(expected + 4.0 * math.sqrt(expected)) + 16)
        gaps = rng.geometric(q, size)
        np.minimum(gaps, n + 1, out=gaps)  # a gap past the end ends the run
        gaps[0] += last
        blocks.append(np.cumsum(gaps, out=gaps))
        last = int(gaps[-1])
    cycles = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    return cycles[: np.searchsorted(cycles, n)]


class _Sampler:
    """The set-up of one run, made once, and the state that crosses a chunk
    boundary: each rising deadtime stage's last pass, and the bin of a herald
    on the last chunk's last cycle, whose gate the next chunk draws."""

    def __init__(self, config: PulseTrainConfig):
        topo = config.topology
        bins = topo.bins
        slots = max(b.delay_id for b in bins) + 1
        self.n = config.n_clock_cycles
        self.n_bins = len(bins)
        self.bits = (self.n_bins - 1).bit_length()  # of a bin index in a key
        self.rep_rate_hz = topo.rep_rate_hz
        self.chain = config.deadtime_chain
        self.rng = np.random.Generator(np.random.Philox(config.rng_seed))

        xi = bin_xi(topo, [config.reference_power_mw])[0]
        eta_i = np.array([b.source.eta_i for b in bins])
        eta_s = np.array([b.source.eta_s for b in bins])
        f = np.array([b.source.back_reflection_fraction for b in bins])
        try:
            _, self.p_idler, p_back_only = _herald_split(xi, eta_i, eta_s, f)
        except ValueError as error:
            raise ConfigurationError(str(error)) from error
        # A candidate is an idler click or a back-reflection only.
        self.q = self.p_idler + p_back_only
        # Success probability of the geometric law of idler photons lost.
        self.keep = 1.0 - xi * xi * (1.0 - eta_i)
        self.eta_path = eta_s * np.array([b.eta_sw for b in bins])
        self.loop_masks = np.array(
            [
                sum(bit << j for j, bit in enumerate(route_bin(b.delay_id, slots)[0]))
                for b in bins
            ],
            dtype=np.int8,
        )
        self.last_passed = {}
        self.carried = np.zeros(0, dtype=np.int64)

    def chunks(self) -> Iterator[EventTrace]:
        """The run's chunks in order, each final: it is handed on only after
        the next one is drawn, which settles its last herald's gate."""
        held, _ = self.draw(0, min(CHUNK_CYCLES, self.n))
        for start in range(CHUNK_CYCLES, self.n, CHUNK_CYCLES):
            chunk, carried = self.draw(start, min(start + CHUNK_CYCLES, self.n))
            if carried:  # a chunk without an accepted herald carries no gate
                held.accepted_accidental[-1] = True
            yield held
            held = chunk
        yield held

    def bin_keys(self, k: int, n: int) -> np.ndarray:
        """The keys ((cycle << bits | k) << 1) | idler clicked of bin k's
        herald candidates in [0, n).

        A candidate without an idler click is a back-reflection only.
        Whether an idler click came with a back-reflection changes no output,
        so those two cases are drawn as one, with probability p / q.
        """
        p, q = self.p_idler[k], self.q[k]
        if q == 0.0:
            return np.zeros(0, dtype=np.int64)
        keys = _bernoulli_cycles(q, n, self.rng)
        keys <<= self.bits + 1
        keys |= self.rng.random(keys.size) < p / q
        keys |= k << 1
        return keys

    def draw(self, start: int, stop: int) -> Tuple[EventTrace, bool]:
        """The EventTrace of cycles [start, stop), the chunk after the last
        one drawn, and whether the gate carried from that last one's final
        herald clicked.  The working arrays are freed when it returns."""
        rng, bits, n = self.rng, self.bits, stop - start
        bin_of = (1 << bits) - 1
        keys = np.concatenate([self.bin_keys(k, n) for k in range(self.n_bins)])
        keys.sort()  # by cycle, then bin: a cycle's first record is its herald
        cycle = keys >> (bits + 1)
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(cycle[1:], cycle[:-1], out=head[1:])
        heads = keys[head]
        candidate_cycles = cycle[head] + start
        candidate_bin = (heads >> 1 & bin_of).astype(np.int16)
        del cycle, head
        survivors = []
        accepted = _accept_heralds(
            candidate_cycles, self.rep_rate_hz, self.chain, self.last_passed, survivors
        )
        # The cells (cycle << bits | bin) of the accepted heralds; the low bit
        # of a herald's key tells whether its idler clicked.
        acc = heads[accepted]
        idler = (acc & 1).astype(bool)
        acc >>= 1
        k_acc = acc & bin_of

        # Pair numbers of the selected bin, in the herald's cycle and, for the
        # accidental gate, in the next one: the switch configuration persists
        # through the idle window, so the next cycle's photons from the same
        # bin reach the output.  The gate of a herald on the chunk's last
        # cycle is drawn with the next chunk, which holds that cycle's records
        # (its cell there is the bin alone).  A gate's idler clicked if the
        # key of a click in its cell is among the records, which only a cycle
        # holding candidates has: the candidate after the herald's, or the
        # chunk's first for a carried gate.
        n_in = int(acc.searchsorted((n - 1) << bits))
        gates = np.concatenate([acc[:n_in] + (1 << bits), self.carried])
        probe = gates << 1 | 1
        after = np.concatenate([accepted[:n_in] + 1, np.zeros_like(self.carried)])
        gate_idler = np.zeros(gates.size, dtype=bool)
        if candidate_cycles.size:
            busy = candidate_cycles.take(after, mode="clip") == (gates >> bits) + start
            probe = probe[busy]
            gate_idler[busy] = keys.take(keys.searchsorted(probe), mode="clip") == probe
        del keys, heads, probe  # the candidate records are no longer needed
        # A cell needed twice gets one draw, in (cycle, bin) order.  The cells
        # are three ascending runs, which a stable sort merges.
        cells = np.concatenate([acc, gates])
        order = np.argsort(cells, kind="stable")
        ordered = cells[order]
        new = np.empty(cells.size, dtype=bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        inverse = np.empty(cells.size, dtype=np.intp)
        inverse[order] = np.cumsum(new) - 1
        k_want = ordered[new] & bin_of
        clicked = np.concatenate([idler, gate_idler])[order][new]
        # Detected idler photons: >= 1, geometric with ratio p, given a click
        # and none without one; lost ones given m detected: NegBin(m + 1, keep).
        detected = np.zeros(k_want.size, dtype=np.int64)
        detected[clicked] = rng.geometric(1.0 - self.p_idler[k_want[clicked]])
        pairs = detected + rng.negative_binomial(detected + 1, self.keep[k_want])
        photons = rng.binomial(pairs[inverse[: acc.size]], self.eta_path[k_acc])
        gate_pairs = pairs[inverse[acc.size :]]
        clicks = rng.binomial(gate_pairs, self.eta_path[gates & bin_of]) >= 1
        accidental = np.zeros(acc.size, dtype=bool)
        accidental[:n_in] = clicks[:n_in]
        # On the run's last cycle the gate is out of range and never drawn.
        self.carried = acc[n_in:] & bin_of if stop < self.n else self.carried[:0]
        return EventTrace(
            rep_rate_hz=self.rep_rate_hz,
            n_cycles=n,
            candidate_cycles=candidate_cycles,
            candidate_bin=candidate_bin,
            accepted_index=accepted,  # into this chunk's candidates
            accepted_loop_mask=self.loop_masks[k_acc],
            accepted_photons=photons.astype(np.int32),
            accepted_accidental=accidental,
            accepted_back=~idler,
            start=start,
            survivors=tuple(survivors),
        ), bool(clicks[n_in:].any())


@dataclass(frozen=True)
class ChunkCounts:
    """Counters of one run, one row per chunk of CHUNK_CYCLES cycles (the
    last chunk may be shorter).  An accidental is counted in its herald's
    chunk."""

    cycles: np.ndarray  # clock cycles in each chunk
    candidates: np.ndarray  # cycles holding a herald candidate
    survivors: np.ndarray  # (chunks, rising stages): candidates passing each
    accepted: np.ndarray  # heralds passing the whole chain
    coincidences: np.ndarray  # accepted heralds with photons at the output
    accidentals: np.ndarray  # accepted heralds whose shifted gate clicked


def run_pulse_train(
    config: PulseTrainConfig, trace_csv=None
) -> Tuple[ChunkCounts, RateReport]:
    """Simulate the full apparatus for config.n_clock_cycles clock cycles.

    Returns the run's ChunkCounts, one row of counters per chunk, and its
    rates.  Given a path, the trace CSV is streamed to it chunk by chunk, so
    memory stays bounded by one chunk either way.
    """
    sampler = _Sampler(config)  # a bad configuration raises before any file opens
    if trace_csv is None:
        return _run(sampler, lambda chunk: None)
    with open_output(trace_csv, "wb") as fh:
        fh.write(_CSV_HEADER)
        return _run(sampler, lambda chunk: _write_part(fh, chunk))


def event_trace(config: PulseTrainConfig) -> Tuple[EventTrace, RateReport]:
    """The run of `run_pulse_train`, with its records kept in memory and
    joined into one EventTrace."""
    parts = []
    _, report = _run(_Sampler(config), parts.append)
    records = {name: [getattr(part, name) for part in parts] for name in _RECORDS}
    offsets = np.cumsum([0] + [part.candidate_cycles.size for part in parts[:-1]])
    records["accepted_index"] = [
        index + at for index, at in zip(records["accepted_index"], offsets)
    ]
    trace = EventTrace(
        rep_rate_hz=config.topology.rep_rate_hz,
        n_cycles=config.n_clock_cycles,
        survivors=tuple(map(sum, zip(*(part.survivors for part in parts)))),
        **{name: np.concatenate(arrays) for name, arrays in records.items()},
    )
    return trace, report


def _run(
    sampler: _Sampler, sink: Callable[[EventTrace], None]
) -> Tuple[ChunkCounts, RateReport]:
    """Draws the run chunk by chunk, counting each final chunk and handing
    it to `sink`."""
    n, rep_rate_hz = sampler.n, sampler.rep_rate_hz
    rows = []
    for chunk in sampler.chunks():
        rows.append(
            (
                chunk.n_cycles,
                chunk.candidate_cycles.size,
                chunk.survivors,
                chunk.accepted_index.size,
                np.count_nonzero(chunk.accepted_photons),
                np.count_nonzero(chunk.accepted_accidental),
            )
        )
        sink(chunk)
        del chunk  # unless the sink keeps them, its records go before the next draw
    counts = ChunkCounts(*(np.array(c, dtype=np.int64) for c in zip(*rows)))
    (r_trig, e_trig), (r_c, e_c), (r_a, e_a) = (
        _binomial_rate(int(count.sum()), n, rep_rate_hz)
        for count in (counts.accepted, counts.coincidences, counts.accidentals)
    )
    report = RateReport(
        r_trig_hz=r_trig,
        r_coincidence_hz=r_c,
        r_accidental_hz=r_a,
        r_trig_err_hz=e_trig,
        r_coincidence_err_hz=e_c,
        r_accidental_err_hz=e_a,
    )
    return counts, report


def _binomial_rate(count: int, n: int, rep_rate_hz: float) -> Tuple[float, float]:
    duration = n / rep_rate_hz
    p = count / n
    err = math.sqrt(max(p * (1.0 - p), 0.0) / n) * rep_rate_hz
    return count / duration, err
