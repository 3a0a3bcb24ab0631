"""Pulse-train simulator: reproducibility, structural invariants, and
agreement with the analytic models."""

import csv
import dataclasses
import hashlib
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from muxsim import (
    DeadtimeChain,
    MuxBin,
    MuxTopology,
    PulseTrainConfig,
    SourceParams,
    calibrate_coupling,
    evaluate_mux,
    event_trace,
    route_bin,
    run_pulse_train,
)
from muxsim import eventsim
from muxsim.defaults import FULL_CHAIN, IDLE_TIME_S, default_topology
from muxsim.eventsim import (
    ConfigurationError,
    EventTrace,
    RoutingError,
    _accept_heralds,
    _non_paralyzable,
)
from muxsim.hsps import source_probs, xi_from_power

import dense_eventsim

NO_DEADTIME = DeadtimeChain(())
# The per-cycle arrays of an EventTrace, in the order of the trace CSV.
PER_CYCLE_VIEWS = (
    "herald_bin",
    "accepted",
    "back_reflection",
    "loop_mask",
    "photons_out",
    "signal_click",
    "accidental_click",
)


def _single_bin_topology(eta_i, eta_s, p_seed, eta_sw=1.0, fraction=1.0, f=0.0):
    source = SourceParams(eta_i, eta_s, p_seed, f)
    bin_ = MuxBin(1, 3, source, fraction, eta_sw)
    return MuxTopology((bin_,), 80e6, 3e-9)


def _z(count, expected):
    if expected == 0.0:
        return 0.0 if count == 0 else math.inf
    return (count - expected) / math.sqrt(expected)


# --- routing ------------------------------------------------------------------------

def test_route_bin_examples():
    assert route_bin(3, 4) == ((0, 0), 3)
    assert route_bin(0, 4) == ((1, 1), 3)
    assert route_bin(1, 4) == ((0, 1), 3)
    assert route_bin(2, 4) == ((1, 0), 3)
    with pytest.raises(ValueError):
        route_bin(4, 4)
    with pytest.raises(RoutingError):
        route_bin(0, 8)  # delay of 7 bins exceeds the loop budget


# --- configuration validation ----------------------------------------------------

def test_config_rejects_zero_cycles():
    with pytest.raises(ConfigurationError):
        PulseTrainConfig(_single_bin_topology(0.1, 0.1, 5.0), 5.0, 0)


@pytest.mark.parametrize("power", [-1.0, math.nan, math.inf])
def test_config_rejects_negative_or_non_finite_power(power):
    with pytest.raises(ConfigurationError, match="reference_power_mw"):
        PulseTrainConfig(_single_bin_topology(0.1, 0.1, 5.0), power, 1000)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_clock_cycles", 1e5),
        ("n_clock_cycles", True),
        ("n_clock_cycles", "1000"),
        ("rng_seed", -1),
        ("rng_seed", 1.5),
        ("rng_seed", False),
        ("reference_power_mw", True),
        ("reference_power_mw", "5"),
        ("reference_power_mw", None),
    ],
)
def test_config_rejects_mistyped_cycles_or_seed(field, value):
    settings = {"reference_power_mw": 5.0, "n_clock_cycles": 1000, field: value}
    with pytest.raises(ConfigurationError, match=field):
        PulseTrainConfig(_single_bin_topology(0.1, 0.1, 5.0), **settings)


def test_config_takes_numpy_integers():
    config = PulseTrainConfig(
        _single_bin_topology(0.1, 0.1, 5.0), 5.0, np.int64(1000), rng_seed=np.uint32(3)
    )
    trace, _ = event_trace(config)
    assert trace.n_cycles == 1000


def test_config_rejects_bins_that_do_not_fit():
    topo = MuxTopology(
        (MuxBin(1, 3, SourceParams(0.1, 0.1, 5.0), 1.0, 1.0),),
        rep_rate_hz=80e6,
        bin_spacing_s=4e-9,  # 4 slots x 4 ns > 12.5 ns
    )
    with pytest.raises(ConfigurationError):
        PulseTrainConfig(topo, 5.0, 1000)


def test_config_rejects_unroutable_delay():
    topo = MuxTopology(
        (
            MuxBin(1, 0, SourceParams(0.1, 0.1, 5.0), 0.2, 1.0),
            MuxBin(1, 5, SourceParams(0.1, 0.1, 5.0), 0.2, 1.0),
        ),
        rep_rate_hz=80e6,
        bin_spacing_s=1e-9,
    )
    with pytest.raises(RoutingError):
        PulseTrainConfig(topo, 5.0, 1000)


def test_back_reflection_beyond_a_probability_rejected():
    # f * p_trig > 1 is no probability: the simulator names the largest
    # value, as the closed forms do, instead of failing inside numpy.
    topo = _single_bin_topology(0.1, 0.01, 5.0, f=5000.0)
    with pytest.raises(ValueError) as model:
        evaluate_mux(topo, 25.0)
    with pytest.raises(ConfigurationError) as simulated:
        run_pulse_train(PulseTrainConfig(topo, 25.0, 1000))
    assert str(simulated.value).startswith("f * p_trig reaches ")
    assert str(simulated.value) == str(model.value)


# --- structural invariants ---------------------------------------------------------

def test_reproducibility_bit_identical():
    config = PulseTrainConfig(default_topology(), 8.0, 50_000, rng_seed=99)
    trace_a, report_a = event_trace(config)
    trace_b, report_b = event_trace(config)
    for field in PER_CYCLE_VIEWS:
        assert np.array_equal(getattr(trace_a, field), getattr(trace_b, field))
    assert report_a == report_b


def test_different_seeds_differ():
    base = dict(topology=default_topology(), reference_power_mw=8.0, n_clock_cycles=50_000)
    trace_a, _ = event_trace(PulseTrainConfig(rng_seed=1, **base))
    trace_b, _ = event_trace(PulseTrainConfig(rng_seed=2, **base))
    assert not np.array_equal(trace_a.herald_bin, trace_b.herald_bin)


def test_zero_power_produces_nothing():
    config = PulseTrainConfig(default_topology(), 0.0, 10_000)
    trace, report = event_trace(config)
    assert report.r_trig_hz == 0.0
    assert report.r_coincidence_hz == 0.0
    assert trace.photons_out.sum() == 0


def test_output_confined_to_accepted_cycles():
    config = PulseTrainConfig(default_topology(), 15.0, 100_000, rng_seed=5)
    trace, _ = event_trace(config)
    unaccepted = ~trace.accepted
    assert trace.photons_out[unaccepted].sum() == 0
    assert not trace.signal_click[unaccepted].any()
    assert np.all(trace.loop_mask[unaccepted] == -1)
    assert np.all(trace.loop_mask[trace.accepted] >= 0)


def test_default_chain_is_the_default_electronics():
    config = PulseTrainConfig(default_topology(), 5.0, 1000)
    assert config.deadtime_chain == FULL_CHAIN
    assert FULL_CHAIN.blocks(80e6) == (8, 8, 160)


def test_idle_window_blocks_following_heralds():
    config = PulseTrainConfig(
        default_topology(),
        20.0,
        300_000,
        deadtime_chain=FULL_CHAIN,
        rng_seed=6,
    )
    trace, report = event_trace(config)
    cycles = np.flatnonzero(trace.accepted)
    idle_cycles = int(round(IDLE_TIME_S * 80e6))
    assert np.all(np.diff(cycles) > idle_cycles)
    assert report.r_trig_hz <= 1.0 / IDLE_TIME_S


# --- agreement with the closed forms -------------------------------------------------

def test_single_bin_matches_closed_forms():
    eta_i, eta_s, p_seed = 0.1, 0.05, 5.0
    topo = _single_bin_topology(eta_i, eta_s, p_seed, fraction=0.9)
    config = PulseTrainConfig(
        topo, 8.0, 1_000_000, deadtime_chain=NO_DEADTIME, rng_seed=42
    )
    trace, _ = event_trace(config)
    xi = xi_from_power(calibrate_coupling(p_seed), 8.0 * 0.9)
    probs = source_probs(xi, eta_i, eta_s, 0.0)
    n = config.n_clock_cycles
    checks = (
        (trace.accepted.sum(), 80e6 * probs.p_trig),
        (trace.signal_click.sum(), 80e6 * probs.p_c),
        (trace.accidental_click.sum(), 80e6 * probs.p_a),
    )
    for count, rate_hz in checks:
        assert abs(_z(count, rate_hz / 80e6 * n)) < 3.0


def test_pass2_bin_matches_closed_forms():
    topo = _single_bin_topology(0.2, 0.1, 5.0, eta_sw=0.7, fraction=0.8, f=0.5)
    config = PulseTrainConfig(
        topo, 10.0, 1_000_000, deadtime_chain=NO_DEADTIME, rng_seed=43
    )
    trace, _ = event_trace(config)
    probs = evaluate_mux(topo, 10.0)
    n = config.n_clock_cycles
    assert abs(_z(trace.accepted.sum(), probs.p_trig * n)) < 3.0
    assert abs(_z(trace.signal_click.sum(), probs.p_c * n)) < 3.0
    assert abs(_z(trace.accidental_click.sum(), probs.p_a * n)) < 3.0


def test_randomized_topologies_match_analytic_model():
    rng = np.random.default_rng(2024)
    n = 400_000
    for case in range(12):
        n_bins = int(rng.integers(1, 5))
        pass_id = 1 if case % 2 == 0 else 2
        f = 0.0 if pass_id == 1 else float(rng.uniform(0.0, 0.5))
        bins = tuple(
            MuxBin(
                pass_id,
                d,
                SourceParams(
                    float(rng.uniform(0.02, 0.4)),
                    float(rng.uniform(0.01, 0.3)),
                    float(rng.uniform(2.0, 10.0)),
                    f,
                ),
                float(rng.uniform(0.05, 0.24)),
                float(rng.uniform(0.3, 1.0)),
            )
            for d in range(n_bins)
        )
        topo = MuxTopology(bins, 80e6, 3e-9)
        power = float(rng.uniform(2.0, 20.0))
        config = PulseTrainConfig(
            topo, power, n, deadtime_chain=NO_DEADTIME,
            rng_seed=1000 + case,
        )
        trace, _ = event_trace(config)
        probs = evaluate_mux(topo, power)
        for count, p in (
            (trace.accepted.sum(), probs.p_trig),
            (trace.signal_click.sum(), probs.p_c),
            (trace.accidental_click.sum(), probs.p_a),
        ):
            assert abs(_z(count, p * n)) < 3.0, f"case {case}"


def test_loss_splitting_is_distribution_identical():
    # eta_s * eta_sw enters only through the product, so splitting the loss
    # differently must leave all counters statistically unchanged.
    n = 800_000
    a = _single_bin_topology(0.2, 0.3, 5.0, eta_sw=1.0)
    b = _single_bin_topology(0.2, 0.6, 5.0, eta_sw=0.5)
    run_a, _ = event_trace(
        PulseTrainConfig(a, 8.0, n, deadtime_chain=NO_DEADTIME, rng_seed=7)
    )
    run_b, _ = event_trace(
        PulseTrainConfig(b, 8.0, n, deadtime_chain=NO_DEADTIME, rng_seed=8)
    )
    for field in ("signal_click", "accidental_click"):
        ca = int(getattr(run_a, field).sum())
        cb = int(getattr(run_b, field).sum())
        assert abs(ca - cb) < 3.0 * math.sqrt(ca + cb)
    # photon-number histogram at the output, chi-square style per bin
    for k in range(1, 4):
        ca = int((run_a.photons_out == k).sum())
        cb = int((run_b.photons_out == k).sum())
        assert abs(ca - cb) < 4.0 * math.sqrt(max(ca + cb, 1))


def test_accidental_estimator_product_rule():
    topo = _single_bin_topology(0.2, 0.15, 5.0)
    n = 500_000
    config = PulseTrainConfig(
        topo, 8.0, n, deadtime_chain=NO_DEADTIME, rng_seed=21
    )
    trace, report = event_trace(config)
    probs = evaluate_mux(topo, 8.0)
    expected = probs.p_trig * (probs.p_a / probs.p_trig)  # product form
    assert report.r_accidental_hz * n / 80e6 == pytest.approx(
        trace.accidental_click.sum(), rel=1e-12
    )
    assert abs(_z(report.r_accidental_hz * n / 80e6, expected * n)) < 3.0


def test_accidental_estimator_zero_signal_transmission():
    topo = _single_bin_topology(0.2, 0.0, 5.0)
    config = PulseTrainConfig(
        topo, 8.0, 50_000, deadtime_chain=NO_DEADTIME, rng_seed=18
    )
    _, report = run_pulse_train(config)
    assert report.r_accidental_hz == 0.0


# --- agreement with the dense oracle -----------------------------------------------

def _pass2_bin_config(n, **settings):
    topo = _single_bin_topology(0.6, 0.5, 5.0, eta_sw=0.9, f=0.5)
    return PulseTrainConfig(topo, 20.0, n, **settings)


@pytest.mark.parametrize(
    "make_config",
    [
        lambda n: PulseTrainConfig(default_topology(), 5.0, n),
        lambda n: PulseTrainConfig(default_topology(), 40.0, n),
        lambda n: _pass2_bin_config(n, deadtime_chain=NO_DEADTIME),
        # The cycle after an accepted herald often holds a blocked idler
        # click, which raises that cycle's pair number for the accidental gate.
        _pass2_bin_config,
    ],
    ids=["default-5mW", "default-40mW", "pass2-bin-no-deadtime", "pass2-bin"],
)
def test_sparse_sampler_matches_dense_oracle(make_config):
    _assert_matches_dense_oracle(make_config(2_000_000))


def test_sparse_sampler_matches_dense_oracle_across_chunks(monkeypatch):
    # 2000 chunk boundaries; without deadtimes a herald often sits on a
    # chunk's last cycle, and its accidental gate is drawn with the next chunk.
    monkeypatch.setattr(eventsim, "CHUNK_CYCLES", 1000)
    config = _pass2_bin_config(2_000_000, deadtime_chain=NO_DEADTIME)
    _assert_matches_dense_oracle(config)


def _assert_matches_dense_oracle(config):
    sparse, _ = event_trace(dataclasses.replace(config, rng_seed=31))
    dense = dense_eventsim.run_dense_pulse_train(
        dataclasses.replace(config, rng_seed=32)
    )

    def counts(trace):
        out = {
            f"herald_bin={k}": int((trace.herald_bin == k).sum())
            for k in range(len(config.topology.bins))
        }
        for field in (
            "accepted", "signal_click", "accidental_click", "back_reflection"
        ):
            out[field] = int(getattr(trace, field).sum())
        for k in range(1, 4):
            out[f"photons_out={k}"] = int((trace.photons_out == k).sum())
        # Without deadtimes the next cycle can herald in the same bin: its
        # signal photons then also feed this cycle's accidental gate.
        out["accidental,next signal"] = int(
            (trace.accidental_click[:-1] & trace.signal_click[1:]).sum()
        )
        return out

    got, want = counts(sparse), counts(dense)
    for name in want:
        a, b = got[name], want[name]
        z = (a - b) / math.sqrt(a + b) if a + b else 0.0
        assert abs(z) < 4.0, f"{name}: sparse {a}, dense {b}"


def test_acceptance_equals_sequential_rule():
    rng = np.random.default_rng(77)
    for _ in range(300):
        size = int(rng.integers(0, 300))
        cycles = np.sort(rng.integers(0, int(rng.integers(1, 5000)), size))
        stages = rng.integers(0, 20, rng.integers(0, 4))
        idle = rng.integers(0, 200)
        chain = DeadtimeChain(tuple(float(d) for d in stages) + (float(idle),))
        assert np.array_equal(
            _accept_heralds(cycles, 1.0, chain),
            np.flatnonzero(dense_eventsim._accept_heralds(cycles, 1.0, chain)),
        )


def _every_stage(cycles, rep_rate_hz, chain):
    """The cascade with every stage applied, dominated or not."""
    accepted = np.arange(cycles.size)
    for block in chain.blocks(rep_rate_hz):
        accepted = accepted[_non_paralyzable(cycles[accepted], block, -block - 1)]
    return accepted


# Every chain repeats some of its blocks, in any order, so that it holds
# repeated stages and, often, stages no longer than an earlier one.
_CHAINS = st.lists(st.integers(0, 40), min_size=1, max_size=4).flatmap(
    lambda blocks: st.permutations(blocks + blocks[: len(blocks) // 2 + 1])
)
_GAPS = st.lists(st.integers(0, 60), max_size=300)  # a zero gap repeats a cycle


@settings(max_examples=300, deadline=None)
@given(block=st.integers(0, 40), after=st.integers(0, 100), gaps=_GAPS)
@example(block=5, after=0, gaps=[]).via("empty input, no pass before")
@example(block=10, after=14, gaps=[0, 4, 6, 7, 0, 0, 30, 0]).via("blocked start")
def test_non_paralyzable_continues_from_the_last_pass(block, after, gaps):
    # The last pass sits `after` cycles past -(block + 1), where it blocks
    # nothing; a later one blocks the events up to `block` cycles after it, a
    # first gap of 0 repeating its cycle.
    last = after - block - 1
    cycles = last + np.cumsum(np.array(gaps, dtype=np.int64))
    passed = _non_paralyzable(cycles, block, last)
    # The sequential rule, with the last pass as the first event, everything
    # shifted so that it sits at a cycle >= 0, where nothing blocks it.
    chain = DeadtimeChain((float(block),))
    shifted = np.concatenate([[last], cycles]) + (block + 1)
    sequential = dense_eventsim._accept_heralds(shifted, 1.0, chain)
    assert sequential[0]
    assert np.array_equal(passed, np.flatnonzero(sequential[1:]))


@settings(max_examples=200, deadline=None)
@given(blocks=_CHAINS, gaps=_GAPS)
def test_skipping_dominated_stages_accepts_what_every_stage_accepts(blocks, gaps):
    cycles = np.cumsum(np.array(gaps, dtype=np.int64))
    chain = DeadtimeChain(tuple(float(b) for b in blocks))
    accepted = _accept_heralds(cycles, 1.0, chain)
    assert np.array_equal(accepted, _every_stage(cycles, 1.0, chain))
    dense = dense_eventsim._accept_heralds(cycles, 1.0, chain)
    assert np.array_equal(accepted, np.flatnonzero(dense))


@settings(max_examples=200, deadline=None)
@given(blocks=_CHAINS, gaps=_GAPS, data=st.data())
def test_chunked_cascade_accepts_what_the_whole_array_accepts(blocks, gaps, data):
    cycles = np.cumsum(np.array(gaps, dtype=np.int64))
    chain = DeadtimeChain(tuple(float(b) for b in blocks))
    span = int(cycles[-1]) + 1 if cycles.size else 1
    chunk = data.draw(st.integers(1, span), label="chunk_cycles")
    # Cut every `chunk` cycles, as the sampler does (runs of empty chunks
    # merged), and at drawn candidates, which can split a repeated cycle or
    # leave a chunk empty.
    cuts = data.draw(st.lists(st.integers(0, cycles.size), max_size=5), label="cuts")
    at_chunks = np.unique(np.searchsorted(cycles, np.arange(0, span + chunk, chunk)))
    edges = np.sort(np.concatenate([[0, cycles.size], at_chunks, cuts]).astype(int))
    last_passed, parts, survivors = {}, [], []
    for a, b in zip(edges[:-1], edges[1:]):
        stages = []
        parts.append(a + _accept_heralds(cycles[a:b], 1.0, chain, last_passed, stages))
        survivors.append(stages)
    chunked = np.concatenate(parts)
    assert np.array_equal(chunked, _accept_heralds(cycles, 1.0, chain))
    dense = dense_eventsim._accept_heralds(cycles, 1.0, chain)
    assert np.array_equal(chunked, np.flatnonzero(dense))
    whole = []
    _accept_heralds(cycles, 1.0, chain, survivors=whole)
    assert np.sum(survivors, axis=0).tolist() == whole
    assert whole[-1] == chunked.size


# --- chunks -------------------------------------------------------------------------

RECORD_FIELDS = (
    "candidate_cycles",
    "candidate_bin",
    "accepted_index",
    "accepted_loop_mask",
    "accepted_photons",
    "accepted_accidental",
    "accepted_back",
)


def _record_sha256(trace) -> str:
    digest = hashlib.sha256()
    for field in RECORD_FIELDS:
        digest.update(np.ascontiguousarray(getattr(trace, field), np.int64).tobytes())
    return digest.hexdigest()


# sha256 of the record arrays of one-chunk runs, each as int64 in the order
# of RECORD_FIELDS, recorded from the sampler before it drew in chunks: a
# run of at most CHUNK_CYCLES cycles makes the same draws in the same order.
ONE_CHUNK_SHA256 = {
    "full-chain": "abdbc653cc70c70d4c4893be85f2e2dd176dcd6ed51d3de2cb9ca3ff51d3f83b",
    "empty-chain": "b26e4bcd0760a804c1db9ccf9539dc79a5676064c335075359ed90774aadf628",
}


@pytest.mark.parametrize("name", ONE_CHUNK_SHA256)
def test_one_chunk_runs_draw_the_unchunked_stream(name):
    assert eventsim.CHUNK_CYCLES >= 1_000_000
    chain = {"full-chain": FULL_CHAIN, "empty-chain": NO_DEADTIME}[name]
    config = PulseTrainConfig(default_topology(), 40.0, 1_000_000, chain, rng_seed=2024)
    trace, report = event_trace(config)
    assert _record_sha256(trace) == ONE_CHUNK_SHA256[name]
    assert run_pulse_train(config)[1] == report


# sha256 of the record arrays of runs that cross chunk boundaries, hashed as
# ONE_CHUNK_SHA256 is, recorded before the sampler drew on packed keys: the
# deadtime stages' last passes and the carried accidental gates cross those
# boundaries, and the draws must stay the same.  The 997-cycle chunks without
# deadtimes carry 330 gates across boundaries, 75 of which click.
MULTI_CHUNK_SHA256 = {
    "full-chain": "44bfc0f5eff99f5f3d29d5fa0279f2a71df22cd7f74297d322fb9ff1e1883aca",
    "empty-chain": "83f24218fb3460dc670de6455259fa58ea48bcd3fff28745d73d1521163e8c55",
    "pass2-bin-997": "5178377c899ad4c54191805a4d39e5a9c521e3bb0c17a19f34a829c0d3503a2e",
}


@pytest.mark.parametrize("name", MULTI_CHUNK_SHA256)
def test_multi_chunk_runs_keep_their_stream(monkeypatch, name):
    if name == "pass2-bin-997":
        monkeypatch.setattr(eventsim, "CHUNK_CYCLES", 997)
        config = _pass2_bin_config(1_000_000, deadtime_chain=NO_DEADTIME, rng_seed=2024)
    else:
        assert 1 << 20 == eventsim.CHUNK_CYCLES  # 2.5e6 cycles are three chunks
        chain = {"full-chain": FULL_CHAIN, "empty-chain": NO_DEADTIME}[name]
        config = PulseTrainConfig(default_topology(), 40.0, 2_500_000, chain, rng_seed=2024)
    trace, report = event_trace(config)
    assert _record_sha256(trace) == MULTI_CHUNK_SHA256[name]
    assert run_pulse_train(config)[1] == report


@pytest.mark.parametrize(
    "config",
    [
        PulseTrainConfig(default_topology(), 40.0, 200_000, rng_seed=9),
        _pass2_bin_config(200_000, deadtime_chain=NO_DEADTIME, rng_seed=9),
    ],
    ids=["default-40mW", "pass2-bin-no-deadtime"],
)
def test_chunk_counts_add_up_to_the_trace(monkeypatch, config):
    chunk = 997
    monkeypatch.setattr(eventsim, "CHUNK_CYCLES", chunk)
    trace, traced = event_trace(config)
    counts, report = run_pulse_train(config)
    assert report == traced  # the same draws, whichever records are kept
    n, rep_rate_hz = config.n_clock_cycles, config.topology.rep_rate_hz

    def per_chunk(cycles):
        return np.bincount(cycles // chunk, minlength=counts.cycles.size)

    accepted = trace.accepted_cycles
    assert counts.cycles.sum() == n and set(counts.cycles[:-1].tolist()) == {chunk}
    assert np.array_equal(counts.candidates, per_chunk(trace.candidate_cycles))
    assert np.array_equal(counts.accepted, per_chunk(accepted))
    assert np.array_equal(
        counts.coincidences, per_chunk(accepted[trace.accepted_photons >= 1])
    )
    # An accidental counts in its herald's chunk, also when its gate was drawn
    # with the next one.
    assert np.array_equal(
        counts.accidentals, per_chunk(accepted[trace.accepted_accidental])
    )
    # The cascade, carried across chunks, accepts what it accepts in one piece.
    stages = []
    whole = _accept_heralds(
        trace.candidate_cycles, rep_rate_hz, config.deadtime_chain, survivors=stages
    )
    assert np.array_equal(trace.accepted_index, whole)
    assert counts.survivors.sum(axis=0).tolist() == stages
    # The per-chunk rows add up to the report.
    for count, rate in (
        (counts.accepted, report.r_trig_hz),
        (counts.coincidences, report.r_coincidence_hz),
        (counts.accidentals, report.r_accidental_hz),
    ):
        assert rate == pytest.approx(count.sum() / n * rep_rate_hz, rel=1e-12)


# One-cycle chunks put every herald on its chunk's last cycle, and often leave
# the next chunk without a candidate of its own.
@pytest.mark.parametrize("chunk, n", [(97, 100_000), (1, 2_000)])
def test_a_gate_carried_across_a_boundary_shares_the_next_heralds_draw(
    monkeypatch, chunk, n
):
    # On a lossless signal path the photons at the output are the pair
    # number.  So where one bin heralds on consecutive cycles, the first
    # herald's accidental gate clicks exactly when the second's signal does:
    # one draw per (cycle, bin), also when a chunk boundary lies between them.
    monkeypatch.setattr(eventsim, "CHUNK_CYCLES", chunk)
    topo = _single_bin_topology(0.6, 1.0, 5.0)
    config = PulseTrainConfig(topo, 20.0, n, NO_DEADTIME, rng_seed=4)
    trace, _ = event_trace(config)
    t = trace.accepted_cycles
    follows = np.flatnonzero(np.diff(t) == 1)
    assert np.count_nonzero(t[follows] % chunk == chunk - 1) > 50
    assert np.array_equal(
        trace.accepted_accidental[follows], trace.accepted_photons[follows + 1] >= 1
    )
    # A sink gets each chunk final: a flag it copies on receipt is the flag
    # the joined trace holds.
    received = []
    eventsim._run(
        eventsim._Sampler(config),
        lambda part: received.append(part.accepted_accidental.copy()),
    )
    assert np.array_equal(np.concatenate(received), trace.accepted_accidental)


@pytest.mark.parametrize(
    "chunk, n",
    [
        (1, 2_000),
        (97, 45_000),
        (997, 400_000),
        (9_999, 1_000_500),
        (10_000, 1_000_500),
        (10_001, 1_000_500),
    ],
)
def test_streamed_trace_equals_the_joined_trace(monkeypatch, tmp_path, chunk, n):
    # Chunks shorter than, equal to and longer than the writer's 10^4-cycle
    # blocks, across the cycle numbers' digit steps, on the lossless one-bin
    # topology: a quarter of its cycles herald, so heralds fall on many
    # chunks' last cycles and have their accidental gate drawn with the next.
    monkeypatch.setattr(eventsim, "CHUNK_CYCLES", chunk)
    topo = _single_bin_topology(0.6, 1.0, 5.0)
    config = PulseTrainConfig(topo, 20.0, n, NO_DEADTIME, rng_seed=4)
    trace, joined = event_trace(config)
    t = trace.accepted_cycles
    carried = (t % chunk == chunk - 1) & (t < n - 1)
    assert np.count_nonzero(trace.accepted_accidental[carried]) >= 1
    trace.to_csv(tmp_path / "joined.csv")
    counts, report = run_pulse_train(config)
    streamed_counts, streamed = run_pulse_train(config, tmp_path / "streamed.csv")
    assert (tmp_path / "streamed.csv").read_bytes() == (
        tmp_path / "joined.csv"
    ).read_bytes()
    assert streamed == report == joined
    for field in dataclasses.fields(counts):
        assert np.array_equal(
            getattr(streamed_counts, field.name), getattr(counts, field.name)
        )


@pytest.mark.parametrize("chain", [NO_DEADTIME, FULL_CHAIN], ids=["no-deadtime", "full"])
@pytest.mark.parametrize("chunk, n", [(1, 500), (97, 45_000), (10_000, 100_500)])
def test_a_chunk_is_the_event_trace_of_its_cycles(monkeypatch, tmp_path, chain, chunk, n):
    # Each chunk a sink receives is an EventTrace of the cycles
    # [start, start + n_cycles): its per-cycle views and its own CSV are the
    # joined trace's slice, and the joined trace sums the chunks' survivors.
    monkeypatch.setattr(eventsim, "CHUNK_CYCLES", chunk)
    topo = _single_bin_topology(0.6, 1.0, 5.0)
    config = PulseTrainConfig(topo, 20.0, n, chain, rng_seed=4)
    trace, _ = event_trace(config)
    views = {name: getattr(trace, name) for name in PER_CYCLE_VIEWS}
    trace.to_csv(tmp_path / "joined.csv")
    header, *rows = (tmp_path / "joined.csv").read_bytes().splitlines(keepends=True)
    starts = []

    def check(part):
        lo, hi = part.start, part.start + part.n_cycles
        starts.append(lo)
        for name, whole in views.items():
            view = getattr(part, name)
            assert view.dtype == whole.dtype and np.array_equal(view, whole[lo:hi])
        part.to_csv(tmp_path / "chunk.csv")
        assert (tmp_path / "chunk.csv").read_bytes() == header + b"".join(rows[lo:hi])

    counts, _ = eventsim._run(eventsim._Sampler(config), check)
    assert starts == list(range(0, n, chunk))
    assert trace.survivors == tuple(counts.survivors.sum(axis=0))
    assert len(trace.survivors) == (2 if chain is FULL_CHAIN else 0)


@pytest.mark.parametrize("trace_csv", [None, os.devnull], ids=["counts", "streamed"])
def test_counts_run_holds_one_chunk_at_a_time(trace_csv):
    def peak(n):
        config = PulseTrainConfig(default_topology(), 40.0, n, rng_seed=3)
        tracemalloc.start()
        try:
            run_pulse_train(config, trace_csv)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 2^21 and 2^23 cycles: four times the run, the same peak of two chunks'
    # arrays (about 1.8 MB at 40 mW, 2.8 MB with the trace streamed), where
    # whole-run arrays grow fourfold.  The first run in a process imports
    # numpy.random, 0.75 MB that tracemalloc counts, so one goes before both.
    peak(1)
    small = peak(2 * eventsim.CHUNK_CYCLES)
    large = peak(8 * eventsim.CHUNK_CYCLES)
    assert abs(large - small) <= 0.1 * small


# --- trace export -------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    config = PulseTrainConfig(default_topology(), 8.0, 2_000, rng_seed=12)
    trace, _ = event_trace(config)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2_000
    idx = 999
    assert int(rows[idx]["herald_bin"]) == int(trace.herald_bin[idx])
    assert int(rows[idx]["signal_click"]) == int(trace.signal_click[idx])


@pytest.mark.parametrize(
    "config",
    [
        PulseTrainConfig(default_topology(), 40.0, 20_000, rng_seed=12),
        _pass2_bin_config(20_000, deadtime_chain=NO_DEADTIME),
    ],
    ids=["default-40mW", "pass2-bin-no-deadtime"],
)
def test_trace_csv_matches_row_by_row_writer(tmp_path, config):
    trace, _ = event_trace(config)
    assert trace.accepted.sum() > 10 and trace.back_reflection.any()
    dense = dense_eventsim.DenseTrace(
        trace.rep_rate_hz, trace.n_cycles, *(getattr(trace, f) for f in PER_CYCLE_VIEWS)
    )
    trace.to_csv(tmp_path / "sparse.csv")
    dense.to_csv(tmp_path / "dense.csv")
    sparse_bytes = (tmp_path / "sparse.csv").read_bytes()
    assert sparse_bytes == (tmp_path / "dense.csv").read_bytes()


def _built_trace(n_cycles, cycles):
    """A trace holding candidates at `cycles`; every other one is accepted,
    with outcomes drawn from a fixed stream."""
    cycles = np.array(sorted(cycles), dtype=np.int64)
    rng = np.random.default_rng(cycles.size)
    accepted = np.arange(0, cycles.size, 2)
    k = accepted.size
    return EventTrace(
        rep_rate_hz=80e6,
        n_cycles=n_cycles,
        candidate_cycles=cycles,
        candidate_bin=rng.integers(0, 8, cycles.size).astype(np.int16),
        accepted_index=accepted,
        accepted_loop_mask=rng.integers(0, 8, k).astype(np.int8),
        accepted_photons=rng.integers(0, 3, k).astype(np.int32),
        accepted_accidental=rng.random(k) < 0.3,
        accepted_back=rng.random(k) < 0.3,
    )


def _plain_csv(trace) -> bytes:
    """The trace CSV formatted one row at a time."""
    rows = dict.fromkeys(range(trace.n_cycles), "-1,0,0,-1,0,0,0")
    for cycle, bin_ in zip(trace.candidate_cycles.tolist(), trace.candidate_bin.tolist()):
        rows[cycle] = f"{bin_},0,0,-1,0,0,0"
    for j, i in enumerate(trace.accepted_index.tolist()):
        cycle = int(trace.candidate_cycles[i])
        photons = int(trace.accepted_photons[j])
        rows[cycle] = (
            f"{trace.candidate_bin[i]},1,{int(trace.accepted_back[j])},"
            f"{trace.accepted_loop_mask[j]},{photons},{int(photons >= 1)},"
            f"{int(trace.accepted_accidental[j])}"
        )
    header = (
        "cycle,herald_bin,accepted,back_reflection,loop_mask,"
        "photons_out,signal_click,accidental_click\n"
    )
    return (header + "".join(f"{c},{row}\n" for c, row in rows.items())).encode()


def _assert_plain(tmp_path, trace):
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == _plain_csv(trace)


@pytest.mark.parametrize(
    "n_cycles, cycles",
    [
        (1, []),
        (999, []),
        (1000, []),
        (1001, []),
        (1, [0]),
        (999, [0, 998]),
        (1000, [0, 999]),
        (1001, [0, 1000]),
        (3000, [998, 1001, 1999, 2000]),
        (12_000, [5, 9998, 10_001]),
        (101_000, [99_000, 100_500]),
        (250_000, [0, 1, 2, 999, 1000, 2999, 3000, 249_999]),
        (110_000, [109_999]),
        (110_001, [109_999, 110_000]),
        (120_000, []),
        (50_000, [10_001, 19_999, 40_000]),
    ],
)
def test_trace_csv_edges_match_plain_writer(tmp_path, n_cycles, cycles):
    # Quiet runs that start, end or cross at 0, at the ends of the trace, at
    # the widths' steps 999/1000, 9999/10000 and 99 999/100 000, and at the
    # edges of the 10^4-row blocks: a trace ending on one, candidates on
    # both sides of one, and blocks (20 000-39 999) holding no candidate.
    _assert_plain(tmp_path, _built_trace(n_cycles, cycles))


def test_trace_csv_past_a_million_cycles_matches_plain_writer(tmp_path):
    # Cycle numbers gain a seventh digit at 1 000 000.
    cycles = [999_998, 999_999, 1_000_000, 1_000_001, 1_000_499]
    _assert_plain(tmp_path, _built_trace(1_000_500, cycles))


@settings(deadline=None)
@given(data=st.data(), n_cycles=st.integers(1, 25_000))
def test_trace_csv_matches_plain_writer_for_drawn_candidates(
    tmp_path_factory, data, n_cycles
):
    cycles = data.draw(st.sets(st.integers(0, n_cycles - 1), max_size=60))
    _assert_plain(tmp_path_factory.mktemp("trace"), _built_trace(n_cycles, cycles))


@settings(deadline=None, max_examples=8)
@given(data=st.data(), n_cycles=st.integers(1, 150_000))
def test_trace_csv_across_row_blocks_matches_plain_writer(
    tmp_path_factory, data, n_cycles
):
    # Long enough to cross several 10^4-row blocks; few examples, since the
    # plain writer formats every row in Python.
    cycles = data.draw(st.sets(st.integers(0, n_cycles - 1), max_size=60))
    _assert_plain(tmp_path_factory.mktemp("trace"), _built_trace(n_cycles, cycles))


def test_trace_csv_holds_one_block_of_rows_at_a_time():
    config = PulseTrainConfig(default_topology(), 5.0, 1_000_000, rng_seed=5)
    trace, _ = event_trace(config)
    tracemalloc.start()
    try:
        trace.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 23 MB file is never held: a block of 10^4 rows is ~250 KB.
    assert peak <= 1_000_000
    # A device is written to, never replaced.
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_trace_csv_replaces_only_a_lone_regular_file(tmp_path):
    trace, _ = event_trace(
        PulseTrainConfig(default_topology(), 5.0, 2_000, rng_seed=5)
    )
    trace.to_csv(tmp_path / "fresh.csv")
    expected = (tmp_path / "fresh.csv").read_bytes()
    stale = b"0,0,0,0,-1,0,0,0\n" * (len(expected) // 8)
    umask = os.umask(0)
    os.umask(umask)

    # A lone regular file, read-only and longer than the trace, is replaced
    # by a new file: a reader that holds the old one keeps the old bytes.
    lone = tmp_path / "lone.csv"
    lone.write_bytes(stale)
    lone.chmod(0o444)
    with open(lone, "rb") as held:
        trace.to_csv(lone)
        assert held.read() == stale
        assert lone.stat().st_ino != os.fstat(held.fileno()).st_ino
    assert lone.read_bytes() == expected
    assert stat.S_IMODE(lone.stat().st_mode) == 0o666 & ~umask

    # A symlink is written through and stays a symlink.
    target = tmp_path / "target.csv"
    target.write_bytes(stale)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    trace.to_csv(link)
    assert link.is_symlink()
    assert target.read_bytes() == expected

    # A file with a second hard link is rewritten in place: both names keep
    # the inode and hold the new bytes.
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    first.write_bytes(stale)
    os.link(first, second)
    inode = first.stat().st_ino
    trace.to_csv(first)
    assert first.stat().st_ino == second.stat().st_ino == inode
    assert first.read_bytes() == second.read_bytes() == expected
