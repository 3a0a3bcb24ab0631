"""Pulse-train simulator: reproducibility, structural invariants, and
agreement with the analytic models."""

import csv
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muxsim import (
    DeadtimeChain,
    MuxBin,
    MuxTopology,
    PulseTrainConfig,
    SourceParams,
    calibrate_coupling,
    evaluate_mux,
    route_bin,
    run_pulse_train,
)
from muxsim.defaults import FULL_CHAIN, IDLE_TIME_S, default_topology
from muxsim.eventsim import ConfigurationError, EventTrace, RoutingError, _accept_heralds
from muxsim.hsps import source_probs, xi_from_power

import dense_eventsim

NO_DEADTIME = DeadtimeChain(())


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
    trace_a, report_a = run_pulse_train(config)
    trace_b, report_b = run_pulse_train(config)
    for field in (
        "herald_bin",
        "accepted",
        "back_reflection",
        "loop_mask",
        "photons_out",
        "signal_click",
        "accidental_click",
    ):
        assert np.array_equal(getattr(trace_a, field), getattr(trace_b, field))
    assert report_a == report_b


def test_different_seeds_differ():
    base = dict(topology=default_topology(), reference_power_mw=8.0, n_clock_cycles=50_000)
    trace_a, _ = run_pulse_train(PulseTrainConfig(rng_seed=1, **base))
    trace_b, _ = run_pulse_train(PulseTrainConfig(rng_seed=2, **base))
    assert not np.array_equal(trace_a.herald_bin, trace_b.herald_bin)


def test_zero_power_produces_nothing():
    config = PulseTrainConfig(default_topology(), 0.0, 10_000)
    trace, report = run_pulse_train(config)
    assert report.r_trig_hz == 0.0
    assert report.r_coincidence_hz == 0.0
    assert trace.photons_out.sum() == 0


def test_output_confined_to_accepted_cycles():
    config = PulseTrainConfig(default_topology(), 15.0, 100_000, rng_seed=5)
    trace, _ = run_pulse_train(config)
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
    trace, report = run_pulse_train(config)
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
    trace, _ = run_pulse_train(config)
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
    trace, _ = run_pulse_train(config)
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
        trace, _ = run_pulse_train(config)
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
    run_a, _ = run_pulse_train(
        PulseTrainConfig(a, 8.0, n, deadtime_chain=NO_DEADTIME, rng_seed=7)
    )
    run_b, _ = run_pulse_train(
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
    trace, report = run_pulse_train(config)
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
    n = 2_000_000
    config = make_config(n)
    sparse, _ = run_pulse_train(dataclasses.replace(config, rng_seed=31))
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
            dense_eventsim._accept_heralds(cycles, 1.0, chain),
        )


# --- trace export -------------------------------------------------------------------

def test_trace_csv_round_trip(tmp_path):
    config = PulseTrainConfig(default_topology(), 8.0, 2_000, rng_seed=12)
    trace, _ = run_pulse_train(config)
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
    trace, _ = run_pulse_train(config)
    assert trace.accepted.sum() > 10 and trace.back_reflection.any()
    fields = (
        "herald_bin",
        "accepted",
        "back_reflection",
        "loop_mask",
        "photons_out",
        "signal_click",
        "accidental_click",
    )
    dense = dense_eventsim.DenseTrace(
        trace.rep_rate_hz, trace.n_cycles, *(getattr(trace, f) for f in fields)
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
    trace, _ = run_pulse_train(config)
    tracemalloc.start()
    try:
        trace.to_csv(os.devnull)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 23 MB file is never held: a block of 10^4 rows is ~250 KB.
    assert peak <= 1_000_000
