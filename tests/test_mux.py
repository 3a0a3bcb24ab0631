"""Priority-nested multiplexing composition against enumeration oracles."""

import math

import numpy as np
import pytest

from muxsim import (
    MuxBin,
    MuxTopology,
    SourceParams,
    calibrate_coupling,
    evaluate_mux,
    p_trig_idler,
    saturated_report,
    simple_mux_single_prob,
)
from muxsim.defaults import default_topology
from muxsim.hsps import (
    EmissionProbs,
    SourceProbs,
    emission_probs,
    source_probs,
    xi_from_power,
)
from muxsim.mux import (
    PASS2_POWER_FACTOR,
    bin_pump_power_mw,
    bin_table,
    bin_xi,
    extrinsic_removed,
    priority_nest,
    switchless,
)
from muxsim.saturation import DeadtimeChain


def _make_bin(eta_i, eta_s, p_seed, fraction, eta_sw, pass_id=1, delay_id=0, f=0.0):
    return MuxBin(
        pass_id=pass_id,
        delay_id=delay_id,
        source=SourceParams(eta_i, eta_s, p_seed, f),
        pump_fraction=fraction,
        eta_sw=eta_sw,
    )


def _bin_probs(bins, reference_power_mw):
    """(p_trig_total, p_coincidence, p_signal_click) for each bin."""
    xis = bin_xi(MuxTopology(tuple(bins)), [reference_power_mw])[0]
    per_bin = []
    for xi, bin_ in zip(xis.tolist(), bins):
        source = bin_.source
        eta_s = source.eta_s * bin_.eta_sw
        probs = source_probs(xi, source.eta_i, eta_s, source.back_reflection_fraction)
        per_bin.append((probs.p_trig, probs.p_c, p_trig_idler(xi, eta_s)))
    return per_bin


def _emission_table(topology, powers):
    """emission_probs of every bin at every reference power, laid out as
    bin_table lays out source_probs: (n_powers, n_bins) arrays."""
    bins = topology.bins
    return emission_probs(
        bin_xi(topology, powers),
        np.array([b.source.eta_i for b in bins]),
        np.array([b.source.eta_s * b.eta_sw for b in bins]),
        np.array([b.source.back_reflection_fraction for b in bins]),
    )


def _enumerate_mux(bins, reference_power_mw):
    """Sum over all 2^N herald patterns; first heralding bin wins the cycle."""
    per_bin = _bin_probs(bins, reference_power_mw)
    p_trig = p_c = p_a = 0.0
    n = len(bins)
    for pattern in range(1, 2**n):
        weight = 1.0
        first = None
        for k in range(n):
            hit = (pattern >> k) & 1
            weight *= per_bin[k][0] if hit else 1.0 - per_bin[k][0]
            if hit and first is None:
                first = k
        p_trig += weight
        p_trig_k, p_c_k, p_s_k = per_bin[first]
        p_c += weight * p_c_k / p_trig_k
        p_a += weight * p_s_k
    return p_trig, p_c, p_a


# --- identities -----------------------------------------------------------------

def test_single_bin_identities():
    bin_ = _make_bin(0.2, 0.05, 5.0, 0.8, 0.7, f=0.3, pass_id=2)
    topo = MuxTopology((bin_,))
    power = 6.0
    (p_trig, p_c, p_s), = _bin_probs([bin_], power)
    probs = evaluate_mux(topo, power)
    assert probs.p_trig == pytest.approx(p_trig, rel=1e-12)
    assert probs.p_c == pytest.approx(p_c, rel=1e-12)
    assert probs.p_a == pytest.approx(p_trig * p_s, rel=1e-12)


def test_zero_power_gives_zero():
    probs = evaluate_mux(default_topology(), 0.0)
    assert probs.p_trig == 0.0
    assert probs.p_c == 0.0
    assert probs.p_a == 0.0
    assert saturated_report(probs, 80e6).car is None


def test_four_equal_bins_trigger_expansion():
    # p per bin = 1.902e-3 at the seed power; MUX of four gives ~7.585e-3
    bins = tuple(
        _make_bin(0.015, 0.0019, 5.2, 1.0 / 4.0, 1.0, delay_id=d) for d in range(4)
    )
    topo = MuxTopology(bins)
    power = 4.0 * 5.2  # each bin then runs at its seed power
    p = p_trig_idler(bin_xi(topo, [power])[0, 0], 0.015)
    assert p == pytest.approx(1.902e-3, rel=1e-3)
    p_mux = evaluate_mux(topo, power).p_trig
    assert p_mux == pytest.approx(1.0 - (1.0 - p) ** 4, rel=1e-12)
    assert p_mux == pytest.approx(7.585e-3, rel=1e-3)


def test_nesting_matches_enumeration_oracle():
    rng = np.random.default_rng(21)
    for pass_id, f in ((1, 0.0), (2, 0.3)):
        bins = tuple(
            _make_bin(
                rng.uniform(0.01, 0.4),
                rng.uniform(0.001, 0.1),
                rng.uniform(2.0, 10.0),
                rng.uniform(0.05, 0.24),
                rng.uniform(0.3, 1.0),
                pass_id=pass_id,
                delay_id=d,
                f=f,
            )
            for d in range(4)
        )
        topo = MuxTopology(bins)
        power = 12.0
        p_trig, p_c, p_a = _enumerate_mux(bins, power)
        probs = evaluate_mux(topo, power)
        assert probs.p_trig == pytest.approx(p_trig, rel=1e-12)
        assert probs.p_c == pytest.approx(p_c, rel=1e-12)
        assert probs.p_a == pytest.approx(p_a, rel=1e-12)


def test_identical_bins_are_permutation_invariant():
    bins = tuple(_make_bin(0.1, 0.02, 5.0, 0.2, 0.8, delay_id=d) for d in range(4))
    topo = MuxTopology(bins)
    shuffled = MuxTopology(bins[::-1])
    probs, shuffled_probs = evaluate_mux(topo, 9.0), evaluate_mux(shuffled, 9.0)
    for field in ("p_trig", "p_c", "p_a"):
        assert getattr(probs, field) == pytest.approx(
            getattr(shuffled_probs, field), rel=1e-12
        )


def test_priority_order_matters_for_distinct_bins():
    strong = _make_bin(0.3, 0.08, 5.0, 0.4, 1.0, delay_id=0)
    weak = _make_bin(0.05, 0.01, 5.0, 0.4, 1.0, delay_id=1)
    ab = MuxTopology((strong, weak))
    ba = MuxTopology((weak, strong))
    assert evaluate_mux(ab, 8.0).p_trig == pytest.approx(
        evaluate_mux(ba, 8.0).p_trig, rel=1e-12
    )
    assert evaluate_mux(ab, 8.0).p_c != pytest.approx(
        evaluate_mux(ba, 8.0).p_c, rel=1e-9
    )


def test_duplicated_low_priority_term_is_a_different_quantity():
    # Guard against a transcription slip in the 8-bin nested sum that repeats
    # the second-pass delay-1 term in place of the delay-2 and delay-3 terms.
    topo = default_topology()
    power = 10.0
    per_bin = _bin_probs(topo.bins, power)

    def nested(seq):
        total, miss = 0.0, 1.0
        for p_trig, p_c, _ in seq:
            total += miss * p_c
            miss *= 1.0 - p_trig
        return total

    correct = nested(per_bin)
    slipped = nested(per_bin[:6] + [per_bin[5], per_bin[5]])
    assert evaluate_mux(topo, power).p_c == pytest.approx(
        correct, rel=1e-12
    )
    assert abs(slipped - correct) > 1e-12 * correct


def test_trigger_probability_bounds():
    rng = np.random.default_rng(33)
    for _ in range(20):
        bins = tuple(
            _make_bin(
                rng.uniform(0.01, 0.9),
                rng.uniform(0.001, 0.5),
                rng.uniform(1.0, 10.0),
                rng.uniform(0.05, 0.24),
                rng.uniform(0.1, 1.0),
                delay_id=d,
            )
            for d in range(4)
        )
        topo = MuxTopology(bins)
        power = rng.uniform(1.0, 30.0)
        ps = [p_trig for p_trig, _, _ in _bin_probs(bins, power)]
        mux = evaluate_mux(topo, power).p_trig
        assert max(ps) <= mux + 1e-15
        assert mux <= min(sum(ps), 1.0) + 1e-15


def test_coincidence_monotone_in_switch_transmission():
    power = 10.0
    values = []
    for eta_sw in (0.2, 0.4, 0.6, 0.8, 1.0):
        bins = tuple(
            _make_bin(0.1, 0.02, 5.0, 0.2, eta_sw, delay_id=d) for d in range(4)
        )
        values.append(evaluate_mux(MuxTopology(bins), power).p_c)
    assert all(b > a for a, b in zip(values, values[1:]))


# --- priority nesting of the two passes -------------------------------------------

def _random_topology(rng, n_per_pass):
    """Pass-1 bins then pass-2 bins, each pass's pump fractions summing to <= 1."""
    return MuxTopology(
        tuple(
            _make_bin(
                rng.uniform(0.01, 0.9),
                rng.uniform(0.001, 0.5),
                rng.uniform(1.0, 10.0),
                rng.uniform(0.05, 1.0 / n_per_pass),
                rng.uniform(0.1, 1.0),
                pass_id=pass_id,
                delay_id=d,
                f=0.0 if pass_id == 1 else rng.uniform(0.0, 0.5),
            )
            for pass_id in (1, 2)
            for d in range(n_per_pass)
        )
    )


def test_hybrid_with_dead_second_pass_is_first_pass():
    # Pass-2 bins without pump never herald, so the MUX is its pass-1 part.
    topo = MuxTopology(
        tuple(
            _make_bin(0.1, 0.02, 5.0, 0.25 if pass_id == 1 else 0.0, 0.8,
                      pass_id=pass_id, delay_id=d, f=0.25)
            for pass_id in (1, 2)
            for d in range(4)
        )
    )
    combined = evaluate_mux(topo, 10.0)
    first = evaluate_mux(topo.subset(1), 10.0)
    assert combined.p_trig == pytest.approx(first.p_trig)
    assert combined.p_c == pytest.approx(first.p_c)
    assert combined.p_a == pytest.approx(first.p_a)


def test_hybrid_symmetric_low_probability_expansion():
    bins = tuple(_make_bin(0.1, 0.02, 5.0, 0.01, 1.0, delay_id=d) for d in range(2))
    power = 0.2
    p = evaluate_mux(MuxTopology(bins[:1]), power).p_trig
    combined = evaluate_mux(MuxTopology(bins), power).p_trig
    assert p < 1e-4
    assert combined == pytest.approx(1.0 - (1.0 - p) ** 2, rel=1e-12)
    assert combined == pytest.approx(2.0 * p, rel=2.0 * p)


def test_hybrid_matches_flat_eight_bin_nesting():
    # MUX8 equals the pass-1 MUX4 with the pass-2 MUX4 weighted by its miss.
    rng = np.random.default_rng(8)
    for _ in range(30):
        topo = _random_topology(rng, int(rng.integers(1, 5)))
        power = rng.uniform(0.0, 40.0)
        flat = evaluate_mux(topo, power)
        pass1 = evaluate_mux(topo.subset(1), power)
        pass2 = evaluate_mux(topo.subset(2), power)
        miss1 = 1.0 - pass1.p_trig
        assert flat.p_trig == pytest.approx(
            1.0 - miss1 * (1.0 - pass2.p_trig), rel=1e-12
        )
        assert flat.p_c == pytest.approx(
            pass1.p_c + miss1 * pass2.p_c, rel=1e-12
        )
        assert flat.p_a == pytest.approx(
            pass1.p_a + miss1 * pass2.p_a, rel=1e-12
        )


# --- the bin table ------------------------------------------------------------------

def test_bin_table_rows_match_scalar_path():
    rng = np.random.default_rng(12)
    for _ in range(10):
        topo = _random_topology(rng, int(rng.integers(1, 5)))
        powers = np.sort(rng.uniform(0.0, 40.0, 6))
        table = bin_table(topo, powers)
        assert table.p_trig.shape == (powers.size, len(topo.bins))
        for i, power in enumerate(powers):
            for k, bin_ in enumerate(topo.bins):
                source = bin_.source
                c = calibrate_coupling(source.p_seed_mw)
                scalar = source_probs(
                    float(xi_from_power(c, bin_pump_power_mw(bin_, power))),
                    source.eta_i,
                    source.eta_s * bin_.eta_sw,
                    source.back_reflection_fraction,
                )
                for column, value in zip(table, scalar):
                    assert column[i, k] == pytest.approx(value, rel=1e-12, abs=0.0)


def test_table_probabilities_bounded_and_trigger_rises_with_power():
    rng = np.random.default_rng(13)
    powers = np.linspace(0.0, 60.0, 31)
    for _ in range(10):
        topo = _random_topology(rng, int(rng.integers(1, 5)))
        table = bin_table(topo, powers)
        emission = _emission_table(topo, powers)
        mux = priority_nest(table)
        for probs in (table, mux, emission, priority_nest(emission)):
            for column in probs:
                assert np.all((column >= 0.0) & (column <= 1.0))
            assert np.all(np.diff(probs.p_trig, axis=0) > 0.0)
        assert np.all(
            emission.p_single + emission.p_multi <= emission.p_trig + 1e-15
        )
        assert np.all(table.p_c <= table.p_trig + 1e-15)


def test_priority_nest_keeps_the_type_it_is_given():
    topo = default_topology()
    powers = [0.0, 5.0, 25.0]
    mux = priority_nest(bin_table(topo, powers))
    emission = priority_nest(_emission_table(topo, powers))
    assert type(mux) is SourceProbs
    assert type(emission) is EmissionProbs
    np.testing.assert_array_equal(emission.p_trig, mux.p_trig)
    np.testing.assert_allclose(
        emission.p_single + emission.p_multi, mux.p_c, rtol=1e-12, atol=0.0
    )
    for i, power in enumerate(powers):
        assert SourceProbs(*(float(x[i]) for x in mux)) == evaluate_mux(topo, power)


def test_pass2_pump_power_is_halved():
    b1 = _make_bin(0.1, 0.01, 5.0, 0.25, 1.0, pass_id=1)
    b2 = _make_bin(0.1, 0.01, 5.0, 0.25, 1.0, pass_id=2)
    assert bin_pump_power_mw(b1, 8.0) == pytest.approx(2.0)
    assert bin_pump_power_mw(b2, 8.0) == pytest.approx(2.0 * PASS2_POWER_FACTOR)


# --- saturation and reports --------------------------------------------------------

def test_saturated_report_preserves_car():
    probs = evaluate_mux(default_topology(), 10.0)
    chain = DeadtimeChain((1e-7, 1e-7, 2e-6))
    plain = saturated_report(probs, 80e6, DeadtimeChain(()))
    saturated = saturated_report(probs, 80e6, chain)
    assert saturated.r_trig_hz < plain.r_trig_hz
    assert saturated.car == pytest.approx(plain.car, rel=1e-12)
    factor = saturated.r_trig_hz / plain.r_trig_hz
    assert saturated.r_coincidence_hz == pytest.approx(
        plain.r_coincidence_hz * factor, rel=1e-12
    )


# --- simplified formula --------------------------------------------------------------

def test_simple_mux_single_prob_examples():
    assert simple_mux_single_prob(0.25, 17, 1.0) == pytest.approx(
        1.0 - 0.75**17, abs=1e-15
    )
    assert simple_mux_single_prob(0.25, 17, 1.0) >= 0.99
    assert simple_mux_single_prob(0.3, 1, 0.5) == pytest.approx(0.15)
    assert simple_mux_single_prob(1.0, 5, 0.4) == pytest.approx(0.4)


def test_simple_mux_single_prob_validation():
    with pytest.raises(ValueError):
        simple_mux_single_prob(1.5, 4, 0.5)
    with pytest.raises(ValueError):
        simple_mux_single_prob(0.5, 0, 0.5)


# --- emission trade-off ----------------------------------------------------------------

def test_lossless_single_source_respects_heralding_bound():
    bin_ = _make_bin(1.0, 1.0, 5.0, 1.0, 1.0)
    table = _emission_table(MuxTopology((bin_,)), np.linspace(0.1, 60.0, 80))
    assert np.all(priority_nest(table).p_single <= 0.25 + 1e-12)
    assert np.all(table.p_single <= 0.25 + 1e-12)


def test_mux_dominates_best_single_under_lossless_switching():
    bins = tuple(
        _make_bin(0.3, 0.2, 5.0, 0.25, 1.0, delay_id=d) for d in range(4)
    )
    table = _emission_table(MuxTopology(bins), np.linspace(1.0, 40.0, 20))
    assert np.all(priority_nest(table).p_single > table.p_single.max(axis=-1))


def test_extrinsic_removed_curve_takes_the_mems_loss_out():
    topo = default_topology()
    powers = np.linspace(1.0, 40.0, 12)
    lossy = priority_nest(_emission_table(topo, powers))
    removed = priority_nest(_emission_table(extrinsic_removed(topo), powers))
    assert np.all(removed.p_single > lossy.p_single)
    # a single source is measured without the switch either way
    assert switchless(extrinsic_removed(topo)) == switchless(topo)


# --- validation -------------------------------------------------------------------------

def test_topology_validation():
    bin_ = _make_bin(0.1, 0.01, 5.0, 0.6, 0.8)
    with pytest.raises(ValueError):
        MuxTopology(())
    with pytest.raises(ValueError):
        MuxTopology((bin_, bin_))  # pump fractions sum to 1.2
    with pytest.raises(ValueError):
        MuxTopology((bin_,), rep_rate_hz=0.0)
    topo = MuxTopology((bin_,))
    with pytest.raises(ValueError):
        topo.subset(2)


@pytest.mark.parametrize("field", ["rep_rate_hz", "bin_spacing_s"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_topology_rejects_non_finite_clock(field, value):
    # A NaN clock would make saturated_report return NaN rates.
    bin_ = _make_bin(0.1, 0.01, 5.0, 0.6, 0.8)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MuxTopology((bin_,), **{field: value})


def test_bin_validation():
    with pytest.raises(ValueError):
        _make_bin(0.1, 0.01, 5.0, 0.5, 0.0)  # eta_sw must be > 0
    with pytest.raises(ValueError):
        _make_bin(0.1, 0.01, 5.0, 1.5, 0.8)
    with pytest.raises(ValueError):
        _make_bin(0.1, 0.01, 5.0, 0.5, 0.8, pass_id=3)
