"""Deadtime chains: the exact renewal acceptance against a transfer-matrix
oracle, the term-by-term sum and the simulator's rule, and the Poisson rate
corrections' exactness, round-trips and MC oracle."""

import math

import numpy as np
import pytest

from muxsim import DeadtimeChain, detected_from_true, saturation, true_from_detected
from muxsim.defaults import FULL_CHAIN, default_topology
from muxsim.eventsim import _accept_heralds
from muxsim.fitting import _Tangent
from muxsim.mux import bin_table, priority_nest
from muxsim.saturation import MAX_IDLE_BLOCK, SaturationError


def _refractory_sim(rate_hz, stages, t_total_s, seed):
    """Continuous-time Poisson arrivals through sequential refractory stages."""
    rng = np.random.default_rng(seed)
    n_draw = int(rate_hz * t_total_s * 1.2) + 100
    times = np.cumsum(rng.exponential(1.0 / rate_hz, size=n_draw))
    times = times[times < t_total_s]
    next_free = [0.0] * len(stages)
    accepted = 0
    for t in times:
        passed = True
        for j, d in enumerate(stages):
            if t < next_free[j]:
                passed = False
                break
            next_free[j] = t + d
        accepted += passed
    return accepted


def test_empty_chain_is_identity():
    assert detected_from_true(3.7e5, DeadtimeChain(())) == 3.7e5
    assert true_from_detected(3.7e5, DeadtimeChain(())) == 3.7e5


def test_half_rate_point_is_exact():
    # d * T = 1 halves the rate exactly
    assert detected_from_true(5e5, DeadtimeChain((2e-6,))) == pytest.approx(
        2.5e5, abs=1e-9
    )


def test_single_stage_matches_refractory_mc():
    # For one nonparalyzable stage on Poisson arrivals, T / (dT + 1) is the
    # exact accepted rate.
    rate, d, t_total = 5e5, 2e-6, 0.5
    accepted = _refractory_sim(rate, (d,), t_total, seed=4)
    expected = detected_from_true(rate, DeadtimeChain((d,))) * t_total
    assert abs(accepted - expected) < 3.0 * math.sqrt(expected)


def test_two_stage_composition_approximates_refractory_mc():
    # Sequential composition double-counts events a longer later stage would
    # have absorbed anyway, so it slightly underestimates the accepted rate;
    # it must stay a lower bound within noise and within 5% overall.
    rate, stages, t_total = 1e6, (1e-7, 2e-6), 0.2
    accepted = _refractory_sim(rate, stages, t_total, seed=3)
    predicted = detected_from_true(rate, DeadtimeChain(stages)) * t_total
    assert predicted <= accepted + 3.0 * math.sqrt(predicted)
    assert abs(accepted - predicted) / predicted < 0.05


def test_round_trip_random_chains():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n_stages = rng.integers(1, 5)
        chain = DeadtimeChain(tuple(rng.uniform(1e-8, 3e-6, n_stages)))
        true_rate = rng.uniform(1e3, 2e6)
        detected = detected_from_true(true_rate, chain)
        assert detected <= true_rate
        recovered = true_from_detected(detected, chain)
        assert abs(recovered - true_rate) / true_rate <= 1e-9


def test_detected_is_monotone_concave_and_bounded():
    chain = DeadtimeChain((1e-7, 2e-6))
    rates = np.linspace(0.0, 5e7, 200)
    out = np.array([detected_from_true(r, chain) for r in rates])
    diffs = np.diff(out)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) < 1e-9)  # concave
    assert np.all(out < 1.0 / 2e-6)


def test_saturation_error_at_and_above_limit():
    chain = DeadtimeChain((2e-6,))
    with pytest.raises(SaturationError):
        true_from_detected(5e5, chain)
    with pytest.raises(SaturationError):
        true_from_detected(6e5, chain)
    assert true_from_detected(0.0, chain) == 0.0
    # An array raises if any of its rates saturates, at any stage.
    with pytest.raises(SaturationError):
        true_from_detected(np.array([0.0, 1e5, 5e5]), chain)
    with pytest.raises(SaturationError):
        true_from_detected(np.array([1e5, 4.9e5]), DeadtimeChain((2e-6, 1e-7)))


def test_negative_rates_rejected():
    chain = DeadtimeChain((1e-7,))
    with pytest.raises(ValueError):
        detected_from_true(-1.0, chain)
    with pytest.raises(ValueError):
        true_from_detected(-1.0, chain)
    with pytest.raises(ValueError):
        true_from_detected(np.array([1.0, -1.0]), chain)
    with pytest.raises(ValueError):
        DeadtimeChain((-1e-9,))


@pytest.mark.parametrize("stages", [(math.nan,), (1e-7, math.inf)])
def test_non_finite_deadtimes_rejected(stages):
    # Not the bare "cannot convert float NaN to integer" of blocks().
    with pytest.raises(ValueError, match="deadtimes must be finite"):
        DeadtimeChain(stages)


# --- exact acceptance of the simulator's rule -----------------------------------------

def _transfer_matrix_rate(a, idle, p):
    """Accepted heralds per cycle for a first stage of block a and a window of
    block idle: the first stage's residual block r in 0..a after each cycle
    of the window is a Markov chain started at r = a, and the next herald is
    accepted p / (1 + p (idle + E[r])) of the cycles."""
    step = np.zeros((a + 1, a + 1))
    step[0, 0] = 1.0 - p
    step[a, 0] += p
    for r in range(1, a + 1):
        step[r - 1, r] = 1.0
    residual = np.linalg.matrix_power(step, idle)[:, a]
    return p / (1.0 + p * (idle + np.arange(a + 1) @ residual))


def test_two_stage_rate_matches_transfer_matrix():
    rng = np.random.default_rng(60)
    cases = [(8, 160, 0.0), (8, 160, 1.0), (1, 2, 1.0), (15, 300, 0.999)]
    for _ in range(200):
        a = int(rng.integers(1, 17))
        cases.append((a, int(rng.integers(a + 1, 320)), float(10 ** rng.uniform(-9, 0))))
    for a, idle, p in cases:
        chain = DeadtimeChain((float(a), float(idle)))
        rate = p * float(chain.acceptance(p, 1.0))
        assert rate == pytest.approx(_transfer_matrix_rate(a, idle, p), rel=1e-12, abs=0.0)


def test_one_stage_chain_is_the_poisson_formula():
    rep = 80e6
    rng = np.random.default_rng(61)
    for block in (1, 8, 160, 1000):
        chain = DeadtimeChain((block / rep,))
        p = np.concatenate([[0.0, 1.0], 10 ** rng.uniform(-9, 0, 50)])
        np.testing.assert_allclose(
            rep * p * chain.acceptance(p, rep),
            detected_from_true(rep * p, chain),
            rtol=1e-12,
        )


def test_stage_no_longer_than_an_earlier_one_changes_nothing():
    rng = np.random.default_rng(62)
    p = np.concatenate([[0.0, 1.0], 10 ** rng.uniform(-6, 0, 20)])
    cycles = np.flatnonzero(rng.random(200_000) < 0.05)
    for _ in range(30):
        a = int(rng.integers(1, 20))
        idle = int(rng.integers(a + 1, 300))
        base = (float(a), float(idle))
        at = int(rng.integers(1, 3))
        dominated = float(rng.integers(0, max(base[:at]) + 1))
        longer = DeadtimeChain(base[:at] + (dominated,) + base[at:])
        base = DeadtimeChain(base)
        assert np.array_equal(longer.acceptance(p, 1.0), base.acceptance(p, 1.0))
        # The simulator's cascade agrees that the inserted stage never blocks.
        assert np.array_equal(
            _accept_heralds(cycles, 1.0, longer), _accept_heralds(cycles, 1.0, base)
        )


def test_acceptance_matches_the_simulators_rule():
    # Bernoulli(p) candidates through the default chain at 80 MHz; a renewal
    # count is less dispersed than a Poisson one, so sqrt(expected) is a
    # conservative standard error.
    rng = np.random.default_rng(63)
    chain = DeadtimeChain((1e-7, 1e-7, 2e-6))
    for p, n in ((2.7e-3, 20_000_000), (2.3e-2, 5_000_000), (0.3, 2_000_000)):
        cycles = np.cumsum(rng.geometric(p, int(1.1 * n * p) + 100)) - 1
        cycles = cycles[cycles < n]
        accepted = _accept_heralds(cycles, 80e6, chain).size
        expected = n * p * float(chain.acceptance(p, 80e6))
        assert abs(accepted - expected) < 4.0 * math.sqrt(expected)


def test_chains_beyond_the_exact_acceptance_are_rejected():
    with pytest.raises(ValueError):
        DeadtimeChain((1e-7, 5e-7, 2e-6)).acceptance(0.01, 80e6)
    assert DeadtimeChain((5e-7, 1e-7, 2e-6)).acceptance(0.0, 80e6) == 1.0
    with pytest.raises(ValueError):
        DeadtimeChain((1e-7, 1.0)).acceptance(0.01, 80e6)
    # One stage needs no table, however long it is.
    assert DeadtimeChain((1.0,)).acceptance(0.5, 80e6) == 1.0 / (1.0 + 4e7)


# --- the sum grouped by pair count against the term-by-term sum -----------------------

def _term_by_term_acceptance(a, idle, p):
    """p -> 1 / (1 + p (idle + E[r])) with E[r] summed term by term in log
    space: one exponential for each of the (j, k) terms of u_t."""
    terms = [
        (j, t, k, t - k * (a + 1))
        for j, t in enumerate(range(idle - a + 1, idle + 1), start=1)
        for k in range(1, t // (a + 1) + 1)
    ]
    log_weight = np.array([
        math.log(j) + math.lgamma(t - k * a) - math.lgamma(k) - math.lgamma(n + 1)
        for j, t, k, n in terms
    ])
    powers = np.array([(k, n) for _, _, k, n in terms], dtype=float).T
    logs = np.empty(p.shape + (2,))
    with np.errstate(divide="ignore"):
        np.log(p, out=logs[..., 0])
        np.log1p(-p, out=logs[..., 1])
    terms = np.exp(log_weight + np.maximum(logs, -1e300, out=logs) @ powers)
    return 1.0 / (1.0 + p * (idle + terms.sum(-1)))


def test_grouped_acceptance_matches_the_term_by_term_sum():
    rng = np.random.default_rng(64)
    for _ in range(150):
        a = int(rng.integers(1, 20))
        idle = int(rng.integers(a + 1, 301))
        p = np.concatenate(
            [[0.0, 1e-300, 1.0], rng.random(20), 10 ** rng.uniform(-12, 0, 20)]
        )
        chain = DeadtimeChain((float(a), float(idle)))
        np.testing.assert_allclose(
            chain.acceptance(p, 1.0), _term_by_term_acceptance(a, idle, p),
            rtol=1e-13, atol=0.0,
        )


def test_acceptance_of_a_point_does_not_depend_on_the_array_it_comes_in():
    # The herald probabilities of the model table: MUX8, MUX4 and each bin
    # of the default apparatus over a 321-step sweep.
    topo = default_topology()
    table = bin_table(topo, np.linspace(0.0, 40.0, 321))
    pass1 = [k for k, b in enumerate(topo.bins) if b.pass_id == 1]
    mux8, mux4 = priority_nest(table), priority_nest(table.take(pass1))
    p = np.column_stack([mux8.p_trig, mux4.p_trig, table.p_trig])
    assert p.shape == (321, 10)
    whole = FULL_CHAIN.acceptance(p, 80e6).reshape(-1)
    flat = p.reshape(-1)
    assert np.array_equal(FULL_CHAIN.acceptance(flat, 80e6), whole)
    assert np.array_equal(FULL_CHAIN.acceptance(flat[:, None], 80e6)[:, 0], whole)
    for k in (1, 2, 17, 85):
        rows = FULL_CHAIN.acceptance(flat[: 12 * k].reshape(k, 12), 80e6)
        assert np.array_equal(rows.reshape(-1), whole[: 12 * k])
    for i in np.random.default_rng(65).integers(0, flat.size, 50):
        assert FULL_CHAIN.acceptance(flat[i], 80e6) == whole[i]
        assert FULL_CHAIN.acceptance(flat[i : i + 1], 80e6)[0] == whole[i]


def test_longest_window_after_a_one_cycle_stage_stays_finite():
    # a = 1 and I = MAX_IDLE_BLOCK: the weights C(t - k - 1, k - 1) reach
    # about 2^(0.7 I), far beyond a float, and only their per-k scale keeps
    # them in range.
    chain = DeadtimeChain((1.0, float(MAX_IDLE_BLOCK)))
    p = np.array([0.0, 1e-300, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-12, 1.0])
    accepted = chain.acceptance(p, 1.0)
    assert np.isfinite(accepted).all()
    assert ((accepted >= 0.0) & (accepted <= 1.0)).all()
    assert accepted[0] == 1.0
    # At p = 1 every cycle holds a herald: the window, then one blocked cycle.
    assert accepted[-1] == pytest.approx(1.0 / (MAX_IDLE_BLOCK + 2), rel=1e-12)


# --- the acceptance slope, carried by a tangent -------------------------------------

def _with_slope(chain, p, rep):
    """(A, dA/dp) from acceptance on p with one unit tangent direction."""
    out = chain.acceptance(_Tangent(p, np.ones((1,) + np.shape(p))), rep)
    assert type(out) is _Tangent
    return out.value, out.tangent[0]


def test_one_stage_slope_is_the_derivative_of_the_poisson_formula():
    rep = 80e6
    p = np.concatenate([[0.0, 1.0], 10 ** np.random.default_rng(66).uniform(-9, 0, 50)])
    for block in (1, 8, 160, 1000):
        chain = DeadtimeChain((block / rep,))
        accepted, slope = _with_slope(chain, p, rep)
        assert np.array_equal(accepted, chain.acceptance(p, rep))
        np.testing.assert_allclose(slope, -block / (1.0 + block * p) ** 2, rtol=1e-14)
    accepted, slope = _with_slope(DeadtimeChain(()), p, rep)
    assert (accepted == 1.0).all() and (slope == 0.0).all()


def test_two_stage_slope_matches_central_differences():
    rng = np.random.default_rng(67)
    p = np.sort(10 ** rng.uniform(-6, -0.01, 200))
    chains = [(FULL_CHAIN, 80e6)] + [
        (DeadtimeChain((float(a), float(rng.integers(a + 1, 300)))), 1.0)
        for a in rng.integers(1, 20, 10)
    ]
    for chain, rep in chains:
        accepted, slope = _with_slope(chain, p, rep)
        assert np.array_equal(accepted, chain.acceptance(p, rep))
        h = 1e-7
        central = (chain.acceptance(p + h, rep) - chain.acceptance(p - h, rep)) / (2.0 * h)
        np.testing.assert_allclose(slope, central, rtol=1e-6, atol=0.0)


def test_slope_is_finite_at_the_ends():
    # At p = 0 the slope is -(I + E[r](0)) = -I; at p = 1 it is the limit
    # of one-sided second-order differences.
    for a, idle in ((8, 160), (1, 2), (15, 300), (1, MAX_IDLE_BLOCK)):
        chain = DeadtimeChain((float(a), float(idle)))
        ends = np.array([0.0, 1e-320, 1.0])
        accepted, slope = _with_slope(chain, ends, 1.0)
        assert np.isfinite(slope).all()
        assert slope[0] == slope[1] == -idle
        h = 1e-8
        before = chain.acceptance(np.array([1.0 - h, 1.0 - 2.0 * h]), 1.0)
        one_sided = (3.0 * accepted[2] - 4.0 * before[0] + before[1]) / (2.0 * h)
        assert slope[2] == pytest.approx(one_sided, rel=1e-5)


def test_slope_of_a_point_does_not_depend_on_the_array_it_comes_in():
    topo = default_topology()
    table = bin_table(topo, np.linspace(0.0, 40.0, 321))
    pass1 = [k for k, b in enumerate(topo.bins) if b.pass_id == 1]
    mux8, mux4 = priority_nest(table), priority_nest(table.take(pass1))
    p = np.column_stack([mux8.p_trig, mux4.p_trig, table.p_trig])
    whole = _with_slope(FULL_CHAIN, p, 80e6)[1].reshape(-1)
    flat = p.reshape(-1)
    assert np.array_equal(_with_slope(FULL_CHAIN, flat, 80e6)[1], whole)
    assert np.array_equal(_with_slope(FULL_CHAIN, flat[:, None], 80e6)[1][:, 0], whole)
    for k in (1, 2, 17, 85):
        rows = _with_slope(FULL_CHAIN, flat[: 12 * k].reshape(k, 12), 80e6)[1]
        assert np.array_equal(rows.reshape(-1), whole[: 12 * k])
    for i in np.random.default_rng(68).integers(0, flat.size, 50):
        assert _with_slope(FULL_CHAIN, flat[i], 80e6)[1] == whole[i]
        assert _with_slope(FULL_CHAIN, flat[i : i + 1], 80e6)[1][0] == whole[i]


@pytest.mark.parametrize(
    "chain",
    [DeadtimeChain(()), DeadtimeChain((1e-7,)), FULL_CHAIN],
    ids=["empty", "one-stage", "default"],
)
def test_each_tangent_direction_is_scaled_by_the_slope(chain):
    rng = np.random.default_rng(69)
    p = 10 ** rng.uniform(-6, -0.5, (3, 7))
    _, slope = _with_slope(chain, p, 80e6)
    directions = rng.normal(size=(4, 3, 7))
    # A tangent with fewer axes than its value broadcasts as fitting's
    # operators lift it: unit axes after the leading one.
    for tangent, lifted in (
        (directions, directions),
        (directions[..., :1], directions[..., :1]),
        (directions[:, 0], directions[:, :1]),
    ):
        out = chain.acceptance(_Tangent(p, tangent), 80e6)
        assert np.array_equal(out.value, chain.acceptance(p, 80e6))
        assert out.tangent.shape == (4, 3, 7)
        assert np.array_equal(out.tangent, lifted * slope)


def test_only_a_tangent_takes_the_slope_pass(monkeypatch):
    passes = []
    real = saturation._acceptance

    def spy(chain, p, rep_rate_hz, slope):
        passes.append(slope)
        return real(chain, p, rep_rate_hz, slope)

    monkeypatch.setattr(saturation, "_acceptance", spy)
    p = np.array([[1e-3, 2e-3], [3e-3, 4e-3]])
    FULL_CHAIN.acceptance(p, 80e6)
    FULL_CHAIN.acceptance(0.01, 80e6)
    assert passes == [False, False]
    FULL_CHAIN.acceptance(_Tangent(p, np.ones((1, 2, 2))), 80e6)
    assert passes == [False, False, True]
