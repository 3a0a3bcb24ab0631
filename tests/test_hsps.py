"""Closed-form single-source statistics against frozen values and MC oracles."""

import math

import numpy as np
import pytest

from muxsim import (
    RateReport,
    SourceParams,
    calibrate_coupling,
    p_trig_idler,
    seed_squeezing,
)
from muxsim.hsps import _emission_forms, emission_probs, source_probs, xi_from_power

from conftest import mc_no_trigger_probs, mc_source_probs

XI_SEED_FROZEN = 0.33571068701972884  # root of (1 - x^2) x^2 = 0.1


def _forms(xi, eta_i, eta_s):
    """The signal-arm statistics given a herald and given none, at xi."""
    return _emission_forms(xi * xi, eta_i, eta_s)


def _rates(source, p_mw, rep_rate_hz):
    """(r_trig, r_c, r_a) in Hz of one source at pump power p_mw."""
    xi = xi_from_power(calibrate_coupling(source.p_seed_mw), p_mw)
    p = source_probs(xi, source.eta_i, source.eta_s, source.back_reflection_fraction)
    return rep_rate_hz * p.p_trig, rep_rate_hz * p.p_c, rep_rate_hz * p.p_a


# --- calibration --------------------------------------------------------------

def test_seed_squeezing_anchor():
    from scipy.optimize import brentq

    xi = seed_squeezing()
    assert xi == pytest.approx(XI_SEED_FROZEN, abs=1e-12)
    assert (1.0 - xi * xi) * xi * xi == pytest.approx(0.1, abs=1e-12)
    # The closed form solves the equation to round-off and lies within one
    # ulp of a bracketing solver's root.
    assert abs((1.0 - xi * xi) * xi * xi - 0.1) <= 4.0 * np.finfo(float).eps
    root = brentq(
        lambda x: (1.0 - x * x) * x * x - 0.1,
        1e-6,
        1.0 / math.sqrt(2.0) - 1e-12,
        xtol=1e-14,
        rtol=8.9e-16,
    )
    assert abs(xi - root) <= math.ulp(root)


def test_calibrate_coupling_reference_power():
    assert calibrate_coupling(1.0) == pytest.approx(0.3493, abs=1e-4)


def test_calibrate_coupling_sqrt_scaling():
    assert calibrate_coupling(4.0) == pytest.approx(calibrate_coupling(1.0) / 2.0)


def test_calibrate_coupling_round_trip_pair_probability():
    for p_seed in (0.7, 1.0, 5.2, 25.0):
        c = calibrate_coupling(p_seed)
        xi = float(xi_from_power(c, p_seed))
        assert (1.0 - xi * xi) * xi * xi == pytest.approx(0.1, abs=1e-9)


def test_calibrate_coupling_rejects_nonpositive_power():
    with pytest.raises(ValueError):
        calibrate_coupling(0.0)
    with pytest.raises(ValueError):
        calibrate_coupling(-1.0)


def test_squeezing_from_power_zero_and_monotone():
    c = calibrate_coupling(5.0)
    assert xi_from_power(c, 0.0) == 0.0
    powers = np.linspace(0.1, 30.0, 40)
    xis = xi_from_power(c, powers).tolist()
    assert all(0.0 < x < 1.0 for x in xis)
    assert all(b > a for a, b in zip(xis, xis[1:]))


def test_squeezing_from_power_value():
    assert xi_from_power(0.349, 1.0) == pytest.approx(math.tanh(0.349), abs=1e-12)
    assert xi_from_power(0.349, 1.0) == pytest.approx(0.3356, abs=5e-4)


@pytest.mark.parametrize(
    "c, p_mw",
    [
        (0.349, 5.0),
        (0.349, np.linspace(0.0, 40.0, 17)),
        (np.linspace(0.1, 0.4, 5)[:, None], 12.5),
        (np.linspace(0.1, 0.4, 12), np.linspace(0.0, 40.0, 136)[:, None]),
    ],
    ids=["scalar", "row", "column", "grid"],
)
def test_xi_from_power_is_math_tanh_elementwise(c, p_mw):
    # Bit for bit: the simulator draws with these xi.
    xi = xi_from_power(c, p_mw)
    c_b, p_b = np.broadcast_arrays(c, p_mw)
    assert xi.shape == c_b.shape
    expected = [
        math.tanh(ci * math.sqrt(pi))
        for ci, pi in zip(c_b.ravel().tolist(), p_b.ravel().tolist())
    ]
    assert xi.ravel().tolist() == expected


def test_squeezing_from_power_domain_errors():
    with pytest.raises(ValueError):
        xi_from_power(0.349, -0.1)
    with pytest.raises(ValueError):
        xi_from_power(0.349, np.array([1.0, -0.1]))


# --- trigger probability ------------------------------------------------------

def test_p_trig_idler_limits():
    xi = 0.3
    assert p_trig_idler(xi, 1.0) == pytest.approx(xi * xi, abs=1e-15)
    assert p_trig_idler(xi, 0.0) == 0.0


def test_p_trig_idler_frozen_value():
    assert p_trig_idler(XI_SEED_FROZEN, 0.015) == pytest.approx(
        1.9016267329230708e-3, rel=1e-12
    )
    assert p_trig_idler(XI_SEED_FROZEN, 0.015) == pytest.approx(1.902e-3, rel=1e-3)


def test_p_trig_monotone_in_xi_and_eta():
    xis = np.linspace(0.01, 0.9, 25)
    vals = [p_trig_idler(x, 0.3) for x in xis]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    etas = np.linspace(0.01, 1.0, 25)
    vals = [p_trig_idler(0.4, e) for e in etas]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_signal_and_idler_trigger_share_one_form():
    # An accidental is a herald times an independent signal click.
    for xi, eta in ((0.1, 0.9), (0.33, 0.015), (0.6, 0.4)):
        p_a = source_probs(xi, 0.5, eta, 0.0).p_a
        assert p_a == p_trig_idler(xi, 0.5) * p_trig_idler(xi, eta)


def test_p_trig_low_power_expansion():
    # p_trig = eta * xi^2 + O(xi^4)
    for eta in (0.015, 0.3, 0.9):
        for xi in (1e-3, 5e-4):
            exact = p_trig_idler(xi, eta)
            assert exact == pytest.approx(eta * xi * xi, rel=1e-4)


# --- heralded emission --------------------------------------------------------

def test_p_single_low_squeezing_limit_is_eta_s():
    assert _forms(1e-6, 0.5, 0.37).p_single == pytest.approx(0.37, rel=1e-9)


def test_p_single_zero_signal_transmission():
    assert _forms(0.4, 0.5, 0.0).p_single == 0.0


def test_p_multi_zero_squeezing():
    assert _forms(0.0, 0.5, 0.5).p_multi == 0.0


def test_p_multi_lossless_identity():
    # With eta_i = eta_s = 1 the joint click probability collapses to xi^2,
    # so p_multi = 1 - p_single.
    xi = 0.45
    assert source_probs(xi, 1.0, 1.0, 0.0).p_c == pytest.approx(xi * xi, abs=1e-15)
    forms = _forms(xi, 1.0, 1.0)
    assert forms.p_multi == pytest.approx(1.0 - forms.p_single, abs=1e-12)


def test_probabilities_stay_in_unit_interval_on_grid():
    rng = np.random.default_rng(11)
    for _ in range(200):
        xi = rng.uniform(0.0, 0.95)
        eta_i = rng.uniform(0.0, 1.0)
        eta_s = rng.uniform(0.0, 1.0)
        forms = _forms(xi, eta_i, eta_s)
        joint = (*source_probs(xi, eta_i, eta_s, 0.0),
                 *emission_probs(xi, eta_i, eta_s, 0.0))
        assert all(-1e-12 <= p <= 1.0 + 1e-12 for p in (*forms, *joint))
        assert 0.0 <= forms.p_single_nt <= 1.0
        assert 0.0 <= forms.p_multi_nt <= 1.0
        assert forms.p_single + forms.p_multi <= 1.0 + 1e-12


def test_emission_against_mc_oracle():
    xi, eta_i, eta_s = XI_SEED_FROZEN, 0.015, 0.0019
    est = mc_source_probs(xi, eta_i, eta_s, 2_000_000, seed=101)
    assert abs(est["p_trig"].z_against(p_trig_idler(xi, eta_i))) < 3.0
    forms = _forms(xi, eta_i, eta_s)
    single, multi = forms.p_single, forms.p_multi
    n_trig = est["p_single"].n
    assert n_trig > 1000
    se = math.sqrt(single * (1.0 - single) / n_trig)
    assert abs(est["p_single"].value - single) < 3.0 * se
    # multi-photon emission is rare here; compare joint counts instead
    joint_exp = p_trig_idler(xi, eta_i) * multi * est["p_trig"].n
    joint_obs = est["p_multi"].value * n_trig
    assert abs(joint_obs - joint_exp) < 3.0 * math.sqrt(max(joint_exp, 1.0))


def test_no_trigger_conditionals_against_mc_oracle():
    xi, eta_i, eta_s = 0.38, 0.3, 0.2
    forms = _forms(xi, eta_i, eta_s)
    single_nt, multi_nt = forms.p_single_nt, forms.p_multi_nt
    p_quiet = 1.0 - p_trig_idler(xi, eta_i)
    est_single, est_multi = mc_no_trigger_probs(xi, eta_i, eta_s, 2_000_000, seed=77)
    assert abs(est_single.z_against(p_quiet * single_nt)) < 3.0
    assert abs(est_multi.z_against(p_quiet * multi_nt)) < 3.0


def test_no_trigger_conditionals_limits():
    for xi, eta_i in ((0.4, 1.0), (0.0, 0.2)):
        forms = _forms(xi, eta_i, 0.3)
        assert (forms.p_single_nt, forms.p_multi_nt) == (0.0, 0.0)


# --- second-pass back-reflection ----------------------------------------------

def test_pass2_split_reduces_to_first_pass_without_reflection():
    p_true = p_trig_idler(0.3, 0.2)
    forms = _forms(0.3, 0.2, 0.5)
    probs = emission_probs(0.3, 0.2, 0.5, 0.0)
    assert probs.p_trig == p_true
    assert probs.p_single == p_true * forms.p_single
    assert probs.p_multi == p_true * forms.p_multi


def test_pass2_split_direct_substitution():
    # p_true = 0.5 with a lossless idler at xi^2 = 0.5
    xi = math.sqrt(0.5)
    p_correct = p_trig_idler(xi, 1.0)
    p_total = source_probs(xi, 1.0, 0.5, 1.0).p_trig
    p_incorrect = p_total - p_correct
    assert p_correct == pytest.approx(0.5, abs=1e-12)
    assert p_incorrect == pytest.approx(0.25, abs=1e-12)
    assert p_total == pytest.approx(0.75, abs=1e-12)


def test_pass2_correct_branch_matches_unsimplified_form():
    # The two-event decomposition p(1 - fp) + fp * p collapses to p; the
    # simplified herald probability must agree with the explicit sum over
    # idler only, idler and back-reflection, and back-reflection only.
    for xi, eta_i, f in ((0.3, 0.2, 0.4), (0.5, 0.8, 1.2), (0.1, 0.015, 0.25)):
        p = p_trig_idler(xi, eta_i)
        unsimplified = p * (1.0 - f * p) + (f * p) * p + (1.0 - p) * (f * p)
        p_total = source_probs(xi, eta_i, 0.5, f).p_trig
        assert p_total == pytest.approx(unsimplified, abs=1e-15)


def test_back_reflection_from_contamination():
    # 20% contaminated idler counts at a small trigger probability gives
    # f close to 0.25: the share is c = f (1 - p) / (1 + f (1 - p)).
    p_true = p_trig_idler(XI_SEED_FROZEN, 0.015)
    contamination = 0.2
    f = contamination / ((1.0 - contamination) * (1.0 - p_true))
    assert f == pytest.approx(0.25, rel=2e-3)
    p_tot = source_probs(XI_SEED_FROZEN, 0.015, 0.0019, f).p_trig
    assert (p_tot - p_true) / p_tot == pytest.approx(0.2, abs=1e-12)


def test_pass2_coincidence_reduces_without_reflection():
    clean = SourceParams(0.015, 0.0019, 5.2)
    xi = 0.3
    forms = _forms(xi, clean.eta_i, clean.eta_s)
    expected = p_trig_idler(xi, clean.eta_i) * (
        forms.p_single + forms.p_multi
    ) / p_trig_idler(xi, clean.eta_i)
    # with f = 0 the coincidence is p_correct * (heralded click probability)
    p_c = source_probs(xi, clean.eta_i, clean.eta_s, 0.0).p_c
    assert p_c == pytest.approx(
        p_trig_idler(xi, clean.eta_i) * expected, rel=1e-12
    )


def test_pass2_coincidence_against_mc_oracle():
    xi, eta_i, eta_s, f = 0.38, 0.3, 0.2, 0.4
    exact = source_probs(xi, eta_i, eta_s, f).p_c

    rng = np.random.default_rng(55)
    n = 2_000_000
    s = xi * xi
    pairs = rng.geometric(1.0 - s, size=n) - 1
    idler = rng.binomial(pairs, eta_i) >= 1
    back = rng.random(n) < f * p_trig_idler(xi, eta_i)
    signal = rng.binomial(pairs, eta_s) >= 1
    trig = idler | back
    est = float((trig & signal).mean())
    se = math.sqrt(exact * (1.0 - exact) / n)
    assert abs(est - exact) < 3.0 * se


def test_degrading_reflection_hurts_car():
    lo = SourceParams(0.015, 0.0019, 5.2, 0.0)
    hi = SourceParams(0.015, 0.0019, 5.2, 1.0)
    _, r_c_lo, r_a_lo = _rates(lo, 5.2, 80e6)
    _, r_c_hi, r_a_hi = _rates(hi, 5.2, 80e6)
    assert r_c_hi / r_a_hi < r_c_lo / r_a_lo


def test_closed_forms_broadcast_elementwise():
    # Array arguments give the scalar value at every element, including the
    # xi = 0 and eta_i = 0 branches of the heralded p_multi.
    rng = np.random.default_rng(19)
    xi = np.concatenate([[0.0, 0.0, 0.3], rng.uniform(0.0, 0.95, 40)])
    eta_i = np.concatenate([[0.0, 0.4, 0.0], rng.uniform(0.0, 1.0, 40)])
    eta_s = np.concatenate([[0.5, 0.5, 0.5], rng.uniform(0.0, 1.0, 40)])
    f = np.concatenate([[0.0, 0.3, 0.3], rng.uniform(0.0, 1.0, 40)])
    forms = (
        lambda x, i, s, _: p_trig_idler(x, i),
        lambda x, i, s, _: _forms(x, i, s),
        source_probs,
        emission_probs,
    )
    for form in forms:
        array = np.array(form(xi, eta_i, eta_s, f), dtype=float)
        scalar = np.array(
            [form(*point) for point in zip(xi, eta_i, eta_s, f)], dtype=float
        )
        np.testing.assert_array_equal(array, scalar.T)


def test_closed_forms_reject_any_bad_element():
    with pytest.raises(ValueError):
        p_trig_idler(np.array([0.2, 1.0]), 0.5)
    with pytest.raises(ValueError):
        source_probs(0.2, np.array([0.5, np.nan]), 0.5, 0.0)
    with pytest.raises(ValueError):
        source_probs(np.array([0.2, 0.3]), 0.5, 0.5, np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        emission_probs(0.2, np.array([0.5, np.nan]), 0.5, 0.0)
    with pytest.raises(ValueError, match="f \\* p_trig"):
        emission_probs(np.array([0.2, 0.9]), 1.0, 0.5, 2.0)


# --- rate reports ---------------------------------------------------------------

def test_rates_zero_power():
    r_trig, r_c, r_a = _rates(SourceParams(0.015, 0.0019, 5.2), 0.0, 80e6)
    assert r_trig == 0.0
    assert r_c == 0.0
    assert r_a == 0.0


def test_car_monotone_decreasing_in_power():
    source = SourceParams(0.015, 0.0019, 5.2)
    _, r_c, r_a = _rates(source, np.linspace(0.5, 25.0, 30), 80e6)
    cars = (r_c / r_a).tolist()
    assert all(b < a for a, b in zip(cars, cars[1:]))


def test_rate_report_rejects_negative_rates():
    with pytest.raises(ValueError):
        RateReport(r_trig_hz=-1.0, r_coincidence_hz=0.0, r_accidental_hz=0.0, car=None)


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(eta_i=1.5, eta_s=0.1, p_seed_mw=1.0)
    with pytest.raises(ValueError):
        SourceParams(eta_i=0.1, eta_s=0.1, p_seed_mw=0.0)
    with pytest.raises(ValueError):
        SourceParams(eta_i=0.1, eta_s=0.1, p_seed_mw=1.0, back_reflection_fraction=-0.1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("p_seed_mw", math.inf),
        ("p_seed_mw", math.nan),
        ("back_reflection_fraction", math.nan),
        ("back_reflection_fraction", math.inf),
    ],
)
def test_source_params_reject_non_finite_values(field, value):
    # Not finite would give NaN or all-zero probabilities downstream.
    params = {"eta_i": 0.1, "eta_s": 0.1, "p_seed_mw": 5.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SourceParams(**params)
