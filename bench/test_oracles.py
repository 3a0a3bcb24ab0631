"""Tests of the benchmark's oracles.  Run: python3 -m pytest bench"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import inputs
import oracles


def test_xi_seed_closed_form():
    x = oracles.XI_SEED
    assert abs(x - 0.335715) <= 5e-6
    assert (1.0 - x * x) * x * x == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("xi,eta", [(0.05, 0.015), (0.3, 0.2), (0.6, 0.9)])
def test_click_prob_is_the_geometric_series(xi, eta):
    s = xi * xi
    series = sum((1 - s) * s**n * (1 - (1 - eta) ** n) for n in range(400))
    assert oracles.click_prob(xi, eta) == pytest.approx(series, rel=1e-12)


def test_bin_and_mux_herald_prob_match_sampling():
    """Pairs drawn from the geometric law, thinned, plus independent
    back-reflection clicks; a cycle heralds if any bin does."""
    rng = np.random.default_rng(3)
    bins, power, n = inputs.default_bins(), 40.0, 400_000
    any_herald = np.zeros(n, dtype=bool)
    for b in bins:
        pw = power * b["pump_fraction"] * (oracles.PASS2_POWER_FACTOR if b["pass"] == 2 else 1.0)
        xi = oracles.squeezing(b["p_seed_mw"], pw)
        pairs = rng.geometric(1.0 - xi * xi, size=n) - 1
        click = rng.binomial(pairs, b["eta_i"]) >= 1
        p_true = oracles.click_prob(xi, b["eta_i"])
        herald = click | (rng.random(n) < b["back_reflection_fraction"] * p_true)
        p = oracles.bin_herald_prob(b, power)
        assert abs(herald.mean() - p) <= 5 * math.sqrt(p * (1 - p) / n)
        any_herald |= herald
    p = oracles.mux_herald_prob(bins, power)
    assert abs(any_herald.mean() - p) <= 5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("p", [0.002, 0.005, 0.01])
def test_renewal_window_brackets_the_deadtime_rule(p):
    amps, idle, n = (8, 8), 160, 4_000_000
    lo, hi = oracles.renewal_window(p, amps, idle)
    assert 0 < lo < hi
    rate = oracles.deadtime_rule_rate(p, n, amps + (idle,), seed=11)
    # The accepted count of a renewal process with near-constant gaps
    # varies less than a binomial count; the binomial error bounds it.
    err = math.sqrt(rate / n)
    assert lo - 3 * err <= rate <= hi + 3 * err


def test_renewal_window_excludes_sequential_poisson_chain():
    """D = T / (1 + d T) stage by stage, the chain the program applies,
    lands below the window at high candidate rates."""
    p, rep = 0.01, 80e6
    rate = p * rep
    for d in (1e-7, 1e-7, 2e-6):
        rate = rate / (1 + d * rate)
    lo, _ = oracles.renewal_window(p, (8, 8), 160)
    assert rate / rep < lo


def test_overlap_gamma_matches_quadrature():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ca, cb = rng.uniform(1549, 1551, 2)
        fa, fb = rng.uniform(0.6, 1.2, 2)

        def amplitude(c, fwhm):
            s = fwhm * oracles.FWHM_TO_SIGMA
            norm = (2 * math.pi * s * s) ** -0.25
            return lambda x: norm * math.exp(-((x - c) ** 2) / (4 * s * s))

        a, b = amplitude(ca, fa), amplitude(cb, fb)
        val, _ = quad(lambda x: a(x) * b(x), 1540, 1560, epsabs=1e-13, epsrel=1e-13)
        assert oracles.overlap_gamma(ca, fa, cb, fb) == pytest.approx(val * val, abs=1e-9)
    assert oracles.overlap_gamma(1550.0, 0.9, 1550.0, 0.9) == 1.0


def test_log_r_squared_is_one_for_a_perfect_prediction():
    obs = np.array([1.0, 2.0, 5.0, 9.0])
    assert oracles.log_r_squared(obs, obs) == 1.0
    assert oracles.log_r_squared(obs * 1.1, obs) < 1.0
