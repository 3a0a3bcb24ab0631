"""Parameter recovery: the solver, objective definition, round-trips, and CSV
plumbing."""

import csv
import dataclasses
import functools
import io
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from muxsim import DeadtimeChain, FitResult, Observation, fit_all, fit_source, fitting, r_squared
from muxsim.defaults import FULL_CHAIN, PASS1_SOURCES, PASS2_SOURCES
from muxsim.hsps import SourceParams
from muxsim.fitting import (
    ETA_BOUNDS,
    F_BOUNDS,
    FAILED_RESIDUAL,
    FitError,
    P_SEED_BOUNDS,
    ObservationsParseError,
    _latin_hypercube,
    load_observations_csv,
    predict_rates,
    write_fit_table_csv,
)

NO_CHAIN = DeadtimeChain(())
# The sweep of acceptance criterion 6 and the benchmark's noisy fits.
SWEEP_MW = np.linspace(2.0, 25.0, 12)


def _synthetic(truth, powers, chain, rep_rate_hz=80e6):
    trig, c, a = predict_rates(*truth, powers, rep_rate_hz, chain)
    return [
        Observation(p, t, cc, aa) for p, t, cc, aa in zip(powers, trig, c, a)
    ]


# --- starts ------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4])
def test_latin_hypercube_matches_scipy_qmc(d):
    """The numpy starts are scipy's Latin-hypercube draws, bit for bit, so a
    seed gives the same fit starts as the scipy sampler did."""
    from scipy.stats import qmc

    bounds = np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T
    if d == 4:
        bounds = np.column_stack([bounds, F_BOUNDS])
    for n in (4, 6, 16):
        for seed in range(10):
            expected = qmc.scale(qmc.LatinHypercube(d, seed=seed).random(n), *bounds)
            starts = _latin_hypercube(n, bounds, seed)
            assert np.array_equal(starts, expected), (n, seed)
            # one start in each n-th of every axis
            slices = np.floor((starts - bounds[0]) / (bounds[1] - bounds[0]) * n)
            assert all(sorted(col) == list(range(n)) for col in slices.T)


# --- forward-mode tangents -----------------------------------------------------

TANGENT_OPS = {
    "add": operator.add,
    "subtract": operator.sub,
    "multiply": operator.mul,
    "true_divide": operator.truediv,
    "negative": operator.neg,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(TANGENT_OPS)),
    order=st.sampled_from(["tangent-array", "array-tangent", "tangent-tangent"]),
    x=arrays(float, 3, elements=st.floats(0.5, 2.0)),
    y=arrays(float, (2, 3), elements=st.floats(0.5, 2.0)),
    dx=arrays(float, (2, 3), elements=st.floats(-1.0, 1.0)),
    dy=arrays(float, (2, 2, 3), elements=st.floats(-1.0, 1.0)),
)
def test_tangent_operations_keep_value_bits_and_match_central_differences(
    name, order, x, y, dx, dy
):
    """Each supported operation gives the plain arrays' value, bit for bit,
    and a tangent, one row per direction, that matches central differences
    along that direction, whichever operand carries the tangent.  x has
    fewer axes than y, and as many rows as there are directions, so a
    tangent broadcast against the wrong axes would show."""
    op = TANGENT_OPS[name]
    unary = name in ("negative", "exp", "sqrt")
    if order == "array-tangent" and not unary:
        dx = None
    if order == "tangent-array" or unary:
        dy = None
    args = [(x, dx)] if unary else [(x, dx), (y, dy)]  # (value, tangent or None)

    def along(j, step):
        return op(*[v if d is None else v + step * d[j] for v, d in args])

    result = op(*[v if d is None else fitting._Tangent(v, d) for v, d in args])
    assert isinstance(result, fitting._Tangent)
    assert np.array_equal(result.value, op(*[v for v, _ in args]))
    tangent = np.broadcast_to(result.tangent, (2,) + result.value.shape)
    h = 1e-6
    for j in range(2):
        expected = (along(j, h) - along(j, -h)) / (2.0 * h)
        assert np.allclose(tangent[j], expected, rtol=1e-6, atol=1e-6)


def test_tangent_comparisons_see_the_value_alone():
    x = np.array([0.5, 1.0, 2.0])
    t = fitting._Tangent(x, np.ones((2, 3)))
    comparisons = (
        operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne
    )
    for op in comparisons:
        assert np.array_equal(op(t, 1.0), op(x, 1.0))
        assert np.array_equal(op(1.0, t), op(1.0, x))


@pytest.mark.parametrize(
    "call",
    [np.log, np.tanh, lambda t: t**2, np.sum, lambda t: np.add.reduce(t),
     lambda t: np.where(np.array([True, False]), 0.0, t), np.size],
    ids=["log", "tanh", "power", "sum", "add.reduce", "where", "size"],
)
def test_unsupported_tangent_operations_raise(call):
    """An operation without a tangent rule, or a numpy function, raises
    TypeError rather than return a value whose tangent is lost."""
    with pytest.raises(TypeError):
        call(fitting._Tangent(np.array([0.5, 2.0]), np.ones((3, 2))))


# --- solver ------------------------------------------------------------------

@st.composite
def _boxed_linear_problems(draw):
    """(A, b, lower, upper, share) of min 0.5 |A x - b|^2 over a box, with
    the start at share in [0, 1]^n of the box.  A stacks the identity on
    drawn rows, so A^T A >= I keeps it well conditioned."""
    n = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 4))
    drawn = draw(arrays(float, (rows, n), elements=st.floats(-3.0, 3.0)))
    a = np.vstack([np.eye(n), drawn])
    b = draw(arrays(float, n + rows, elements=st.floats(-10.0, 10.0)))
    lower = draw(arrays(float, n, elements=st.floats(-5.0, 4.0)))
    width = draw(arrays(float, n, elements=st.floats(0.01, 5.0)))
    share = draw(arrays(float, n, elements=st.floats(0.0, 1.0)))
    return a, b, lower, lower + width, share


def _linear_batch(a, b, lower, upper):
    """Residual rows of A x - b and their Jacobian A; every point must lie in
    the box."""

    def batch(xs, starts):
        assert ((xs >= lower) & (xs <= upper)).all(), "evaluated outside the box"
        return xs @ a.T - b, np.broadcast_to(a, (len(xs),) + a.shape)

    return batch


def _solve_linear(a, b, lower, upper, share):
    x0 = np.clip(lower + share * (upper - lower), lower, upper)
    x, fun, cost, converged, nfev, _ = fitting._lockstep_lm(
        _linear_batch(a, b, lower, upper), x0[None], lower, upper
    )
    # stopped on a tolerance or on the damping, not at the iteration cap
    assert nfev[0] <= fitting.LM_MAX_ITERATIONS
    assert np.array_equal(fun[0], x[0] @ a.T - b)
    return x[0]


# A step is accepted only if the float64 cost falls, and the cost 0.5 |r|^2
# cannot show a gain below eps times itself: the gradient of coordinate j is
# resolved to about sqrt(eps) |A_j| |r|, and x to sqrt(eps) |r| since
# A^T A >= I.  The bounds allow 16 times that, plus rounding of r itself.
EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(problem=_boxed_linear_problems())
def test_solver_meets_kkt_conditions_of_boxed_linear_least_squares(problem):
    """At the result the gradient vanishes on free coordinates and points
    out of the box at each active bound."""
    x = _solve_linear(*problem)
    a, b, lower, upper, _ = problem
    assert ((x >= lower) & (x <= upper)).all()
    r = a @ x - b
    grad = a.T @ r
    tol = 16.0 * (
        math.sqrt(EPS) * np.linalg.norm(a, axis=0) * np.linalg.norm(r)
        + EPS * (1.0 + np.abs(a).T @ (np.abs(a) @ np.abs(x) + np.abs(b)))
    )
    # A bound closer than the solver's x tolerance, or than a move the
    # rounded residuals can show, counts as reached.
    near = fitting.LM_XTOL * (fitting.LM_XTOL + np.linalg.norm(x)) + 16.0 * EPS * (
        1.0 + np.linalg.norm(np.abs(a) @ np.abs(x) + np.abs(b))
    ) / np.linalg.norm(a, axis=0)
    at_lower, at_upper = x - lower <= near, upper - x <= near
    free = ~(at_lower | at_upper)
    assert (np.abs(grad[free]) <= tol[free]).all()
    assert (grad[at_lower] >= -tol[at_lower]).all()
    assert (grad[at_upper] <= tol[at_upper]).all()


@settings(max_examples=200, deadline=None)
@given(problem=_boxed_linear_problems(), margin=st.floats(0.01, 5.0))
def test_solver_equals_lstsq_inside_a_wide_box(problem, margin):
    a, b, _, _, share = problem
    expected = np.linalg.lstsq(a, b, rcond=None)[0]
    x = _solve_linear(a, b, expected - margin, expected + margin, share)
    tol = 16.0 * (
        math.sqrt(EPS) * np.linalg.norm(a @ expected - b)
        + EPS * (1.0 + np.linalg.norm(np.abs(a) @ np.abs(expected) + np.abs(b)))
    )
    assert (np.abs(x - expected) <= tol).all()


def test_solver_converges_at_an_optimum_near_zero():
    # min |x - (-2, 0)|^2 over [0, 1]^2: the optimum (0, 0) sits on a bound and
    # at |x| ~ 0, where the x test cannot stop the solver; the cost test must.
    lower, upper = np.zeros(2), np.ones(2)
    x, fun, cost, converged, nfev, _ = fitting._lockstep_lm(
        _linear_batch(np.eye(2), np.array([-2.0, 0.0]), lower, upper),
        np.full((1, 2), 0.0625), lower, upper,
    )
    assert converged[0] and nfev[0] <= 4
    assert x[0, 0] == 0.0 and abs(x[0, 1]) <= 1e-6
    assert cost[0] == pytest.approx(2.0, rel=1e-12)


def _rosenbrock(xs, shift):
    """Residual rows (10 (x1 - x0^2), shift - x0) of the Rosenbrock problem,
    each row from its own point alone, and their Jacobians."""
    jac = np.zeros((len(xs), 2, 2))
    jac[:, 0] = np.column_stack([-20.0 * xs[:, 0], np.full(len(xs), 10.0)])
    jac[:, 1, 0] = -1.0
    return np.column_stack([10.0 * (xs[:, 1] - xs[:, 0] ** 2), shift - xs[:, 0]]), jac


def _counting_rosenbrock(calls):
    """The Rosenbrock batch with minimum (1, 1); calls records every batch
    size."""

    def batch(xs, starts):
        calls.append(len(xs))
        return _rosenbrock(xs, 1.0)

    return batch


def test_solver_makes_one_batch_call_per_iteration():
    calls = []
    batch = _counting_rosenbrock(calls)
    lower, upper = np.array([-2.0, -1.0]), np.array([2.0, 3.0])
    x0s = np.array([[-1.2, 1.0], [0.5, -0.5], [1.9, 2.9]])
    x, fun, cost, converged, nfev, jac = fitting._lockstep_lm(batch, x0s, lower, upper)
    assert converged.all() and np.allclose(x, 1.0, atol=1e-6)
    # One call for the starts, then one per iteration holding one row for
    # each start still running, and none after the last iteration.
    iterations = nfev.max() - 1
    assert len(calls) == iterations + 1
    assert calls[0] == 3 and calls[1:] == sorted(calls[1:], reverse=True)
    assert calls[-1] >= 1 and sum(calls) == nfev.sum()
    # What the solver holds at x is what x gives alone.
    alone, jac_alone = batch(x, np.arange(3))
    assert np.array_equal(fun, alone) and np.array_equal(jac, jac_alone)
    assert np.array_equal(cost, 0.5 * np.einsum("km,km->k", fun, fun))


def test_starts_with_their_own_residuals_run_as_they_run_alone():
    """Each start may minimize its own residuals, picked by its start index:
    run together, every start takes the trajectory it takes alone."""
    shifts = np.array([0.5, -1.5, 1.0, 0.25])

    def batch(xs, starts):
        return _rosenbrock(xs, shifts[starts])

    lower, upper = np.array([-2.0, -1.0]), np.array([2.0, 3.0])
    x0s = np.array([[-1.2, 1.0], [0.5, -0.5], [1.9, 2.9], [-1.2, 1.0]])
    together = fitting._lockstep_lm(batch, x0s, lower, upper)
    assert np.allclose(together[0], np.column_stack([shifts, shifts**2]), atol=1e-6)
    for i, x0 in enumerate(x0s):
        alone = fitting._lockstep_lm(
            lambda xs, starts: batch(xs, np.full(len(xs), i)), x0[None], lower, upper
        )
        for got, expected in zip(together, alone):
            assert np.array_equal(got[i : i + 1], expected)


# --- R^2 ---------------------------------------------------------------------

def test_r_squared_perfect_prediction():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r_squared_mean_prediction_is_zero():
    obs = [1.0, 2.0, 3.0, 6.0]
    mean = sum(obs) / len(obs)
    assert r_squared([mean] * 4, obs) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_hand_computed_case():
    # SS_res = 1, SS_tot = 2 -> R^2 = 0.5
    assert r_squared([1.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)


def test_r_squared_can_be_negative():
    assert r_squared([10.0, 10.0, 10.0], [1.0, 2.0, 3.0]) < 0.0


def test_r_squared_degenerate_inputs():
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [5.0, 5.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0, 3.0], [1.0, 2.0])


# --- single-source fits ---------------------------------------------------------

def test_noiseless_round_trip_first_pass():
    truth = (0.017, 0.0018, 4.6, 0.0)
    powers = np.linspace(2.0, 25.0, 8)
    obs = _synthetic(truth, powers, FULL_CHAIN)
    result = fit_source(obs, "pass1", FULL_CHAIN, seed=0)
    assert result.r2_mean >= 0.999
    assert result.params.eta_i == pytest.approx(truth[0], rel=0.05)
    assert result.params.eta_s == pytest.approx(truth[1], rel=0.05)
    assert result.params.p_seed_mw == pytest.approx(truth[2], rel=0.05)


def test_noiseless_round_trip_second_pass_recovers_f():
    truth = (0.018, 0.0024, 6.3, 0.25)
    powers = np.linspace(2.0, 25.0, 8)
    obs = _synthetic(truth, powers, FULL_CHAIN)
    result = fit_source(obs, "pass2", FULL_CHAIN, seed=0)
    assert result.r2_mean >= 0.999
    assert result.params.back_reflection_fraction == pytest.approx(0.25, rel=0.2)


def test_fit_is_deterministic(monkeypatch):
    monkeypatch.setattr(fitting, "N_STARTS", 4)
    truth = (0.015, 0.0019, 5.2, 0.0)
    obs = _synthetic(truth, np.linspace(2.0, 20.0, 6), NO_CHAIN)
    a = fit_source(obs, "pass1", NO_CHAIN, seed=3)
    b = fit_source(obs, "pass1", NO_CHAIN, seed=3)
    assert a == b


def test_scale_identity_in_rates_and_rep_rate(monkeypatch):
    monkeypatch.setattr(fitting, "N_STARTS", 6)
    # scaling every observed rate and the rep rate by one factor preserves
    # the probability structure, so the transmissions come out the same
    truth = (0.02, 0.003, 5.0, 0.0)
    powers = np.linspace(2.0, 20.0, 8)
    obs = _synthetic(truth, powers, NO_CHAIN, rep_rate_hz=80e6)
    scaled = [
        Observation(o.reference_power_mw, 10 * o.r_trig_hz, 10 * o.r_c_hz, 10 * o.r_a_hz)
        for o in obs
    ]
    a = fit_source(obs, "pass1", NO_CHAIN, rep_rate_hz=80e6, seed=0)
    b = fit_source(scaled, "pass1", NO_CHAIN, rep_rate_hz=800e6, seed=0)
    assert a.params.eta_i == pytest.approx(b.params.eta_i, rel=1e-4)
    assert a.params.eta_s == pytest.approx(b.params.eta_s, rel=1e-4)


def test_reported_objective_dominates_arbitrary_points(monkeypatch):
    monkeypatch.setattr(fitting, "N_STARTS", 6)
    truth = (0.016, 0.0021, 5.6, 0.0)
    powers = np.linspace(2.0, 22.0, 8)
    obs = _synthetic(truth, powers, FULL_CHAIN)
    result = fit_source(obs, "pass1", FULL_CHAIN, seed=1)
    r_trig = np.array([o.r_trig_hz for o in obs])
    r_c = np.array([o.r_c_hz for o in obs])
    r_a = np.array([o.r_a_hz for o in obs])
    rng = np.random.default_rng(4)
    for _ in range(10):
        eta_i = float(rng.uniform(1e-3, 0.4))
        eta_s = float(rng.uniform(1e-3, 0.4))
        p_seed = float(rng.uniform(1.0, 30.0))
        pred = predict_rates(eta_i, eta_s, p_seed, 0.0, powers, 80e6, FULL_CHAIN)
        r2s = [
            r_squared(np.log(p), np.log(o))
            for p, o in zip(pred, (r_trig, r_c, r_a))
        ]
        assert result.r2_mean >= np.mean(r2s) - 1e-12


def _truth(source):
    return (
        source.eta_i, source.eta_s, source.p_seed_mw, source.back_reflection_fraction
    )


def _noisy(truth, rng, noise=0.03):
    trig, c, a = predict_rates(*truth, SWEEP_MW, 80e6, FULL_CHAIN)
    factors = 1.0 + rng.normal(0.0, noise, (len(SWEEP_MW), 3))
    return [
        Observation(p, t * ft, cc * fc, aa * fa)
        for p, t, cc, aa, (ft, fc, fa) in zip(SWEEP_MW, trig, c, a, factors)
    ]


def _log_channels(params, obs):
    """(log predicted, log observed) rates as (3, n) arrays."""
    pred = predict_rates(*params, SWEEP_MW, 80e6, FULL_CHAIN)
    observed = [[o.r_trig_hz, o.r_c_hz, o.r_a_hz] for o in obs]
    return np.log(np.stack(pred)), np.log(np.array(observed).T)


def test_r2_mean_is_one_minus_twice_the_least_squares_cost(monkeypatch):
    monkeypatch.setattr(fitting, "N_STARTS", 4)
    truth = _truth(PASS2_SOURCES[1])
    obs = _noisy(truth, np.random.default_rng(11))
    result = fit_source(obs, "pass2", FULL_CHAIN, seed=0)
    p = result.params
    pred, observed = _log_channels(
        (p.eta_i, p.eta_s, p.p_seed_mw, p.back_reflection_fraction), obs
    )
    ss_tot = np.sum((observed - observed.mean(axis=1, keepdims=True)) ** 2, axis=1)
    cost = 0.5 * np.sum((pred - observed) ** 2 / (3.0 * ss_tot[:, None]))
    assert 1.0 - 2.0 * cost == pytest.approx(result.r2_mean, abs=1e-12)
    channels = (result.r2_trig, result.r2_c, result.r2_a)
    assert np.mean(channels) == pytest.approx(result.r2_mean, abs=1e-12)


def _noisy_draws(kind, sources):
    """Six seeded noisy sweeps of the default sources: (truth, observations)."""
    for draw in range(6):
        truth = _truth(sources[draw % len(sources)])
        yield truth, _noisy(truth, np.random.default_rng([draw, kind == "pass2"]))


PASSES = pytest.mark.parametrize(
    "kind, sources", [("pass1", PASS1_SOURCES), ("pass2", PASS2_SOURCES)]
)


@PASSES
def test_noisy_fits_reach_the_truths_r2_and_recover_eta_i(kind, sources):
    for truth, obs in _noisy_draws(kind, sources):
        result = fit_source(obs, kind, FULL_CHAIN, seed=0)
        pred, observed = _log_channels(truth, obs)
        r2_truth = np.mean([r_squared(p, o) for p, o in zip(pred, observed)])
        assert result.r2_mean >= r2_truth - 1e-4
        assert result.params.eta_i == pytest.approx(truth[0], rel=0.15)
        if kind == "pass2":
            # f trades off against eta_s and p_seed within the noise, eta_i
            # does not
            assert result.rel_se_f > result.rel_se_eta_i


def _at(batch, points, start=0):
    """Residual rows and Jacobians of points that all belong to one start."""
    return batch(points, np.full(len(points), start))


def _spy(monkeypatch, name, record):
    """Replace fitting.<name> by a wrapper that records the number of points
    of each call and calls the original."""
    real = getattr(fitting, name)

    def spy(xs, *args, **kwargs):
        record.append(len(xs))
        return real(xs, *args, **kwargs)

    monkeypatch.setattr(fitting, name, spy)


def _solver_calls(monkeypatch):
    """Record the arguments fit_source hands to its solver."""
    calls = []
    real = fitting._lockstep_lm

    def spy(batch, x0s, lower, upper):
        calls.append(dict(batch=batch, x0s=x0s, lower=lower, upper=upper))
        return real(batch, x0s, lower, upper)

    monkeypatch.setattr(fitting, "_lockstep_lm", spy)
    return calls


@PASSES
def test_batched_residuals_equal_single_calls(monkeypatch, kind, sources):
    calls = _solver_calls(monkeypatch)
    monkeypatch.setattr(fitting, "N_STARTS", 1)
    obs = next(_noisy_draws(kind, sources))[1]
    fit_source(obs, kind, FULL_CHAIN, seed=0)
    batch, lower, upper = calls[0]["batch"], calls[0]["lower"], calls[0]["upper"]
    assert batch.func is fitting._residual_batch
    points = np.random.default_rng(3).uniform(lower, upper, (6, lower.size))
    singles = [_at(batch, x[None]) for x in points]
    # A batch the model accepts takes one model call, of one row per point...
    model_calls = []
    _spy(monkeypatch, "_rates_and_slopes", model_calls)
    rows, jacs = _at(batch, points)
    assert model_calls == [len(points)] and len(rows) == len(jacs) == len(points)
    for row, jac, (single, single_jac) in zip(rows, jacs, singles):
        assert np.array_equal(row, single[0]) and np.array_equal(jac, single_jac[0])
        assert not (row == FAILED_RESIDUAL).any() and np.isfinite(jac).all()
    # ...and a batch holding points the model rejects (eta_i = e > 1) or
    # that predict no coincidences (eta_s = 0) fails those rows alone, with a
    # zero Jacobian.
    points[2, 0] = 1.0
    points[4, 1] = -np.inf
    rows, jacs = _at(batch, points)
    for i, (row, jac, x) in enumerate(zip(rows, jacs, points)):
        single, single_jac = _at(batch, x[None])
        assert np.array_equal(row, single[0]) and np.array_equal(jac, single_jac[0])
        assert (row == FAILED_RESIDUAL).all() == (i in (2, 4))
        assert (jac == 0.0).all() == (i in (2, 4))
    # One rejected point among 64 costs a model call per halving, not one
    # per row: the batch, then both halves at each of log2(64) levels.
    points = np.random.default_rng(5).uniform(lower, upper, (64, lower.size))
    points[37, 0] = 1.0
    model_calls.clear()
    rows, jacs = _at(batch, points)
    assert len(model_calls) <= 1 + 2 * 6
    for i, (row, jac, x) in enumerate(zip(rows, jacs, points)):
        assert (row == FAILED_RESIDUAL).all() == (i == 37)
        if i != 37:
            single, single_jac = _at(batch, x[None])
            assert np.array_equal(row, single[0]) and np.array_equal(jac, single_jac[0])


@PASSES
def test_jacobians_of_a_fused_call_equal_those_taken_alone(monkeypatch, kind, sources):
    """The points of one fused call, several starts' points together, give
    each start the residuals and Jacobian it gets alone."""
    calls = _solver_calls(monkeypatch)
    monkeypatch.setattr(fitting, "N_STARTS", 1)
    obs = next(_noisy_draws(kind, sources))[1]
    fit_source(obs, kind, FULL_CHAIN, seed=0)
    batch, lower, upper = calls[0]["batch"], calls[0]["lower"], calls[0]["upper"]
    points = np.random.default_rng(4).uniform(lower, upper, (6, lower.size))
    points[0] = upper
    starts = np.arange(6) % 2  # N_STARTS = 1 gives a fit two starts
    fun, jac = batch(points, starts)
    assert jac.shape == (6, fun.shape[1], lower.size)
    for x, start, row, jac_row in zip(points, starts, fun, jac):
        alone, jac_alone = _at(batch, x[None], start)
        assert np.array_equal(row, alone[0]) and np.array_equal(jac_row, jac_alone[0])


def _central_differences(batch, points, starts, lower, upper):
    """(k, m, n) second-order difference Jacobians, each step kept in the box.
    Steps of 1e-5 keep rounding (worst where s = xi^2 nears 1) and truncation
    under 1e-7 of a column's largest entry over 3000 random cases. A point
    within a step of a bound takes the one-sided stencil (-3f0 + 4f1 - f2)/2h
    pointing inward: clipping the central step there would make it lopsided,
    and a lopsided difference is only first order."""
    k, n = points.shape
    f0 = batch(points, starts)[0]
    out = np.empty(batch(points, starts)[1].shape)
    for j in range(n):
        h = 1e-5 * np.maximum(1.0, np.abs(points[:, j]))
        inward = np.where(points[:, j] - lower[j] < upper[j] - points[:, j], 1.0, -1.0)
        central = (points[:, j] - h >= lower[j]) & (points[:, j] + h <= upper[j])
        hi, lo, far = points.copy(), points.copy(), points.copy()
        hi[:, j] += h
        lo[:, j] -= h
        step = inward * h
        hi[~central, j] = points[~central, j] + step[~central]
        far[:, j] += 2 * step
        f_hi, f_lo = batch(hi, starts)[0], batch(np.where(central[:, None], lo, far), starts)[0]
        out[:, :, j] = np.where(
            central[:, None],
            (f_hi - f_lo) / (2 * h)[:, None],
            (-3 * f0 + 4 * f_hi - f_lo) / (2 * step)[:, None],
        )
    return out


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["pass1", "pass2"]),
    log_space=st.booleans(),
    chain=st.sampled_from([NO_CHAIN, DeadtimeChain((1e-7,)), FULL_CHAIN]),
    top_power_mw=st.sampled_from([25.0, 250.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_residual_jacobian_matches_central_differences(
    kind, log_space, chain, top_power_mw, seed
):
    """The batch's exact Jacobian, in log and linear space, on the empty,
    one-stage and default chains, and up to 250 mW, where the default chain
    blocks most heralds, agrees with central differences to 1e-6 of the
    largest entry of its column."""
    rng = np.random.default_rng(seed)
    bounds = np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T
    if kind == "pass2":
        bounds = np.column_stack([bounds, F_BOUNDS])
    lower, upper = bounds
    points = rng.uniform(lower, upper, (8, lower.size))
    starts = np.arange(8) % 2
    powers = np.linspace(top_power_mw / 12.0, top_power_mw, 12)
    batch = functools.partial(
        fitting._residual_batch,
        powers=powers,
        target=rng.normal(size=(2, 3, 12)),
        weight=rng.uniform(0.2, 2.0, (2, 3, 1)),
        log_space=log_space,
        rep_rate_hz=80e6,
        chain=chain,
    )
    fun, jac = batch(points, starts)
    assert not (fun == FAILED_RESIDUAL).any()
    differences = _central_differences(batch, points, starts, lower, upper)
    scale = np.abs(differences).max(axis=1, keepdims=True)
    assert (np.abs(jac - differences) <= 1e-6 * scale).all()


def test_fit_model_call_gives_the_rates_of_predict_rates():
    rng = np.random.default_rng(25)
    for bounds in (
        np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T,
        np.column_stack([np.log([ETA_BOUNDS, ETA_BOUNDS, P_SEED_BOUNDS]).T, F_BOUNDS]),
    ):
        xs = rng.uniform(*bounds, (5, bounds.shape[1]))
        rates, slopes = fitting._rates_and_slopes(xs, SWEEP_MW, 80e6, FULL_CHAIN)
        params = fitting._params(xs[:, None])
        expected = predict_rates(*params, SWEEP_MW, 80e6, FULL_CHAIN)
        assert np.array_equal(rates, np.stack(expected, axis=1))
        assert slopes.shape == rates.shape + (bounds.shape[1],)


def test_each_iteration_evaluates_one_model_row_per_trial_point(monkeypatch):
    """No silent fallback to differences: every batch call of a fit_all run,
    the starts' and each iteration's, evaluates the model once, on one row
    per point it was given, and those rows add up to the solver's count of
    evaluated points."""
    batches, model_rows, runs = [], [], []
    real_solver = fitting._lockstep_lm

    def solver(*args):
        runs.append(real_solver(*args))
        return runs[-1]

    monkeypatch.setattr(fitting, "_lockstep_lm", solver)
    _spy(monkeypatch, "_residual_batch", batches)
    _spy(monkeypatch, "_rates_and_slopes", model_rows)
    rng = np.random.default_rng(24)
    for kind, sources in (("pass1", PASS1_SOURCES), ("pass2", PASS2_SOURCES)):
        table = {f"S{i}": _noisy(_truth(sources[i]), rng) for i in range(4)}
        results = fit_all(table, dict.fromkeys(table, kind), FULL_CHAIN)
        assert all(isinstance(r, FitResult) for r in results.values())
        (*_, nfev, _), = runs
        assert model_rows == batches and sum(batches) == nfev.sum()
        assert batches[0] == 4 * (fitting.N_STARTS + 1)
        for record in (runs, batches, model_rows):
            record.clear()


@PASSES
def test_fits_match_scipy_trf_from_the_same_starts(monkeypatch, kind, sources):
    """scipy's trust-region reflective solver, run from every start of each
    fit on the same residuals, finds no better optimum and the same
    parameters."""
    from scipy.optimize import least_squares

    calls = _solver_calls(monkeypatch)
    for _, obs in _noisy_draws(kind, sources):
        result = fit_source(obs, kind, FULL_CHAIN, seed=0)
        call = calls.pop()
        best = min(
            (
                least_squares(
                    lambda x: _at(call["batch"], x[None])[0][0], x0, method="trf",
                    bounds=(call["lower"], call["upper"]), x_scale="jac",
                )
                for x0 in call["x0s"]
            ),
            key=lambda res: res.cost,
        )
        assert result.r2_mean >= 1.0 - 2.0 * best.cost - 1e-12
        p = result.params
        fitted = [p.eta_i, p.eta_s, p.p_seed_mw, p.back_reflection_fraction]
        trf = np.append(np.exp(best.x[:3]), best.x[3:])
        assert np.allclose(fitted[: trf.size], trf, rtol=1e-5, atol=0.0)


def test_noiseless_standard_errors_vanish(monkeypatch):
    monkeypatch.setattr(fitting, "N_STARTS", 4)
    for source, kind in ((PASS1_SOURCES[0], "pass1"), (PASS2_SOURCES[0], "pass2")):
        obs = _synthetic(_truth(source), SWEEP_MW, FULL_CHAIN)
        result = fit_source(obs, kind, FULL_CHAIN, seed=0)
        errors = [result.rel_se_eta_i, result.rel_se_eta_s, result.rel_se_p_seed]
        if kind == "pass2":
            errors.append(result.rel_se_f)
        else:
            assert result.rel_se_f is None
        assert max(errors) < 1e-6


def test_fit_input_validation():
    powers = np.linspace(2.0, 20.0, 8)
    obs = _synthetic((0.02, 0.003, 5.0, 0.0), powers, NO_CHAIN)
    with pytest.raises(ValueError):
        fit_source(obs[:3], "pass1", NO_CHAIN)
    with pytest.raises(ValueError):
        fit_source(obs, "pass3", NO_CHAIN)
    same_power = [Observation(5.0, o.r_trig_hz, o.r_c_hz, o.r_a_hz) for o in obs]
    with pytest.raises(ValueError):
        fit_source(same_power, "pass1", NO_CHAIN)
    with pytest.raises(ValueError):
        Observation(5.0, -1.0, 0.0, 0.0)
    # A clock rate the model rejects fails up front, not as a diverged fit.
    for rep_rate_hz in (0.0, -80e6, math.inf):
        with pytest.raises(ValueError):
            fit_source(obs, "pass1", NO_CHAIN, rep_rate_hz=rep_rate_hz)


def test_saturated_trigger_rates_start_from_the_detected_rates():
    """A trigger rate at or above the chain's saturation 1/d has no true
    rate: the moment-based start then takes every detected rate as true,
    as a chain of no stages does."""
    powers = np.linspace(2.0, 25.0, 8)
    r_trig, r_c, r_a = predict_rates(0.015, 0.0019, 5.2, 0.0, powers, 80e6, FULL_CHAIN)
    r_trig[-1] = 2e7
    for with_f in (False, True):
        start = fitting._heuristic_start(powers, r_trig, r_c, r_a, 80e6, FULL_CHAIN, with_f)
        alone = fitting._heuristic_start(powers, r_trig, r_c, r_a, 80e6, NO_CHAIN, with_f)
        assert np.array_equal(start, alone)


def test_start_without_two_low_accidental_ratios_is_the_fixed_guess():
    """Fewer than two powers with 0 < r_a / r_c < 0.49 fix no squeezing
    scale: the start is eta_i = 0.02, eta_s = 0.002, p_seed = 5 mW, f = 0.2."""
    powers = np.linspace(2.0, 25.0, 8)
    r_trig, r_c, _ = predict_rates(0.015, 0.0019, 5.2, 0.0, powers, 80e6, FULL_CHAIN)
    r_a = 0.5 * r_c
    r_a[0] = 0.1 * r_c[0]  # one low ratio is not enough
    guess = np.log([0.02, 0.002, 5.0])
    start = fitting._heuristic_start(powers, r_trig, r_c, r_a, 80e6, FULL_CHAIN, False)
    assert np.array_equal(start, guess)
    start = fitting._heuristic_start(powers, r_trig, r_c, r_a, 80e6, FULL_CHAIN, True)
    assert np.array_equal(start, np.append(guess, 0.2))


def test_fit_at_powers_the_model_cannot_follow_diverges():
    """Near 1e6 mW every start's residuals stay at FAILED_RESIDUAL: the fit
    raises FitError alone and fit_all records it."""
    scale = np.arange(1.0, 7.0)
    obs = [
        Observation(p, 1e5 * k, 1e3 * k, 10.0 * k)
        for p, k in zip(np.linspace(1e6, 1.2e6, 6), scale)
    ]
    message = "all starts diverged; no finite objective found"
    with pytest.raises(FitError) as raised:
        fit_source(obs, "pass1", FULL_CHAIN)
    assert str(raised.value) == message
    (recorded,) = fit_all({"S": obs}, {"S": "pass1"}, FULL_CHAIN).values()
    assert type(recorded) is FitError and str(recorded) == message


# --- batch driver ------------------------------------------------------------------

def test_fit_all_empty_table():
    assert fit_all({}, {}, NO_CHAIN) == {}


def test_fit_all_single_source_row():
    obs = _synthetic((0.02, 0.003, 5.0, 0.0), np.linspace(2.0, 20.0, 6), NO_CHAIN)
    results = fit_all({"a": obs}, {"a": "pass1"}, NO_CHAIN)
    assert set(results) == {"a"}
    assert isinstance(results["a"], FitResult)


def test_fit_all_records_failures_without_aborting():
    good = _synthetic((0.02, 0.003, 5.0, 0.0), np.linspace(2.0, 20.0, 6), NO_CHAIN)
    bad = good[:2]  # too few observations
    results = fit_all({"good": good, "bad": bad}, {"good": "pass1", "bad": "pass1"}, NO_CHAIN)
    assert isinstance(results["good"], FitResult)
    assert isinstance(results["bad"], ValueError)


def _outcome(result):
    """A fit's result, or the type and message of its exception."""
    return (type(result), str(result)) if isinstance(result, Exception) else result


def test_fit_all_gives_every_source_the_fit_it_gets_alone():
    """One file holding two power grids, both kinds, both residual spaces
    and a source too short to fit: fusing the solver runs changes nothing."""
    rng = np.random.default_rng(21)
    table = {f"P2D{i}": _noisy(_truth(PASS2_SOURCES[i]), rng) for i in range(4)}
    kinds = dict.fromkeys(table, "pass2")
    table["P1"] = _synthetic(_truth(PASS1_SOURCES[0]), np.linspace(2.0, 25.0, 8), FULL_CHAIN)
    kinds["P1"] = "pass1"
    no_accidental = _noisy(_truth(PASS2_SOURCES[1]), rng)
    no_accidental[3] = Observation(*dataclasses.astuple(no_accidental[3])[:3], 0.0)
    table["zero_r_a"], kinds["zero_r_a"] = no_accidental, "pass2"
    table["short"], kinds["short"] = table["P2D0"][:3], "pass2"
    results = fit_all(table, kinds, FULL_CHAIN, seed=2)
    assert list(results) == list(table)
    for label, obs in table.items():
        try:
            alone = fit_source(obs, kinds[label], FULL_CHAIN, seed=2)
        except (FitError, ValueError) as exc:
            alone = exc
        assert _outcome(results[label]) == _outcome(alone), label
    assert isinstance(results["short"], ValueError)
    assert sum(isinstance(r, FitResult) for r in results.values()) == 6


def test_fit_all_records_a_failed_run_against_each_of_its_sources():
    """A group's run that raises as a whole, here on a seed the generator
    rejects, leaves each source the exception it raises alone."""
    rng = np.random.default_rng(23)
    table = {f"P2D{i}": _noisy(_truth(PASS2_SOURCES[i]), rng) for i in range(2)}
    results = fit_all(table, dict.fromkeys(table, "pass2"), FULL_CHAIN, seed=-1)
    for label, obs in table.items():
        with pytest.raises(ValueError) as alone:
            fit_source(obs, "pass2", FULL_CHAIN, seed=-1)
        assert _outcome(results[label]) == _outcome(alone.value)


def test_fit_all_solves_a_shared_grid_in_one_run(monkeypatch):
    """Four sources of one kind on one grid take one solver run: a model
    call for the starts and one per iteration of the slowest start, and
    none after the solver returns."""
    runs, model_calls = [], []
    real_solver = fitting._lockstep_lm

    def solver(*args):
        out = real_solver(*args)
        runs.append((out, len(model_calls)))
        return out

    monkeypatch.setattr(fitting, "_lockstep_lm", solver)
    _spy(monkeypatch, "_rates_and_slopes", model_calls)
    rng = np.random.default_rng(22)
    table = {f"P2D{i}": _noisy(_truth(PASS2_SOURCES[i]), rng) for i in range(4)}
    results = fit_all(table, dict.fromkeys(table, "pass2"), FULL_CHAIN)
    assert all(isinstance(r, FitResult) for r in results.values())
    assert len(runs) == 1
    (x, fun, cost, converged, nfev, jac), calls_at_return = runs[0]
    assert len(x) == 4 * (fitting.N_STARTS + 1)
    iterations = nfev.max() - 1
    assert len(model_calls) == calls_at_return == iterations + 1


# --- CSV interfaces ------------------------------------------------------------------

def test_load_observations_grouped_by_source(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "source,power_mw,r_trig,r_c,r_a\n"
        "a,2.0,100.0,5.0,1.0\n"
        "b,2.0,200.0,9.0,2.0\n"
        "a,4.0,180.0,8.0,3.0\n"
    )
    table = load_observations_csv(path)
    assert set(table) == {"a", "b"}
    assert len(table["a"]) == 2
    assert table["a"][1].reference_power_mw == 4.0


def test_load_observations_missing_column(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("power_mw,r_trig,r_c\n1.0,1.0,1.0\n")
    with pytest.raises(ObservationsParseError, match="r_a"):
        load_observations_csv(path)


def test_load_observations_reports_line_number(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(
        "power_mw,r_trig,r_c,r_a\n1.0,10.0,1.0,0.1\n2.0,oops,2.0,0.2\n"
    )
    with pytest.raises(ObservationsParseError, match="line 3"):
        load_observations_csv(path)


def test_load_observations_with_a_byte_order_mark(tmp_path):
    text = "source,power_mw,r_trig,r_c,r_a\na,2.0,100.0,5.0,1.0\nb,4.0,180.0,8.0,3.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_observations_csv(marked) == load_observations_csv(plain)


def test_load_observations_empty_file(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("")
    with pytest.raises(ObservationsParseError):
        load_observations_csv(path)


def test_write_fit_table_includes_failures(tmp_path):
    obs = _synthetic((0.02, 0.003, 5.0, 0.0), np.linspace(2.0, 20.0, 6), NO_CHAIN)
    results = fit_all({"ok": obs, "broken": obs[:2]}, {"ok": "pass1"}, NO_CHAIN)
    path = tmp_path / "fits.csv"
    write_fit_table_csv(path, results)
    text = path.read_text().splitlines()
    assert text[0].startswith("source,eta_i,eta_s")
    assert text[0].endswith(
        ",error,rel_se_eta_i,rel_se_eta_s,rel_se_p_seed_mw,"
        "rel_se_back_reflection_fraction"
    )
    assert len(text) == 3
    broken_row = next(line for line in text if line.startswith("broken"))
    assert "least 4 observations" in broken_row
    assert broken_row.endswith(",,,,")
    ok_row = next(line for line in text if line.startswith("ok")).split(",")
    assert len(ok_row) == 15 and ok_row[-1] == "" and float(ok_row[-2]) >= 0.0


_FIT_TABLE_TEXT = st.text(st.sampled_from('ab ,"\n\r\t;'), max_size=6)


@settings(deadline=None)
@given(
    labels=st.lists(_FIT_TABLE_TEXT, min_size=1, max_size=4, unique=True),
    messages=st.lists(_FIT_TABLE_TEXT, min_size=4, max_size=4),
)
def test_fit_table_bytes_match_csv_writer(tmp_path_factory, labels, messages):
    """Labels and error messages with commas, quotes and line breaks are
    quoted as csv.writer quotes them, row for row."""
    fitted = FitResult(
        params=SourceParams(0.0123456789, 0.002, 5.5, 0.25),
        r2_trig=0.999, r2_c=0.98765432, r2_a=-0.5, r2_mean=0.8,
        converged=False, iterations=12, rel_se_eta_i=0.01, rel_se_eta_s=math.inf,
        rel_se_p_seed=1e-7, rel_se_f=None,
    )
    results = {
        label: fitted if i % 2 else ValueError(message)
        for i, (label, message) in enumerate(zip(labels, messages))
    }
    path = tmp_path_factory.mktemp("fits") / "fit_results.csv"
    write_fit_table_csv(path, results)

    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(fitting.FIT_TABLE_HEADER)
    for label, result in results.items():
        if isinstance(result, FitResult):
            p = result.params
            writer.writerow(
                [label]
                + [f"{v:.6g}" for v in (p.eta_i, p.eta_s, p.p_seed_mw,
                                        p.back_reflection_fraction, result.r2_trig,
                                        result.r2_c, result.r2_a, result.r2_mean)]
                + [int(result.converged), ""]
                + [f"{v:.6g}" for v in (result.rel_se_eta_i, result.rel_se_eta_s,
                                        result.rel_se_p_seed)]
                + [""]
            )
        else:
            writer.writerow([label] + [""] * 9 + [str(result)] + [""] * 4)
    assert path.read_bytes() == expected.getvalue().encode()
