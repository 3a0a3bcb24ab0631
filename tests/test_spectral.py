"""Gaussian spectrum fitting and overlap bounds against a quadrature oracle."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from muxsim import (
    SpectrumModel,
    fit_gaussian,
    indistinguishability_table,
    overlap_gamma,
)
from muxsim import spectral
from muxsim.spectral import (
    FWHM_TO_SIGMA,
    SpectrumFitError,
    _initial_guess,
    fit_gaussians,
    load_spectrum_csv,
)
from test_fitting import _central_differences


def _quadrature_gamma(a: SpectrumModel, b: SpectrumModel) -> float:
    """|integral of normalized amplitude product|^2 by adaptive quadrature."""

    def amplitude(model):
        sigma = model.sigma_nm
        norm = (math.pi * 2.0 * sigma * sigma) ** -0.25  # sqrt of Gaussian intensity
        return lambda x: norm * math.exp(-((x - model.center_nm) ** 2) / (4.0 * sigma * sigma))

    fa, fb = amplitude(a), amplitude(b)
    lo = min(a.center_nm, b.center_nm) - 12 * max(a.sigma_nm, b.sigma_nm)
    hi = max(a.center_nm, b.center_nm) + 12 * max(a.sigma_nm, b.sigma_nm)
    integral, _ = quad(lambda x: fa(x) * fb(x), lo, hi, epsabs=1e-13, epsrel=1e-13)
    return integral * integral


def _samples(model: SpectrumModel, n=60, span=4.0):
    wl = np.linspace(
        model.center_nm - span * model.sigma_nm,
        model.center_nm + span * model.sigma_nm,
        n,
    )
    return list(zip(wl, model.intensity(wl)))


# --- fitting -------------------------------------------------------------------

def test_exact_gaussian_recovered():
    truth = SpectrumModel(center_nm=1550.2, fwhm_nm=0.84, amplitude=1200.0)
    fitted, residual = fit_gaussian(_samples(truth))
    assert fitted.center_nm == pytest.approx(truth.center_nm, abs=1e-9)
    assert fitted.fwhm_nm == pytest.approx(truth.fwhm_nm, rel=1e-9)
    assert fitted.amplitude == pytest.approx(truth.amplitude, rel=1e-9)
    assert residual < 1e-6


def test_noisy_gaussian_center_within_tenth_nanometer():
    truth = SpectrumModel(center_nm=1547.6, fwhm_nm=1.1, amplitude=800.0)
    rng = np.random.default_rng(5)
    samples = [
        (wl, max(c + rng.normal(0.0, 0.02 * truth.amplitude), 0.0))
        for wl, c in _samples(truth, n=120)
    ]
    fitted, _ = fit_gaussian(samples)
    assert abs(fitted.center_nm - truth.center_nm) < 0.1


def test_fit_beats_truth_and_start_on_poisson_spectra():
    rng = np.random.default_rng(21)
    wl = np.linspace(1545.0, 1555.0, 161)
    for _ in range(64):
        truth = SpectrumModel(
            center_nm=float(rng.uniform(1549.0, 1551.0)),
            fwhm_nm=float(rng.uniform(0.6, 1.2)),
            amplitude=2000.0,
        )
        counts = rng.poisson(truth.intensity(wl)).astype(float)
        fitted, norm = fit_gaussian(list(zip(wl, counts)))
        center, sigma, amp = _initial_guess(wl, counts)
        start = SpectrumModel(center, sigma / FWHM_TO_SIGMA, amp)
        assert norm == pytest.approx(
            np.linalg.norm(fitted.intensity(wl) - counts), rel=1e-12
        )
        assert norm <= np.linalg.norm(truth.intensity(wl) - counts)
        assert norm <= np.linalg.norm(start.intensity(wl) - counts)


def test_degenerate_inputs_rejected():
    with pytest.raises(SpectrumFitError):
        fit_gaussian([(1550.0, 1.0), (1550.5, 2.0), (1551.0, 1.0)])  # 3 points
    with pytest.raises(SpectrumFitError):
        fit_gaussian([(1550.0 + i, 5.0) for i in range(10)])  # constant
    with pytest.raises(SpectrumFitError):
        fit_gaussian([(1550.0 + i, -1.0 * i) for i in range(10)])  # negative
    with pytest.raises(SpectrumFitError):
        fit_gaussian([(1550.0 + i, math.nan if i == 5 else 1.0 + i) for i in range(10)])
    with pytest.raises(ValueError):
        SpectrumModel(center_nm=1550.0, fwhm_nm=0.0, amplitude=1.0)


def test_spectra_without_a_gaussian_start_rejected():
    # Counts that rise away from the middle: the log-parabola opens upward.
    convex = [(1550.0 + i, 1.0 + (i - 4.5) ** 2) for i in range(10)]
    with pytest.raises(SpectrumFitError, match="^data has no concave peak; cannot fit a Gaussian$"):
        fit_gaussian(convex)
    for samples in ([(1550.0 + i, 1.0, 2.0) for i in range(5)], [1550.0 + i for i in range(6)]):
        with pytest.raises(SpectrumFitError, match=r"^samples must be \(wavelength_nm, counts\) pairs$"):
            fit_gaussian(samples)


def test_a_lone_spike_starts_from_every_positive_count():
    """With fewer than 3 counts above a fifth of the peak, the log-parabola
    start is fitted to every positive count."""
    wl = np.linspace(1548.0, 1552.0, 9)
    counts = np.array([0.0, 1.0, 3.0, 8.0, 100.0, 6.0, 2.0, 0.0, 0.0])
    a, b, c = np.polyfit(wl[1:7], np.log(counts[1:7]), 2)
    expected = (-b / (2.0 * a), math.sqrt(-1.0 / (2.0 * a)), math.exp(c - b**2 / (4.0 * a)))
    assert _initial_guess(wl, counts) == expected
    model, _ = fit_gaussian(list(zip(wl, counts)))
    assert model.center_nm == pytest.approx(1550.0, abs=0.05)


def test_fit_gaussians_checks_each_spectrum_as_it_is_drawn():
    """Any iterable, drawn once: the first spectrum that fails its check
    stops the drawing, and an exception the iterable raises passes through
    unchanged, with no index."""
    good = _poisson_spectrum(np.random.default_rng(4), 61)
    constant = [(1550.0 + i, 5.0) for i in range(10)]
    drawn = []

    def spectra(*items):
        for item in items:
            drawn.append(item)
            yield item

    assert fit_gaussians(spectra(good, good)) == fit_gaussians([good, good])
    drawn.clear()
    with pytest.raises(SpectrumFitError, match="constant counts") as raised:
        fit_gaussians(spectra(good, constant, good))
    assert raised.value.index == 1 and len(drawn) == 2
    unreadable = SpectrumFitError("unreadable")

    def failing():
        yield good
        raise unreadable

    with pytest.raises(SpectrumFitError) as raised:
        fit_gaussians(failing())
    assert raised.value is unreadable and unreadable.index is None


def _poisson_spectrum(rng, n):
    """n (wavelength_nm, counts) samples over 10 nm around 1550 nm of a
    Poisson spectrum with a 2000-count peak."""
    shift = float(rng.uniform(-0.5, 0.5))
    wl = np.linspace(1545.0 + shift, 1555.0 + shift, n)
    truth = SpectrumModel(
        center_nm=float(rng.uniform(1549.0, 1551.0)),
        fwhm_nm=float(rng.uniform(0.6, 1.2)),
        amplitude=2000.0,
    )
    return list(zip(wl, rng.poisson(truth.intensity(wl)).astype(float)))


@settings(deadline=None, max_examples=25)
@given(
    sizes=st.lists(st.sampled_from([41, 61, 161]), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_fit_gaussians_is_each_lone_fit(sizes, seed, data):
    rng = np.random.default_rng(seed)
    spectra = [_poisson_spectrum(rng, n) for n in sizes]
    spectra = data.draw(st.permutations(spectra))
    assert fit_gaussians(spectra) == [fit_gaussian(samples) for samples in spectra]


def test_spectra_of_one_length_share_one_solver_run(monkeypatch):
    runs = []
    solver = spectral._lockstep_lm

    def counting(batch, x0s, *bounds):
        runs.append(len(x0s))
        return solver(batch, x0s, *bounds)

    monkeypatch.setattr(spectral, "_lockstep_lm", counting)
    rng = np.random.default_rng(3)
    fitted = fit_gaussians([_poisson_spectrum(rng, 161) for _ in range(8)])
    assert runs == [8] and len(fitted) == 8


def _batch_of(spectra):
    """The solver batch fit_gaussians builds for spectra of one sample count,
    and each spectrum's start."""
    checked = zip(*map(spectral._checked, spectra))
    wl, counts, x0 = (np.array(column) for column in checked)
    return functools.partial(spectral._gaussian_batch, wl=wl, counts=counts), x0


def test_gaussian_jacobian_matches_central_differences():
    """The batch's tangent Jacobian agrees with central differences to 1e-6
    of the largest entry of its column.  The center is taken relative to
    1550 nm, so that the differences step it by 1e-5 nm, not 1e-5 of 1550
    nm, which would be a twentieth of a line width."""
    rng = np.random.default_rng(8)
    for n in (41, 161):
        batch, x0 = _batch_of([_poisson_spectrum(rng, n) for _ in range(4)])
        offset = np.array([1550.0, 0.0, 0.0])
        points = x0 - offset + rng.normal(0.0, 0.1, (4, 3))
        starts = np.arange(4)

        def shifted(xs, starts):
            return batch(xs + offset, starts)

        jac = shifted(points, starts)[1]
        unbounded = np.full(3, np.inf)
        differences = _central_differences(shifted, points, starts, -unbounded, unbounded)
        scale = np.abs(differences).max(axis=1, keepdims=True)
        assert (np.abs(jac - differences) <= 1e-6 * scale).all()


def test_gaussian_batch_rows_of_a_fused_call_equal_those_taken_alone():
    """Points of several spectra in one call get the residual rows and
    Jacobians their own spectrum gives them alone, bit for bit."""
    rng = np.random.default_rng(9)
    spectra = [_poisson_spectrum(rng, 61) for _ in range(3)]
    batch, x0 = _batch_of(spectra)
    starts = np.array([0, 1, 2, 2, 0, 1])
    points = x0[starts] + rng.normal(0.0, 0.05, (6, 3))
    fun, jac = batch(points, starts)
    assert fun.shape == (6, 61) and jac.shape == (6, 61, 3)
    for x, start, row, jac_row in zip(points, starts, fun, jac):
        alone, jac_alone = _batch_of([spectra[start]])[0](x[None], np.array([0]))
        assert np.array_equal(row, alone[0]) and np.array_equal(jac_row, jac_alone[0])


@pytest.mark.parametrize("positive", [1, 2])
def test_sparse_spectrum_rejected_before_the_start_fit(positive):
    """Fewer than 3 positive counts cannot fix a log-parabola start: the
    spectrum is rejected as such, with no rank warning from the start fit."""
    counts = [0.0] * 8
    counts[3 : 3 + positive] = [40.0, 25.0][:positive]
    samples = [(1549.0 + 0.25 * i, c) for i, c in enumerate(counts)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpectrumFitError, match="need at least 3 positive counts"):
            fit_gaussian(samples)


def test_first_bad_spectrum_raises_with_its_index():
    rng = np.random.default_rng(4)
    good = _poisson_spectrum(rng, 61)
    constant = [(1550.0 + i, 5.0) for i in range(10)]
    three = [(1550.0, 1.0), (1550.5, 2.0), (1551.0, 1.0)]
    with pytest.raises(SpectrumFitError, match="constant counts") as raised:
        fit_gaussians([good, constant, three])
    assert raised.value.index == 1
    with pytest.raises(SpectrumFitError) as alone:
        fit_gaussian(constant)
    assert str(alone.value) == str(raised.value) and alone.value.index == 0
    assert fit_gaussians([]) == []


def test_load_spectrum_with_a_byte_order_mark(tmp_path):
    samples = [(1549.0 + 0.5 * i, float(c)) for i, c in enumerate([1, 4, 9, 4, 1])]
    text = "wavelength_nm,counts\n" + "".join(f"{x},{y}\n" for x, y in samples)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_spectrum_csv(marked) == load_spectrum_csv(plain) == samples


# --- overlap --------------------------------------------------------------------

def test_identical_models_have_unit_overlap():
    model = SpectrumModel(1550.0, 0.9, 3.0)
    assert overlap_gamma(model, model) == pytest.approx(1.0, abs=1e-15)


def test_equal_width_sigma_split():
    # centers split by one sigma at equal widths: gamma = exp(-1/4)
    sigma = 0.5
    fwhm = sigma / FWHM_TO_SIGMA
    a = SpectrumModel(1550.0, fwhm, 1.0)
    b = SpectrumModel(1550.0 + sigma, fwhm, 1.0)
    assert overlap_gamma(a, b) == pytest.approx(math.exp(-0.25), abs=1e-12)


def test_distant_centers_vanish():
    a = SpectrumModel(1550.0, 0.9, 1.0)
    b = SpectrumModel(1650.0, 0.9, 1.0)
    assert overlap_gamma(a, b) < 1e-12


def test_overlap_against_quadrature_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        a = SpectrumModel(
            center_nm=float(rng.uniform(1540.0, 1560.0)),
            fwhm_nm=float(rng.uniform(0.3, 3.0)),
            amplitude=1.0,
        )
        b = SpectrumModel(
            center_nm=a.center_nm + float(rng.uniform(-2.0, 2.0)),
            fwhm_nm=float(rng.uniform(0.3, 3.0)),
            amplitude=1.0,
        )
        closed = overlap_gamma(a, b)
        assert 0.0 <= closed <= 1.0
        assert closed == pytest.approx(_quadrature_gamma(a, b), abs=1e-8)
        assert overlap_gamma(b, a) == pytest.approx(closed, abs=1e-15)


# --- tables ---------------------------------------------------------------------

def test_table_structure():
    models = [
        SpectrumModel(1550.0, 0.8, 1.0),
        SpectrumModel(1550.3, 0.9, 2.0),
        SpectrumModel(1549.8, 1.1, 0.5),
    ]
    table = indistinguishability_table(models)
    assert table.shape == (3, 3)
    assert np.allclose(np.diag(table), 1.0)
    assert np.allclose(table, table.T)
    assert np.all((table >= 0.0) & (table <= 1.0))


def test_identical_list_gives_all_ones():
    model = SpectrumModel(1550.0, 0.8, 1.0)
    table = indistinguishability_table([model] * 4)
    assert np.allclose(table, 1.0)


def test_table_needs_two_models():
    with pytest.raises(ValueError):
        indistinguishability_table([SpectrumModel(1550.0, 0.8, 1.0)])


def test_nearby_synthetic_family_mean_overlap():
    # four spectra with small center/width scatter give a mean pairwise
    # overlap close to 0.98
    rng = np.random.default_rng(13)
    models = [
        SpectrumModel(
            center_nm=1550.0 + float(rng.normal(0.0, 0.05)),
            fwhm_nm=0.9 + float(rng.normal(0.0, 0.04)),
            amplitude=1.0,
        )
        for _ in range(4)
    ]
    table = indistinguishability_table(models)
    off_diag = table[~np.eye(4, dtype=bool)]
    assert 0.963 <= off_diag.mean() <= 0.997
