"""Gaussian spectrum fitting and pairwise indistinguishability bounds.

Measured spectra are intensity spectra; the spectral amplitude is taken
as the square root of the fitted Gaussian intensity, so the pairwise
overlap gamma is an upper bound on indistinguishability.  A Gaussian is
fitted by Levenberg-Marquardt least squares (More, Lecture Notes in
Math. 630, 1978) from a log-parabola start, with exact Jacobians from the
Gaussian run on the rate fit's tangent arrays (`fitting._Tangent`).
Spectra of one sample count are fitted in one lockstep solver run, each
start on its own spectrum's residuals; a residual row depends on its own
spectrum alone, so every spectrum gets the fit it gets alone, bit for bit.
Spectrum CSVs are read through `report.read_csv`.
"""

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .fitting import _lockstep_lm, _Tangent
from .report import read_csv

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


class SpectrumFitError(ValueError):
    """The spectrum cannot support a Gaussian fit.  fit_gaussians sets
    ``index`` to the position of the spectrum at fault."""

    index: Optional[int] = None


@dataclass(frozen=True)
class SpectrumModel:
    """Gaussian intensity spectrum: amplitude * exp(-(x-center)^2/(2 sigma^2))."""

    center_nm: float
    fwhm_nm: float
    amplitude: float

    def __post_init__(self):
        if self.fwhm_nm <= 0.0:
            raise ValueError(f"fwhm_nm must be > 0, got {self.fwhm_nm}")

    @property
    def sigma_nm(self) -> float:
        return self.fwhm_nm * FWHM_TO_SIGMA

    def intensity(self, wavelength_nm: np.ndarray) -> np.ndarray:
        dx = np.asarray(wavelength_nm, dtype=float) - self.center_nm
        return self.amplitude * np.exp(-dx * dx / (2.0 * self.sigma_nm**2))


def _initial_guess(wl: np.ndarray, counts: np.ndarray) -> Tuple[float, float, float]:
    """Log-parabola fit around the peak region."""
    peak = counts.max()
    region = (counts > 0.2 * peak) & (counts > 0.0)
    if region.sum() < 3:
        region = counts > 0.0
    x, y = wl[region], np.log(counts[region])
    coeffs = np.polyfit(x, y, 2)
    if coeffs[0] >= 0.0:
        raise SpectrumFitError("data has no concave peak; cannot fit a Gaussian")
    sigma = math.sqrt(-1.0 / (2.0 * coeffs[0]))
    center = -coeffs[1] / (2.0 * coeffs[0])
    amp = math.exp(coeffs[2] - coeffs[1] ** 2 / (4.0 * coeffs[0]))
    return center, sigma, amp


def _checked(samples: Sequence[Tuple[float, float]]) -> Tuple[np.ndarray, ...]:
    """The wavelengths, counts and (center, log sigma, log amplitude) start
    of one spectrum, or SpectrumFitError naming what is wrong with it."""
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise SpectrumFitError("samples must be (wavelength_nm, counts) pairs")
    if not np.isfinite(data).all():
        raise SpectrumFitError("samples must be finite")
    wl, counts = data[:, 0], data[:, 1]
    # Distinct wavelengths counted without np.unique, which imports numpy.ma.
    if np.count_nonzero(np.diff(np.sort(wl))) < 3:
        raise SpectrumFitError("need at least 4 distinct wavelengths")
    if np.any(counts < 0.0):
        raise SpectrumFitError("counts must be >= 0")
    if np.allclose(counts, counts[0]):
        raise SpectrumFitError("constant counts; nothing to fit")
    if np.count_nonzero(counts > 0.0) < 3:
        raise SpectrumFitError("need at least 3 positive counts")
    center0, sigma0, amp0 = _initial_guess(wl, counts)
    return wl, counts, np.array([center0, math.log(sigma0), math.log(max(amp0, 1e-300))])


def _gaussian_batch(
    xs: np.ndarray, starts: np.ndarray, wl: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Model minus counts at the (center, log sigma, log amplitude) rows of
    xs, each on the wavelengths and counts of its start's spectrum, as (k, m)
    rows, and their exact (k, m, 3) Jacobians, carried by _Tangent."""
    directions = np.eye(3)[..., None, None]  # row j: coordinate j's direction
    center, log_sigma, log_amp = map(_Tangent, xs.T[..., None], directions)
    sigma = np.exp(log_sigma)
    dx = wl[starts] - center  # squared as dx * dx: _Tangent has no power
    model = np.exp(log_amp) * np.exp(dx * dx / (-2.0 * sigma * sigma))
    residuals = model - counts[starts]
    return residuals.value, np.moveaxis(residuals.tangent, 0, -1)


def fit_gaussians(
    spectra: Iterable[Sequence[Tuple[float, float]]]
) -> List[Tuple[SpectrumModel, float]]:
    """Least-squares Gaussian fits of (wavelength_nm, counts) spectra.

    Returns the fitted model and the residual norm of each spectrum, in
    order.  Each linearized initial guess is refined by Levenberg-Marquardt
    over (center, log sigma, log amplitude); spectra of one sample count
    share one solver run, and each gets the fit it gets alone.  spectra may
    be any iterable, taken once: each spectrum is checked as it is drawn,
    and all before any is solved.  The first that fails its check raises
    its SpectrumFitError with ``index`` set to its position; an exception
    the iterable raises passes through unchanged.
    """
    checked = []
    for index, samples in enumerate(spectra):
        try:
            checked.append(_checked(samples))
        except SpectrumFitError as exc:
            exc.index = index
            raise
    groups: Dict[int, List[int]] = {}
    for index, (wl, _, _) in enumerate(checked):
        groups.setdefault(wl.size, []).append(index)
    fitted = [None] * len(checked)
    unbounded = np.full(3, np.inf)
    for members in groups.values():
        rows = [checked[index] for index in members]
        wl, counts, x0 = (np.array(column) for column in zip(*rows))
        batch = functools.partial(_gaussian_batch, wl=wl, counts=counts)
        x, _, cost, *_ = _lockstep_lm(batch, x0, -unbounded, unbounded)
        for index, (center, log_sigma, log_amp), c in zip(members, x, cost):
            model = SpectrumModel(
                center_nm=float(center),
                fwhm_nm=float(math.exp(log_sigma) / FWHM_TO_SIGMA),
                amplitude=float(math.exp(log_amp)),
            )
            fitted[index] = (model, math.sqrt(2.0 * c))
    return fitted


def fit_gaussian(
    samples: Sequence[Tuple[float, float]]
) -> Tuple[SpectrumModel, float]:
    """Least-squares Gaussian fit of (wavelength_nm, counts) samples: the
    fitted model and the residual norm.  This is fit_gaussians for one
    spectrum."""
    (fitted,) = fit_gaussians([samples])
    return fitted


def load_spectrum_csv(path) -> List[Tuple[float, float]]:
    """Read the (wavelength_nm, counts) rows of a spectrum CSV; a missing
    column, an unparsable or non-finite value or a negative count raises
    SpectrumFitError naming the file and line."""
    samples = []
    for line, cells in read_csv(path, ("wavelength_nm", "counts"), (), SpectrumFitError):
        try:
            wavelength, counts = map(float, cells)
        except (TypeError, ValueError) as exc:
            raise SpectrumFitError(f"{path}: line {line}: {exc}") from exc
        if not (math.isfinite(wavelength) and math.isfinite(counts) and counts >= 0.0):
            raise SpectrumFitError(
                f"{path}: line {line}: values must be finite and "
                f"counts >= 0, got {wavelength}, {counts}"
            )
        samples.append((wavelength, counts))
    return samples


def overlap_gamma(a: SpectrumModel, b: SpectrumModel) -> float:
    """Squared overlap of the normalized spectral amplitudes of two models.

    With amplitudes taken as sqrt of Gaussian intensities of std sigma:
    gamma = [2 s_a s_b / (s_a^2 + s_b^2)] * exp(-delta^2 / (2 (s_a^2 + s_b^2))).
    """
    sa, sb = a.sigma_nm, b.sigma_nm
    delta = a.center_nm - b.center_nm
    ssum = sa * sa + sb * sb
    return 2.0 * sa * sb / ssum * math.exp(-delta * delta / (2.0 * ssum))


def indistinguishability_table(models: Sequence[SpectrumModel]) -> np.ndarray:
    """Symmetric gamma matrix with unit diagonal."""
    if len(models) < 2:
        raise ValueError("need at least two models")
    n = len(models)
    table = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = overlap_gamma(models[i], models[j])
    return table
