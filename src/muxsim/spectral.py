"""Gaussian spectrum fitting and pairwise indistinguishability bounds.

Measured spectra are intensity spectra; the spectral amplitude is taken
as the square root of the fitted Gaussian intensity, so the pairwise
overlap gamma is an upper bound on indistinguishability.  A Gaussian is
fitted by Levenberg-Marquardt least squares (More, Lecture Notes in
Math. 630, 1978) from a log-parabola start.
"""

import csv
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .fitting import _lockstep_lm

FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))


class SpectrumFitError(ValueError):
    """The spectrum cannot support a Gaussian fit."""


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


def fit_gaussian(
    samples: Sequence[Tuple[float, float]]
) -> Tuple[SpectrumModel, float]:
    """Least-squares Gaussian fit of (wavelength_nm, counts) samples.

    Returns the fitted model and the residual norm.  The linearized
    initial guess is refined by Levenberg-Marquardt over (center,
    log sigma, log amplitude).
    """
    data = np.asarray(samples, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise SpectrumFitError("samples must be (wavelength_nm, counts) pairs")
    if not np.isfinite(data).all():
        raise SpectrumFitError("samples must be finite")
    wl, counts = data[:, 0], data[:, 1]
    if np.unique(wl).size < 4:
        raise SpectrumFitError("need at least 4 distinct wavelengths")
    if np.any(counts < 0.0):
        raise SpectrumFitError("counts must be >= 0")
    if np.allclose(counts, counts[0]):
        raise SpectrumFitError("constant counts; nothing to fit")

    center0, sigma0, amp0 = _initial_guess(wl, counts)

    def batch(xs: np.ndarray, _starts: np.ndarray) -> np.ndarray:
        center, log_sigma, log_amp = xs.T[..., None]
        sigma = np.exp(log_sigma)
        model = np.exp(log_amp) * np.exp(-((wl - center) ** 2) / (2.0 * sigma * sigma))
        return model - counts

    x0 = np.array([center0, math.log(sigma0), math.log(max(amp0, 1e-300))])
    unbounded = np.full(3, np.inf)
    x, _, cost, *_ = _lockstep_lm(batch, x0[None], -unbounded, unbounded)
    center, log_sigma, log_amp = x[0]
    model = SpectrumModel(
        center_nm=float(center),
        fwhm_nm=float(math.exp(log_sigma) / FWHM_TO_SIGMA),
        amplitude=float(math.exp(log_amp)),
    )
    return model, math.sqrt(2.0 * cost[0])


def load_spectrum_csv(path) -> List[Tuple[float, float]]:
    """Read the (wavelength_nm, counts) rows of a spectrum CSV; a missing
    column, an unparsable or non-finite value or a negative count raises
    SpectrumFitError naming the file and line."""
    samples = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SpectrumFitError(f"{path}: empty file (line 1)")
        required = ("wavelength_nm", "counts")
        missing = [c for c in required if c not in reader.fieldnames]
        if missing:
            raise SpectrumFitError(f"{path}: missing columns {missing} (line 1)")
        for row in reader:
            try:
                wavelength, counts = float(row["wavelength_nm"]), float(row["counts"])
            except (TypeError, ValueError) as exc:
                raise SpectrumFitError(f"{path}: line {reader.line_num}: {exc}") from exc
            if not (math.isfinite(wavelength) and math.isfinite(counts) and counts >= 0.0):
                raise SpectrumFitError(
                    f"{path}: line {reader.line_num}: values must be finite and "
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
