"""Closed-form per-pulse statistics of one heralded single-photon source.

All detectors are threshold (click / no-click).  The photon-pair number in
one pump pulse follows P(n) = (1 - xi^2) * xi^(2n); losses on the idler and
signal arms are independent binomial thinnings with transmissions eta_i and
eta_s.  The "second pass" variant adds unpaired herald clicks from
back-reflected photons, parameterized by a fraction f of the true
triggering probability.

Every closed form broadcasts over numpy arrays of xi, the transmissions and
f.  ``source_probs`` is the one place that combines the herald split with
the heralded signal statistics; every rate model reads its five columns.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import ArrayLike

# Reference single-pair generation probability used to calibrate the
# pump-power -> squeezing coupling constant.
P_PAIR_REFERENCE = 0.1

# Slack allowed before a negative probability is treated as a formula
# transcription bug rather than round-off.
NEGATIVE_TOL = 1e-12


class FormulaError(ArithmeticError):
    """A closed form evaluated to an impossible (negative) probability."""


@dataclass(frozen=True)
class SourceParams:
    """Loss budget and power calibration of one effective source."""

    eta_i: float
    eta_s: float
    p_seed_mw: float
    back_reflection_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta_i <= 1.0:
            raise ValueError(f"eta_i must be in [0, 1], got {self.eta_i}")
        if not 0.0 <= self.eta_s <= 1.0:
            raise ValueError(f"eta_s must be in [0, 1], got {self.eta_s}")
        if self.p_seed_mw <= 0.0:
            raise ValueError(f"p_seed_mw must be > 0, got {self.p_seed_mw}")
        if self.back_reflection_fraction < 0.0:
            raise ValueError("back_reflection_fraction must be >= 0")


def seed_squeezing() -> float:
    """Squeezing amplitude at which the single-pair probability is 0.1.

    Root of (1 - xi^2) * xi^2 = 0.1 on (0, 1/sqrt(2)): the smaller root of
    the quadratic in xi^2, written as xi^2 = 2 p / (1 + sqrt(1 - 4 p)) so
    that no difference of close terms loses digits.
    """
    p = P_PAIR_REFERENCE
    return math.sqrt(2.0 * p / (1.0 + math.sqrt(1.0 - 4.0 * p)))


def calibrate_coupling(p_seed_mw: ArrayLike) -> ArrayLike:
    """Coupling constant c (mW^-1/2) such that xi(p_seed_mw) = xi_seed,
    broadcast over an array of p_seed_mw."""
    if np.count_nonzero(p_seed_mw <= 0.0):
        raise ValueError(f"p_seed_mw must be > 0, got {p_seed_mw}")
    return math.atanh(seed_squeezing()) / np.sqrt(p_seed_mw)


def xi_from_power(c: ArrayLike, p_mw: ArrayLike) -> np.ndarray:
    """Squeezing amplitude xi = tanh(c * sqrt(P)), broadcast over arrays of
    c and of pump power P in mW."""
    if np.count_nonzero(p_mw < 0.0):
        raise ValueError(f"power must be >= 0, got {p_mw}")
    arg = c * np.sqrt(p_mw)
    # math.tanh rather than np.tanh, which differs from it in the last bit
    # for about a third of the arguments: the simulator draws with these xi.
    tanh = np.fromiter(map(math.tanh, arg.ravel().tolist()), float, arg.size)
    return tanh.reshape(arg.shape)


def _check_domain(xi: ArrayLike, *etas: ArrayLike) -> None:
    if np.count_nonzero((0.0 <= xi) & (xi < 1.0)) < np.size(xi):
        raise ValueError(f"xi must be in [0, 1), got {xi}")
    for eta in etas:
        if np.count_nonzero((0.0 <= eta) & (eta <= 1.0)) < np.size(eta):
            raise ValueError(f"transmission must be in [0, 1], got {eta}")


# Each closed form below takes floats or arrays that broadcast together.
# p_trig_idler and source_probs check their domain; _click and
# _heralded_forms hold the formulas and check nothing.

def p_trig_idler(xi: ArrayLike, eta_i: ArrayLike) -> ArrayLike:
    """Probability that the idler (herald) arm clicks in one pulse."""
    _check_domain(xi, eta_i)
    return _click(xi * xi, eta_i)


def _click(s, eta):
    return s * eta / (1.0 - s * (1.0 - eta))


class _HeraldedForms(NamedTuple):
    p_trig: ArrayLike  # p_trig_idler
    p_single: ArrayLike
    p_multi: ArrayLike
    p_single_nt: ArrayLike
    p_multi_nt: ArrayLike


def _heralded_forms(s, eta_i, eta_s) -> _HeraldedForms:
    """The signal-arm closed forms at s = xi^2.

    With a = 1 - eta_i and b = 1 - eta_s they share the factors 1 - s,
    1 - s a, 1 - s b and 1 - s a b (and their squares, and a b / (1 - s a b)),
    which are computed once.
    """
    a = 1.0 - eta_i
    b = 1.0 - eta_s
    sa = s * a
    one_s = 1.0 - s
    one_sa = 1.0 - sa
    one_sb = 1.0 - s * b
    one_sab = 1.0 - sa * b
    one_sb_2 = one_sb ** 2
    one_sab_2 = one_sab ** 2
    ab_one_sab = a * b / one_sab
    p_trig = _click(s, eta_i)

    num = (1.0 - s * s * b * b * a) * one_sa
    den = one_sb_2 * one_sab_2
    p_single = one_s * eta_s * num / den

    # P(signal click | herald click) as a product of positive factors: no
    # division by p_trig, so it holds down to eta_i = 0 and keeps full
    # precision however small eta_i or eta_s are.
    total = eta_s * (1.0 - s * sa * b) / (one_sb * one_sab)
    p_multi = _clamp_probability(
        np.where(s == 0.0, 0.0, total - p_single), "p_multi given a trigger"
    )

    p_single_nt = one_sa * eta_s * a * s / one_sab_2
    total_nt = one_sa * s * (a / one_sa - ab_one_sab)
    p_multi_nt = _clamp_probability(
        total_nt - p_single_nt, "p_multi given no trigger"
    )
    return _HeraldedForms(p_trig, p_single, p_multi, p_single_nt, p_multi_nt)


def _clamp_probability(value: ArrayLike, what: str) -> ArrayLike:
    if np.count_nonzero(value < -NEGATIVE_TOL):
        raise FormulaError(f"{what} evaluated to {value} < 0")
    return np.maximum(value, 0.0)


class SourceProbs(NamedTuple):
    """Herald, coincidence and accidental probabilities, and the joint
    probabilities of a herald with one or with several signal photons
    delivered.  Per pulse for one source, per clock cycle for a MUX; each
    field is a float or an array, all of one shape."""

    p_trig: ArrayLike
    p_c: ArrayLike
    p_a: ArrayLike
    p_single: ArrayLike
    p_multi: ArrayLike

    def take(self, index) -> "SourceProbs":
        """The same probabilities at `index` of the last (bin) axis."""
        return SourceProbs(*(x[..., index] for x in self))


def source_probs(
    xi: ArrayLike, eta_i: ArrayLike, eta_s: ArrayLike, f: ArrayLike
) -> SourceProbs:
    """Per-pulse probabilities of one source with back-reflection fraction f,
    broadcast over arrays of (xi, eta_i, eta_s, f).

    A herald is either a true idler click, followed by the heralded signal
    statistics, or an unpaired back-reflection click with no idler click,
    followed by the signal statistics given no trigger; with f = 0 only the
    first branch remains.  A back-reflection clicks with probability f times
    the true trigger probability p, so the branches weigh p and f p (1 - p).
    """
    _check_domain(xi, eta_i, eta_s)
    s = xi * xi
    forms = _heralded_forms(s, eta_i, eta_s)
    if np.count_nonzero(f < 0.0):
        raise ValueError(f"back-reflection fraction must be >= 0, got {f}")
    p_correct = forms.p_trig
    p_back = f * p_correct
    if np.count_nonzero(p_back > 1.0):
        raise ValueError(
            f"f * p_trig reaches {np.max(p_back)} > 1; not a valid probability"
        )
    p_incorrect = p_back * (1.0 - p_correct)
    p_trig = p_correct + p_incorrect
    single, multi = forms.p_single, forms.p_multi
    single_nt, multi_nt = forms.p_single_nt, forms.p_multi_nt
    return SourceProbs(
        p_trig=p_trig,
        p_c=p_correct * (single + multi) + p_incorrect * (single_nt + multi_nt),
        p_a=p_trig * _click(s, eta_s),
        p_single=p_correct * single + p_incorrect * single_nt,
        p_multi=p_correct * multi + p_incorrect * multi_nt,
    )
