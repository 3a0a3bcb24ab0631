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
from typing import NamedTuple, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .report import RateReport

# Reference single-pair generation probability used to calibrate the
# pump-power -> squeezing coupling constant.
P_PAIR_REFERENCE = 0.1

# Slack allowed before a negative probability is treated as a formula
# transcription bug rather than round-off.
NEGATIVE_TOL = 1e-12


class FormulaError(ArithmeticError):
    """A closed form evaluated to an impossible (negative) probability."""


@dataclass(frozen=True)
class SqueezingPoint:
    """Squeezing amplitude xi with its pump-power provenance.

    When power and coupling are both given, xi = tanh(c * sqrt(P)) must
    hold to 1e-12.
    """

    xi: float
    power_mw: Optional[float] = None
    coupling_c: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.xi < 1.0:
            raise ValueError(f"xi must be in [0, 1), got {self.xi}")
        if self.power_mw is not None and self.coupling_c is not None:
            expected = math.tanh(self.coupling_c * math.sqrt(self.power_mw))
            if abs(expected - self.xi) > 1e-12:
                raise ValueError(
                    "inconsistent squeezing point: "
                    f"tanh(c*sqrt(P)) = {expected} but xi = {self.xi}"
                )


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


@dataclass(frozen=True)
class EmissionProbs:
    """Per-pulse trigger and heralded-emission probabilities."""

    p_trig_idler: float
    p_single_signal: float
    p_multi_signal: float
    p_trig_signal: float

    def __post_init__(self):
        for name in (
            "p_trig_idler",
            "p_single_signal",
            "p_multi_signal",
            "p_trig_signal",
        ):
            v = getattr(self, name)
            if not -NEGATIVE_TOL <= v <= 1.0 + NEGATIVE_TOL:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        if self.p_single_signal + self.p_multi_signal > 1.0 + NEGATIVE_TOL:
            raise ValueError("p_single + p_multi exceeds 1")


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


def squeezing_from_power(c: float, p_mw: float) -> SqueezingPoint:
    """Squeezing amplitude xi = tanh(c * sqrt(P)) for pump power P in mW."""
    if c <= 0.0:
        raise ValueError(f"coupling constant must be > 0, got {c}")
    return SqueezingPoint(
        xi=float(xi_from_power(c, p_mw)), power_mw=p_mw, coupling_c=c
    )


def xi_from_power(c: ArrayLike, p_mw: ArrayLike) -> np.ndarray:
    """Squeezing amplitude xi = tanh(c * sqrt(P)), broadcast over arrays of
    c and of pump power P in mW."""
    if np.count_nonzero(p_mw < 0.0):
        raise ValueError(f"power must be >= 0, got {p_mw}")
    arg = c * np.sqrt(p_mw)
    # math.tanh rather than np.tanh, which differs from it in the last bit
    # for about a third of the arguments: the simulator draws with these xi.
    return np.array([math.tanh(v) for v in arg.flat]).reshape(arg.shape)


def _check_domain(xi: ArrayLike, *etas: ArrayLike) -> None:
    if np.count_nonzero((0.0 <= xi) & (xi < 1.0)) < np.size(xi):
        raise ValueError(f"xi must be in [0, 1), got {xi}")
    for eta in etas:
        if np.count_nonzero((0.0 <= eta) & (eta <= 1.0)) < np.size(eta):
            raise ValueError(f"transmission must be in [0, 1], got {eta}")


# Each closed form below takes floats or arrays that broadcast together.  The
# public functions check their domain; _click and _heralded_forms hold the
# formulas, for callers that have checked already.

def p_trig_idler(xi: ArrayLike, eta_i: ArrayLike) -> ArrayLike:
    """Probability that the idler (herald) arm clicks in one pulse."""
    _check_domain(xi, eta_i)
    return _click(xi * xi, eta_i)


def _click(s, eta):
    return s * eta / (1.0 - s * (1.0 - eta))


def p_trig_signal(xi: ArrayLike, eta_s: ArrayLike) -> ArrayLike:
    """Unconditional signal-arm click probability (same form as the idler)."""
    return p_trig_idler(xi, eta_s)


def p_single_signal(xi: ArrayLike, eta_i: ArrayLike, eta_s: ArrayLike) -> ArrayLike:
    """P(exactly one signal photon is delivered | herald clicked)."""
    _check_domain(xi, eta_i, eta_s)
    return _heralded_forms(xi * xi, eta_i, eta_s).p_single


def p_both_click(xi: ArrayLike, eta_i: ArrayLike, eta_s: ArrayLike) -> ArrayLike:
    """Joint probability that idler and signal arms both click in one pulse."""
    _check_domain(xi, eta_i, eta_s)
    return _heralded_forms(xi * xi, eta_i, eta_s).p_both


def p_multi_signal(xi: ArrayLike, eta_i: ArrayLike, eta_s: ArrayLike) -> ArrayLike:
    """P(two or more signal photons are delivered | herald clicked)."""
    _check_domain(xi, eta_i, eta_s)
    return _heralded_forms(xi * xi, eta_i, eta_s).p_multi


def p_signal_given_no_pair_trigger(
    xi: ArrayLike, eta_i: ArrayLike, eta_s: ArrayLike
) -> Tuple[ArrayLike, ArrayLike]:
    """(p_single, p_multi) on the signal arm given the herald did NOT click."""
    _check_domain(xi, eta_i, eta_s)
    forms = _heralded_forms(xi * xi, eta_i, eta_s)
    return forms.p_single_nt, forms.p_multi_nt


class _HeraldedForms(NamedTuple):
    p_trig: ArrayLike  # p_trig_idler
    p_single: ArrayLike
    p_both: ArrayLike
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
    p_both = p_trig * total
    p_multi = _clamp_probability(
        np.where(s == 0.0, 0.0, total - p_single), "p_multi_signal"
    )

    p_single_nt = one_sa * eta_s * a * s / one_sab_2
    total_nt = one_sa * s * (a / one_sa - ab_one_sab)
    p_multi_nt = _clamp_probability(
        total_nt - p_single_nt, "p_multi given no trigger"
    )
    return _HeraldedForms(p_trig, p_single, p_both, p_multi, p_single_nt, p_multi_nt)


def _clamp_probability(value: ArrayLike, what: str) -> ArrayLike:
    if np.count_nonzero(value < -NEGATIVE_TOL):
        raise FormulaError(f"{what} evaluated to {value} < 0")
    return np.maximum(value, 0.0)


def emission_probs(xi: float, eta_i: float, eta_s: float) -> EmissionProbs:
    """Bundle the four per-pulse probabilities for one source."""
    return EmissionProbs(
        p_trig_idler=p_trig_idler(xi, eta_i),
        p_single_signal=p_single_signal(xi, eta_i, eta_s),
        p_multi_signal=p_multi_signal(xi, eta_i, eta_s),
        p_trig_signal=p_trig_signal(xi, eta_s),
    )


def pass2_trigger_split(
    xi: ArrayLike, eta_i: ArrayLike, f: ArrayLike
) -> Tuple[ArrayLike, ArrayLike, ArrayLike]:
    """(p_correct, p_incorrect, p_total) herald probabilities with
    back-reflection fraction f.

    The "correct" branch collapses algebraically to the true trigger
    probability; the "incorrect" branch is an unpaired back-reflection
    click with no true pair click.
    """
    return _split_trigger(p_trig_idler(xi, eta_i), f)


def _split_trigger(p_true, f):
    if np.count_nonzero(f < 0.0):
        raise ValueError(f"back-reflection fraction must be >= 0, got {f}")
    p_back = f * p_true
    if np.count_nonzero(p_back > 1.0):
        raise ValueError(
            f"f * p_trig = {p_back} exceeds 1; not a valid probability"
        )
    p_correct = p_true
    p_incorrect = p_back * (1.0 - p_true)
    return p_correct, p_incorrect, p_correct + p_incorrect


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
    first branch remains.
    """
    _check_domain(xi, eta_i, eta_s)
    s = xi * xi
    forms = _heralded_forms(s, eta_i, eta_s)
    p_correct, p_incorrect, p_trig = _split_trigger(forms.p_trig, f)
    single, multi = forms.p_single, forms.p_multi
    single_nt, multi_nt = forms.p_single_nt, forms.p_multi_nt
    return SourceProbs(
        p_trig=p_trig,
        p_c=p_correct * (single + multi) + p_incorrect * (single_nt + multi_nt),
        p_a=p_trig * _click(s, eta_s),
        p_single=p_correct * single + p_incorrect * single_nt,
        p_multi=p_correct * multi + p_incorrect * multi_nt,
    )


def back_reflection_from_contamination(
    contamination: float, p_true: float
) -> float:
    """Fraction f that produces the given share of unpaired herald counts.

    ``contamination`` is p_incorrect / p_total of the idler counts.
    """
    if not 0.0 <= contamination < 1.0:
        raise ValueError("contamination must be in [0, 1)")
    if not 0.0 < p_true < 1.0:
        raise ValueError("p_true must be in (0, 1)")
    # contamination = f(1-p) / (1 + f(1-p))  =>  f(1-p) = c / (1-c)
    return contamination / ((1.0 - contamination) * (1.0 - p_true))


def rates(
    source: SourceParams, p_mw: float, rep_rate_hz: float
) -> RateReport:
    """Trigger, coincidence and accidental rates of one source at power p_mw."""
    if rep_rate_hz <= 0.0:
        raise ValueError(f"rep_rate_hz must be > 0, got {rep_rate_hz}")
    c = calibrate_coupling(source.p_seed_mw)
    xi = squeezing_from_power(c, p_mw).xi
    p = source_probs(
        xi, source.eta_i, source.eta_s, source.back_reflection_fraction
    )
    r_c = rep_rate_hz * p.p_c
    r_a = rep_rate_hz * p.p_a
    return RateReport(
        r_trig_hz=rep_rate_hz * p.p_trig,
        r_coincidence_hz=r_c,
        r_accidental_hz=r_a,
        car=(r_c / r_a) if r_a > 0.0 else None,
    )
