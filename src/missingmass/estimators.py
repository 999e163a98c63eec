"""Estimators for the order-alpha missing mass and the Good-Turing bias bound.

The generalized Good-Turing estimator of order alpha, phi_alpha / C(n, alpha),
is the fraction of alpha-tuples that are copies of a letter seen exactly alpha
times; it reads only the profile (n, phi).  Order 1 is the classical phi_1 / n
and order 0 the plugin estimate 0 (a profile stores no phi_0).  Estimates are
reported raw (not clamped); clamping is a CLI option so that risk experiments
measure the estimator as defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .empirical import SampleProfile
from .errors import InvalidInputError, RegimeError


@dataclass(frozen=True)
class EstimatorKind:
    """The order-alpha estimator, alpha an integer >= 0."""

    alpha: int

    def __post_init__(self):
        if int(self.alpha) != self.alpha or self.alpha < 0:
            raise InvalidInputError("estimator order alpha must be an integer >= 0")
        object.__setattr__(self, "alpha", int(self.alpha))

    def descriptor(self) -> str:
        if self.alpha == 0:
            return "plugin"
        if self.alpha == 1:
            return "good_turing"
        return f"generalized:{self.alpha}"


def good_turing() -> EstimatorKind:
    return EstimatorKind(1)


def generalized_good_turing(alpha: int) -> EstimatorKind:
    """Order alpha >= 1; order 1 is good_turing() and order 0 is plugin()."""
    if alpha < 1:
        raise InvalidInputError("alpha must be >= 1")
    return EstimatorKind(alpha)


def plugin() -> EstimatorKind:
    return EstimatorKind(0)


def choose_float(n: int, alpha: int) -> float:
    """C(n, alpha) as a float via products of ratios (n-alpha+i)/i.

    Avoids factorials so n up to 1e9 stays finite in double precision.
    """
    out = 1.0
    for i in range(1, alpha + 1):
        out *= (n - alpha + i) / i
    return out


def gt_value(phi_alpha, n: int, alpha: int):
    """phi_alpha / C(n, alpha) for a count or an array of counts; needs n >= alpha."""
    if n < alpha:
        raise RegimeError(f"insufficient sample: n = {n} < alpha = {alpha}")
    return phi_alpha / choose_float(n, alpha)


def estimate(kind: EstimatorKind, profile: SampleProfile) -> float:
    """phi_alpha / C(n, alpha); a phi_l absent from the profile means
    phi_l = 0, so order 0 gives 0."""
    return gt_value(profile.phi.get(kind.alpha, 0), profile.n, kind.alpha)


def gt_bias_bound(n: int, alpha: int) -> float:
    """alpha**(alpha+1) / n**alpha, valid for n > 2*alpha, taken as
    alpha (alpha/n)**alpha, which cannot overflow since alpha/n < 1/2.

    Bounds the bias of the generalized Good-Turing estimator from above; the
    signed bias is >= 0.
    """
    if int(alpha) != alpha or alpha < 1:
        raise InvalidInputError("alpha must be an integer >= 1")
    if n <= 2 * alpha:
        raise RegimeError(f"bias bound needs n > 2*alpha; got n = {n}, alpha = {alpha}")
    return alpha * (alpha / n) ** alpha
