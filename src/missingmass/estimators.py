"""Estimators for the order-alpha missing mass and the Good-Turing bias bound.

The generalized Good-Turing estimator is phi_alpha / C(n, alpha): the fraction
of alpha-tuples that are copies of a letter seen exactly alpha times.  For
alpha = 1 it is the classical phi_1 / n.  The plugin estimator reports 0.
Estimates are reported raw (not clamped); clamping is a CLI option so that
risk experiments measure the estimator as defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .empirical import SampleProfile
from .errors import InvalidInputError, RegimeError

GOOD_TURING = "good_turing"
GENERALIZED = "generalized"
PLUGIN = "plugin"


@dataclass(frozen=True)
class EstimatorKind:
    variant: str
    alpha: int = 1

    def descriptor(self) -> str:
        if self.variant == GENERALIZED:
            return f"generalized:{self.alpha}"
        return self.variant


def good_turing() -> EstimatorKind:
    return EstimatorKind(GOOD_TURING, alpha=1)


def generalized_good_turing(alpha: int) -> EstimatorKind:
    """Integer alpha >= 1; non-integer orders have no estimator here (plugin only)."""
    if int(alpha) != alpha:
        raise InvalidInputError(
            "generalized Good-Turing supports integer alpha only"
        )
    if alpha < 1:
        raise InvalidInputError("alpha must be >= 1")
    return EstimatorKind(GENERALIZED, alpha=int(alpha))


def plugin() -> EstimatorKind:
    return EstimatorKind(PLUGIN)


def choose_float(n: int, alpha: int) -> float:
    """C(n, alpha) as a float via products of ratios (n-alpha+i)/i.

    Avoids factorials so n up to 1e9 stays finite in double precision.
    """
    out = 1.0
    for i in range(1, alpha + 1):
        out *= (n - alpha + i) / i
    return out


def gt_value(phi_alpha: int, n: int, alpha: int) -> float:
    """phi_alpha / C(n, alpha); requires n >= alpha >= 1."""
    if n < alpha:
        raise RegimeError(f"insufficient sample: n = {n} < alpha = {alpha}")
    return phi_alpha / choose_float(n, alpha)


def estimate(kind: EstimatorKind, profile: SampleProfile) -> float:
    """Dispatch on kind; a phi_l absent from the profile means phi_l = 0."""
    if kind.variant == PLUGIN:
        return 0.0
    if kind.variant not in (GOOD_TURING, GENERALIZED):
        raise InvalidInputError(f"unknown estimator {kind.variant!r}")
    alpha = 1 if kind.variant == GOOD_TURING else kind.alpha
    return gt_value(profile.phi.get(alpha, 0), profile.n, alpha)


def gt_bias_bound(n: int, alpha: int) -> float:
    """alpha**(alpha+1) / n**alpha, valid for n > 2*alpha (in log space
    where the direct powers overflow).

    Bounds the bias of the generalized Good-Turing estimator from above; the
    signed bias is >= 0.
    """
    if int(alpha) != alpha or alpha < 1:
        raise InvalidInputError("alpha must be an integer >= 1")
    if n <= 2 * alpha:
        raise RegimeError(f"bias bound needs n > 2*alpha; got n = {n}, alpha = {alpha}")
    try:
        return float(alpha) ** (alpha + 1) / float(n) ** alpha
    except OverflowError:
        # Large alpha: the powers overflow although their ratio is tiny.
        return math.exp((alpha + 1) * math.log(alpha) - alpha * math.log(n))
