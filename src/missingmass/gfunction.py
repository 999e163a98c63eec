"""Positive functions g of letter probabilities and their type classification.

The quantity under study is the missing mass of g: the sum of g(p_x) over
letters x that never occur in the sample.  Three kinds are supported:

* ``power(alpha)``      -- g(p) = p**alpha, alpha > 0; alpha = 1 is the classical
  missing mass, integer alpha >= 1 the order-alpha missing mass.
* ``entropy_log2(k)``   -- g(p) = p*log2(1/p), declared on p >= 1/k so that
  g(p)/p stays bounded; the missing Shannon entropy.
* ``user_defined(...)`` -- caller supplies g, optionally with its type class
  and the sup of g(p)/p.

Classification into Type A / Type B drives the scale-parameter selection in
the concentration machinery: Type A requires 0 < g'(p) <= mu*g(p)/p, Type B
requires g increasing below p_star and decreasing above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import InvalidInputError

# Slack applied to inclusive domain edges so that probabilities assembled by
# floating-point normalization (e.g. 1/64 computed two ways) are not rejected.
_EDGE_SLACK = 1e-12


@dataclass(frozen=True)
class TypeA:
    """g with 0 < g'(p) <= mu*g(p)/p on (0,1)."""

    mu: float


@dataclass(frozen=True)
class TypeB:
    """g increasing on (0, p_star), decreasing on (p_star, 1)."""

    p_star: float


@dataclass(frozen=True)
class Unclassified:
    pass


TypeClass = Union[TypeA, TypeB, Unclassified]

POWER = "power"
ENTROPY_LOG2 = "entropy_log2"
USER = "user"


@dataclass(frozen=True)
class GFunction:
    kind: str
    alpha: float = 0.0
    k_floor: int = 0
    eval_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    type_class: Optional[TypeClass] = None
    ratio_bound: Optional[float] = None

    @property
    def domain_min(self) -> float:
        """Lower edge of the declared domain (exclusive for power/user)."""
        if self.kind == ENTROPY_LOG2:
            return 1.0 / self.k_floor
        return 0.0

    def eval(self, p):
        """g(p) with the declared domain enforced.

        Accepts scalars or arrays; raises InvalidInputError on any entry
        outside (0, 1], or below 1/k_floor for the entropy kind.
        """
        arr = np.asarray(p, dtype=float)
        if np.any(arr <= 0.0) or np.any(arr > 1.0 + _EDGE_SLACK):
            raise InvalidInputError("g is declared on p in (0, 1]")
        if self.kind == ENTROPY_LOG2 and np.any(arr < self.domain_min - _EDGE_SLACK):
            raise InvalidInputError(
                f"entropy_log2(k={self.k_floor}) is declared on p >= 1/k = "
                f"{self.domain_min:.6g}; got p down to {arr.min():.6g}"
            )
        out = self._raw(np.minimum(arr, 1.0))
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out

    def eval_raw(self, p):
        """The bare formula on (0,1), ignoring the entropy k-floor.

        The maximization engine and the scale-parameter case formulas evaluate
        g at probe points that may fall below 1/k_floor; the floor is a
        property of the distributions the bounds cover, not of the formula.
        """
        arr = np.asarray(p, dtype=float)
        out = self._raw(arr)
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out

    def _raw(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == POWER:
            return arr**self.alpha
        if self.kind == ENTROPY_LOG2:
            # 0.0 + x normalizes -0.0 (from p=1) to +0.0.
            return 0.0 + arr * (-np.log2(arr))
        return np.asarray(self.eval_fn(arr), dtype=float)

    def descriptor(self) -> str:
        if self.kind == POWER:
            a = self.alpha
            return f"power:{int(a)}" if float(a).is_integer() else f"power:{a:g}"
        if self.kind == ENTROPY_LOG2:
            return f"entropy:{self.k_floor}"
        return "user"


def power(alpha: float) -> GFunction:
    """g(p) = p**alpha for alpha > 0."""
    if not (alpha > 0.0) or not math.isfinite(alpha):
        raise InvalidInputError("power kind requires alpha > 0")
    return GFunction(kind=POWER, alpha=float(alpha))


def entropy_log2(k_floor: int) -> GFunction:
    """g(p) = p*log2(1/p), declared on p >= 1/k_floor."""
    if int(k_floor) != k_floor or k_floor < 2:
        raise InvalidInputError("entropy_log2 requires an integer k_floor >= 2")
    return GFunction(kind=ENTROPY_LOG2, k_floor=int(k_floor))


def user_defined(
    eval_fn: Callable,
    type_class: Optional[TypeClass] = None,
    ratio_bound: Optional[float] = None,
) -> GFunction:
    """g supplied by the caller; optionally with its class and sup of g(p)/p."""
    return GFunction(
        kind=USER,
        eval_fn=eval_fn,
        type_class=type_class,
        ratio_bound=ratio_bound,
    )


def classify(g: GFunction) -> TypeClass:
    """Type A with mu=alpha for powers; Type B with p_star=1/e for entropy."""
    if g.kind == POWER:
        return TypeA(mu=g.alpha)
    if g.kind == ENTROPY_LOG2:
        return TypeB(p_star=1.0 / math.e)
    return g.type_class if g.type_class is not None else Unclassified()


def ratio_sup(g: GFunction) -> float:
    """sup over the declared domain of g(p)/p.

    power(alpha >= 1) -> 1 (ratio p**(alpha-1) peaks at p=1);
    entropy_log2(k)   -> log2(k) (ratio log2(1/p) peaks at the floor).
    """
    if g.kind == POWER:
        if g.alpha < 1.0:
            raise InvalidInputError(
                "g(p)/p is unbounded near 0 for power alpha < 1"
            )
        return 1.0
    if g.kind == ENTROPY_LOG2:
        return math.log2(g.k_floor)
    if g.ratio_bound is not None:
        return float(g.ratio_bound)
    raise InvalidInputError("no ratio bound available for user-defined g")
