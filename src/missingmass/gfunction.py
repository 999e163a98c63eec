"""Positive functions g of letter probabilities.

The quantity under study is the missing mass of g: the sum of g(p_x) over
letters x that never occur in the sample.  Two kinds are supported:

* ``power(alpha)``      -- g(p) = p**alpha, 0 < alpha <= 1e300; alpha = 1 is the classical
  missing mass, integer alpha >= 1 the order-alpha missing mass.
* ``entropy_log2(k)``   -- g(p) = p*log2(1/p), declared on p >= 1/k so that
  g(p)/p stays bounded; the missing Shannon entropy.

ustar_engine.scale_parameter maps each kind to its type in the paper: power
is Type A with mu = alpha, entropy Type B with p_star = 1/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, require_int, require_real, require_real_array

# Slack applied to inclusive domain edges so that probabilities assembled by
# floating-point normalization (e.g. 1/64 computed two ways) are not rejected.
_EDGE_SLACK = 1e-12

POWER = "power"
ENTROPY_LOG2 = "entropy_log2"


@dataclass(frozen=True)
class GFunction:
    kind: str
    alpha: float = 0.0
    k_floor: int = 0

    @property
    def domain_min(self) -> float:
        """Lower edge of the declared domain (exclusive for power)."""
        if self.kind == ENTROPY_LOG2:
            return 1.0 / self.k_floor
        return 0.0

    def eval(self, p):
        """g(p) with the declared domain enforced.

        Accepts scalars or arrays; raises InvalidInputError on any entry
        outside (0, 1], or below 1/k_floor for the entropy kind.
        """
        arr = require_real_array("p", p)
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

        The scale-parameter case formulas evaluate g at probe points that may
        fall below 1/k_floor; the floor is a property of the distributions
        the bounds cover, not of the formula.
        """
        arr = require_real_array("p", p)
        out = self._raw(arr)
        return float(out) if np.isscalar(p) or arr.ndim == 0 else out

    def _raw(self, arr: np.ndarray) -> np.ndarray:
        if self.kind == POWER:
            return arr**self.alpha
        # 0.0 + x normalizes -0.0 (from p=1) to +0.0.
        return 0.0 + arr * (-np.log2(arr))

    def descriptor(self) -> str:
        """power:ALPHA or entropy:K; parse reads it back to this g."""
        if self.kind == POWER:
            return format_descriptor("power", self.alpha)
        return format_descriptor("entropy", self.k_floor)


def format_descriptor(name: str, *params) -> str:
    """NAME:P1:...:Pm, each parameter exact and shortest: an int, or an
    integral float below 2**53, as an integer, any other float by repr."""
    fields = [repr(p) if isinstance(p, float) and not (p.is_integer() and abs(p) < 2**53)
              else str(int(p)) for p in params]
    return ":".join([name, *fields])


def parse_descriptor(text: str, grammar: dict, expected: str):
    """factory(cast_1(P1), ..., cast_m(Pm)) for NAME:P1:...:Pm, where
    grammar[NAME] = (factory, (cast_1, ..., cast_m)) and Pm takes the rest of
    the text.  InvalidInputError names the expected forms where NAME is
    unknown, a field is missing or empty, or a cast fails."""
    name, _, rest = text.partition(":")
    factory, casts = grammar.get(name, (None, ()))
    fields = rest.split(":", len(casts) - 1)
    try:
        params = [cast(f) for cast, f in zip(casts, fields, strict=True)]
    except ValueError:
        factory = None
    if factory is None or "" in fields:
        raise InvalidInputError(f"bad descriptor {text!r}; expected {expected}")
    return factory(*params)


def power(alpha: float) -> GFunction:
    """g(p) = p**alpha for 0 < alpha <= 1e300.  log gamma_alpha overflows
    near alpha = 2e305, where the closed-form tails would take inf - inf."""
    alpha = require_real("alpha", alpha)
    if not 0.0 < alpha <= 1e300:
        raise InvalidInputError("power kind requires 0 < alpha <= 1e300")
    return GFunction(kind=POWER, alpha=alpha)


def entropy_log2(k_floor: int) -> GFunction:
    """g(p) = p*log2(1/p), declared on p >= 1/k_floor.  k_floor is at most
    2**1022, where 1/k_floor stops being a normal double."""
    return GFunction(kind=ENTROPY_LOG2, k_floor=require_int("k_floor", k_floor, 2, 2.0**1022))


_GRAMMAR = {"power": (power, (float,)), "entropy": (entropy_log2, (int,))}


def parse(text: str) -> GFunction:
    """The g a descriptor names: power:ALPHA or entropy:K."""
    return parse_descriptor(text, _GRAMMAR, "power:ALPHA or entropy:K")


def ratio_sup(g: GFunction) -> float:
    """sup over the declared domain of g(p)/p.

    power(alpha >= 1) -> 1 (ratio p**(alpha-1) peaks at p=1);
    entropy_log2(k)   -> log2(k) (ratio log2(1/p) peaks at the floor).
    """
    if g.kind == POWER:
        if g.alpha < 1.0:
            raise InvalidInputError("g(p)/p is unbounded near 0 for power alpha < 1")
        return 1.0
    return math.log2(g.k_floor)
