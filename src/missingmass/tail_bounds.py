"""Concentration specs and tail bounds for the centered missing mass.

The one concentration spec is the order-R polynomial filter PolyFiltered,

    f(l) = sum_[r=2..R] a_r l^r / r + (v/c^2) log(e^[-lc]/(1-cl)),

built from exact numeric u*_r values and the scale parameter c.  Order 1
(no filter terms) is the strongly sub-Gamma template.  The sub-Gamma
(f = l^2 v/(2(1-cl))) template of Boucheron, Lugosi & Massart (2013,
section 2.4) is a plain exponent function.  Each yields a right-tail bound
exp(-E(eps)) by the Chernoff method; E is analytic except for R >= 2, whose
Legendre transform is solved numerically.  The closed-form corollary tails
take the g they bound: power(1) (the missing mass), power(alpha > 1) (the
order-alpha one) and entropy_log2(k) (the missing entropy).

Every input taken from u*_r or gamma_alpha is read as its log: v and a_r,
both left tails' variance and the power(alpha > 1) right tail.  So a u*_r
that underflows, or a gamma_alpha or n^(2 alpha - 1) that overflows, still
gives a bound.  Every sub-Gaussian bound exp(-eps^2/(2 sigma2)) -- Theorem 2,
the exact left tail and the closed left tails -- is taken from log sigma2.

Every public bound is clamped to <= 1; the raw exponent is available for
diagnostics (it can go negative, where the bound is 1).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import ustar_engine
from .errors import InvalidInputError, NumericalError, RegimeError
from .gfunction import GFunction, ratio_sup

#: Variance factor of the two-sided sub-Gaussian bound: 2*kappa = 0.51909...
#: rounded up, so that the bound is never below the theorem's.
THEOREM2_VARIANCE_FACTOR = 0.5191

#: Largest filter order R: 170! is the largest factorial a double holds.
_MAX_ORDER = 170

_E = math.e


@dataclass(frozen=True)
class PolyFiltered:
    """Filter coefficients a = (a_2, ..., a_R); R = 1 means an empty filter,
    the strongly sub-Gamma spec (v, c)."""

    R: int
    a: Tuple[float, ...]
    v: float
    c: float

    def __post_init__(self):
        if int(self.R) != self.R or self.R < 1:
            raise InvalidInputError("poly-filtered needs integer R >= 1")
        if len(self.a) != self.R - 1:
            raise InvalidInputError("need exactly R-1 filter coefficients a_2..a_R")
        if any(a_r < 0.0 for a_r in self.a):
            raise InvalidInputError("filter coefficients must be >= 0")
        if not (self.v > 0.0 and self.c > 0.0):
            raise InvalidInputError("poly-filtered needs v > 0 and c > 0")


@dataclass(frozen=True)
class BoundCurve:
    """Clamped bounds and raw Chernoff exponents, one per eps of the grid."""

    bounds: Tuple[float, ...]
    exponents: Tuple[float, ...]


def _clamp(exponent: float) -> float:
    """exp(-exponent), clamped to <= 1; a negative or NaN exponent gives 1."""
    return math.exp(-exponent) if exponent > 0.0 else 1.0


def _gaussian_tail(log_sigma2: float, eps: float) -> float:
    """exp(-eps^2 / (2 sigma2)) from log sigma2, which stays finite where
    sigma2 underflows.  eps = 0 gives 1; an exponent from e^709 on gives 0."""
    if eps < 0.0:
        raise InvalidInputError("eps must be >= 0")
    if eps == 0.0:
        return 1.0
    log_exponent = 2.0 * math.log(eps) - math.log(2.0) - log_sigma2
    return math.exp(-math.exp(min(log_exponent, 709.0)))


def sub_gamma_exponent(v: float, c: float, eps: float) -> float:
    """(v/c^2) h(c*eps/v) with h(x) = 1+x-sqrt(1+2x), in the stable form
    h(x) = x^2/(1+x+sqrt(1+2x)).  Where x^2 overflows (x above about
    1.3e154), h is taken as x/(1+r+sqrt(r(2+r))) with r = 1/x, the same
    quotient divided through by x, since 1+2x too overflows from x = 9e307.
    Where x overflows, the exponent is inf."""
    if not (v > 0.0 and c > 0.0) or eps < 0.0:
        raise InvalidInputError("need v, c > 0 and eps >= 0")
    x = c * eps / v
    if x == math.inf:
        return math.inf
    xx = x * x
    if xx < math.inf:
        h = xx / (1.0 + x + math.sqrt(1.0 + 2.0 * x))
    else:
        r = 1.0 / x
        h = x / (1.0 + r + math.sqrt(r * (2.0 + r)))
    return v / (c * c) * h


def strongly_sub_gamma_exponent(v: float, c: float, eps: float) -> float:
    """(1/c)(eps - (v/c) log(1+c*eps/v)) = (v/c^2)(z - log1p(z)), z = c*eps/v.

    log1p keeps z - log1p(z) accurate down to z ~ 1e-8 and below.  Where z
    overflows, the exponent is inf (bound 0), not inf - inf.
    """
    if not (v > 0.0 and c > 0.0) or eps < 0.0:
        raise InvalidInputError("need v, c > 0 and eps >= 0")
    z = c * eps / v
    if z == math.inf:
        return math.inf
    return v / (c * c) * (z - math.log1p(z))


def _filter_derivs(a: Sequence[float], v: float, c: float, s: float) -> Tuple[float, float]:
    """(f'(l), f''(l)) at l = (1 - s)/c:
    f'(l) = sum_r a_r l^(r-1) + v l/s, f''(l) = sum_r (r-1) a_r l^(r-2) + v/s^2.
    v/s^2 is taken as v/s/s: s^2 underflows where v and s are tiny (high R).
    Zero coefficients are skipped, since l^r may overflow at high R."""
    lam = (1.0 - s) / c
    d1, d2, p = v * lam / s, v / s / s, 1.0
    for r, a_r in enumerate(a, start=2):
        if a_r != 0.0:  # 0 * p is NaN once p overflows
            d1 += a_r * p * lam
            d2 += (r - 1) * a_r * p
        p *= lam
    return d1, d2


def _filter_f(a: Sequence[float], v: float, c: float, s: float) -> float:
    """f(l) = sum_r a_r l^r / r + (v/c^2)(-c l - log(1 - c l)) at the pole
    distance s = 1 - c l, so that log(s) stays exact next to the pole."""
    lam = (1.0 - s) / c
    out = (v / (c * c)) * (-(1.0 - s) - math.log(s))
    p = lam * lam
    for r, a_r in enumerate(a, start=2):
        if a_r != 0.0:
            # l^r can overflow where a_r l^r is small (a_r subnormal, high R).
            term = a_r * p if p != math.inf else math.exp(math.log(a_r) + r * math.log(lam))
            out += term / r
        p *= lam
    return out


def poly_filtered_exponent(spec: PolyFiltered, eps: float) -> float:
    """Chernoff exponent max over l in [0, 1/c) of l*eps - f(l).

    The stationary point solves f'(l) = eps.  It is found in the pole
    distance s = 1 - c l, where F(s) = f'((1 - s)/c) is convex and
    decreasing on (0, 1].  Newton's method started at s0 = v/(v + c eps),
    the root of the Gamma part alone, has F(s0) >= eps, so its steps climb
    to the root without overshooting, however close the root lies to the
    pole.  The residual |F(s*) - eps| is checked against 1e-9 * max(eps, 1).
    It is the last Newton step's F(s) - eps, taken at the s the loop stops
    at; F is evaluated once more only when the 200-step cap ends the loop.
    """
    if eps < 0.0:
        raise InvalidInputError("eps must be >= 0")
    if eps == 0.0:
        return 0.0
    if spec.R == 1:
        return strongly_sub_gamma_exponent(spec.v, spec.c, eps)
    a, v, c = spec.a, spec.v, spec.c
    s = v / (v + c * eps)
    for _ in range(200):
        d1, d2 = _filter_derivs(a, v, c, s)
        # F'(s) = -f''(l)/c, so the Newton step is c (F(s) - eps) / f''(l).
        # Exact steps only climb; a tiny or backward one is rounding noise.
        step = c * (d1 - eps) / d2
        if step <= 1e-14 * s:
            break
        s += step
    else:
        d1 = _filter_derivs(a, v, c, s)[0]
    residual = abs(d1 - eps)
    if not residual <= 1e-9 * max(eps, 1.0):  # also catches NaN
        raise NumericalError(
            f"Chernoff solve residual {residual:.3g} exceeds tolerance"
        )
    return (1.0 - s) / c * eps - _filter_f(a, v, c, s)


def tail_bound(spec: PolyFiltered, eps: float) -> float:
    """min(1, exp(-poly_filtered_exponent(spec, eps)))."""
    return _clamp(poly_filtered_exponent(spec, eps))


def build_spec(n: int, g: GFunction, R: int) -> PolyFiltered:
    """Poly-filtered spec from the logs of the exact numeric u*_r values.

    With c = scale_parameter(n, g), log v = log u*_[R+1] - (R-1) log c - log R!
    and a_r = exp(log u*_r - log (r-1)!) - exp(log v + (r-2) log c), r = 2..R:
    u*_[R+1] and c^(R-1) may underflow where v does not.  The ratio chain
    keeps every a_r >= 0 (a materially negative one is an internal error)
    and v <= u*_2.  R = 1 gives the strongly sub-Gamma spec v = u*_2.
    power(alpha < 1) breaks the ratio chain and is rejected, and so is R
    above _MAX_ORDER.  Raises NumericalError where v is not a normal double.
    """
    if int(R) != R or not 1 <= R <= _MAX_ORDER:
        raise InvalidInputError(f"build_spec needs integer R in [1, {_MAX_ORDER}]")
    if g.kind == "power" and g.alpha < 1.0:
        raise InvalidInputError("concentration specs require power alpha >= 1")
    c = ustar_engine.scale_parameter(n, g)
    log_c = math.log(c)
    log_u = {r: ustar_engine.u_star(n, g, r).log_value for r in range(2, R + 2)}
    log_v = log_u[R + 1] - (R - 1) * log_c - math.log(math.factorial(R))
    v = math.exp(log_v)
    if not v >= sys.float_info.min:
        raise NumericalError(f"log v = log(u*_{R + 1}/(c^{R - 1} {R}!)) = {log_v:.6g}: "
                             "v is not a normal double")
    a = []
    for r in range(2, R + 1):
        lead = math.exp(log_u[r] - math.log(math.factorial(r - 1)))
        a_r = lead - math.exp(log_v + (r - 2) * log_c)
        if a_r < -1e-9 * lead:
            raise NumericalError(
                f"filter coefficient a_{r} = {a_r:.3g} < 0: scale parameter "
                "violates the ratio chain"
            )
        a.append(max(a_r, 0.0))
    return PolyFiltered(R=int(R), a=tuple(a), v=v, c=c)


def theorem2_sub_gaussian_right(n: int, g: GFunction, eps: float) -> float:
    """Two-sided sub-Gaussian bound exp(-eps^2/(2 sigma2)),
    sigma2 = THEOREM2_VARIANCE_FACTOR * ratio_sup(g)^2 / n, from log sigma2."""
    log_rho = math.log(ratio_sup(g))
    return _gaussian_tail(math.log(THEOREM2_VARIANCE_FACTOR) + 2.0 * log_rho - math.log(n), eps)


def left_tail(n: int, g: GFunction, eps: float) -> float:
    """Left tail exp(-eps^2/(2 u*_2)) from the exact numeric log u*_2.

    u*_2 is the maximum over the declared domain p >= domain_min of g.  log u_2
    rises to one maximum and then falls, so that maximum lies at
    max(argmax, domain_min): an entropy k-floor above the argmax moves it to
    p = 1/k, and the tail never exceeds the closed form of
    corollary_left_tail."""
    p = max(ustar_engine.u_star(n, g, 2).argmax, g.domain_min)
    return _gaussian_tail(ustar_engine._log_u_r_at(p, n, g, 2), eps)


def corollary_left_tail(n: int, g: GFunction, eps: float) -> float:
    """Closed-form left tail exp(-eps^2/(2 sigma2)), sigma2 from log_u2_closed_bound:

    power(a >= 1):   exp(-n^(2a-1) eps^2 / (2 gamma_alpha)),
                     needs n >= (2a-1) ln2/(2a-1-ln2);
    entropy_log2(k): exp(-n eps^2 / (2 gamma (log2 k)^2)), needs n >= 3.
    """
    return _gaussian_tail(ustar_engine.log_u2_closed_bound(n, g), eps)


def corollary_right_exponent(n: int, g: GFunction, eps: float) -> float:
    """Chernoff exponents of the printed right-tail closed forms.

    power(1) is the strongly sub-Gamma template at v = gamma/n and
    c = 3/(2(n+2)); power(a > 1) and entropy_log2(k) are the printed forms.
    The power(a > 1) form ((n-b)/a) eps - (gamma_alpha/a^2) (n-b)^(3-2a) log1p(z),
    z = a n^(2a-1) eps/(gamma_alpha (n-b)), is taken in log a, log gamma_alpha,
    log(n-b) and log n, since a, gamma_alpha and n^(2a-1) overflow.
    """
    if eps < 0.0:
        raise InvalidInputError("eps must be >= 0")
    if g.kind == "power" and g.alpha == 1.0:
        if n < 3:
            raise RegimeError("m0 right tail needs n >= 3")
        return strongly_sub_gamma_exponent(
            ustar_engine.gamma_const() / n, 3.0 / (2.0 * (n + 2.0)), eps
        )
    if g.kind == "power" and g.alpha > 1.0:
        alpha = g.alpha
        thr = 1.0 + 4.0 * alpha * alpha / (1.0 - alpha) ** 2
        if n <= thr:
            raise RegimeError(f"right tail for alpha={alpha:g} needs n > {thr:.4g}")
        if eps == 0.0:
            return 0.0
        b = 1.0 + 2.0 * alpha / (alpha - 1.0)
        log_a = math.log(b - 1.0) + alpha * math.log(2.0 * (alpha - 1.0) / (alpha + 1.0))
        log_ga, log_nb = ustar_engine.log_gamma_alpha(alpha), math.log(n - b)
        log_z = log_a + math.log(eps) - log_ga - log_nb + (2.0 * alpha - 1.0) * math.log(n)
        # log log1p(z): log z below z = e^-40, where z itself may underflow
        log_l = log_z if log_z < -40.0 else math.log(
            max(log_z, 0.0) + math.log1p(math.exp(-abs(log_z))))
        log_second = log_ga - 2.0 * log_a + (3.0 - 2.0 * alpha) * log_nb + log_l
        # a second term past e^709 gives E = -inf, the bound 1
        second = math.exp(log_second) if log_second < 709.0 else math.inf
        return math.exp(log_nb - log_a) * eps - second
    if g.kind == "entropy_log2":
        if n < 3:
            raise RegimeError("entropy right tail needs n >= 3")
        n0 = (n - 1.0) / 3.0 + _E
        log2n0 = math.log2(n0)
        gam_k = 2.0 * ustar_engine.gamma_const() * (1.0 / 3.0 + (_E - 1.0 / 3.0) / n) * math.log2(g.k_floor) ** 2
        # log2 inside the bracket, exactly as printed; weaker than the ln
        # form for small eps, where clamping makes the bound trivially 1.
        return (2.0 * n0 / log2n0) * (
            eps - (gam_k / log2n0) * math.log2(1.0 + eps * log2n0 / gam_k)
        )
    raise InvalidInputError(f"no closed right tail for g = {g.descriptor()}")


def corollary_right_tail(n: int, g: GFunction, eps: float) -> float:
    return _clamp(corollary_right_exponent(n, g, eps))


def curve(family: str, n: int, g: GFunction, eps_grid: Sequence[float]) -> BoundCurve:
    """Bound curve over an eps grid.

    family: "subgauss" (sigma2 = 1/(2n), the e^[-n eps^2] reference curve),
    "ssg" (strongly sub-Gamma: the order-1 spec, the same curve as "poly:1"),
    "subgamma" (the sub-Gamma template on the order-1 spec's v = exact u*_2
    and c = scale_parameter), or "poly:R".
    """
    if int(n) != n or n < 1:
        raise InvalidInputError("n must be an integer >= 1")
    eps_list = [float(e) for e in eps_grid]
    if any(e < 0.0 for e in eps_list):
        raise InvalidInputError("eps grid must be >= 0")
    if family == "subgauss":
        sigma2 = 1.0 / (2.0 * n)
        exponents = tuple(e * e / (2.0 * sigma2) for e in eps_list)
    else:
        if family in ("ssg", "subgamma"):
            order = 1
        elif family.startswith("poly:"):
            try:
                order = int(family.split(":", 1)[1])
            except ValueError:
                raise InvalidInputError(f"bad filter order in family {family!r}")
        else:
            raise InvalidInputError(f"unknown bound family {family!r}")
        spec = build_spec(n, g, order)
        if family == "subgamma":
            exponents = tuple(sub_gamma_exponent(spec.v, spec.c, e) for e in eps_list)
        else:
            exponents = tuple(poly_filtered_exponent(spec, e) for e in eps_list)
    return BoundCurve(bounds=tuple(_clamp(x) for x in exponents), exponents=exponents)
