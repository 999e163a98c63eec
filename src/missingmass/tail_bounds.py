"""Concentration families and tail bounds for the centered missing mass.

Four log-MGF families, ordered from strongest to weakest assumption:

    sub-Gaussian(s2)            f(l) = l^2 s2 / 2
    strongly sub-Gamma(v, c)    f(l) = (v/c^2) log(e^[-lc]/(1-cl))
    sub-Gamma(v, c)             f(l) = l^2 v / (2(1-cl))
    poly-filtered(R, a, v, c)   f(l) = sum_r a_r l^r / r + Gamma part

Each family yields a right-tail bound exp(-E(eps)) by the Chernoff method;
E is analytic except for the poly-filtered family, whose Legendre transform is
solved numerically for every R >= 2 (the analytic R = 2 form is kept as a
cross-check).  Builders assemble the poly-filtered parameters from exact
numeric u*_r values and the scale parameter c; closed-form corollary tails
for the missing mass, order-alpha missing mass, and missing entropy are
implemented exactly as printed.

Every public bound is clamped to <= 1; the raw exponent is available for
diagnostics (a Chernoff exponent can go negative for tiny eps in the printed
entropy form, where the bound is trivially 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from . import ustar_engine
from .errors import InvalidInputError, NumericalError, RegimeError
from .gfunction import GFunction, entropy_log2, power, ratio_sup

#: Variance factor of the two-sided sub-Gaussian bound (the printed rounding
#: of 2*kappa = 0.519).
THEOREM2_VARIANCE_FACTOR = 0.519

_E = math.e


@dataclass(frozen=True)
class SubGaussian:
    sigma2: float

    def __post_init__(self):
        if not (self.sigma2 > 0.0):
            raise InvalidInputError("sub-Gaussian needs sigma2 > 0")


@dataclass(frozen=True)
class SubGamma:
    v: float
    c: float

    def __post_init__(self):
        if not (self.v > 0.0 and self.c > 0.0):
            raise InvalidInputError("sub-Gamma needs v > 0 and c > 0")


@dataclass(frozen=True)
class StronglySubGamma:
    v: float
    c: float

    def __post_init__(self):
        if not (self.v > 0.0 and self.c > 0.0):
            raise InvalidInputError("strongly sub-Gamma needs v > 0 and c > 0")


@dataclass(frozen=True)
class PolyFiltered:
    """Filter coefficients a = (a_2, ..., a_R); R = 1 means an empty filter,
    semantically a strongly sub-Gamma spec."""

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


ConcentrationSpec = Union[SubGaussian, SubGamma, StronglySubGamma, PolyFiltered]


@dataclass(frozen=True)
class BoundCurve:
    n: int
    g_descriptor: str
    family: str
    eps: Tuple[float, ...]
    bounds: Tuple[float, ...]
    exponents: Tuple[float, ...]


def _clamp(exponent: float) -> float:
    return min(1.0, math.exp(-exponent))


def sub_gaussian_exponent(sigma2: float, eps: float) -> float:
    if not (sigma2 > 0.0) or eps < 0.0:
        raise InvalidInputError("need sigma2 > 0 and eps >= 0")
    return eps * eps / (2.0 * sigma2)


def sub_gaussian_tail(sigma2: float, eps: float) -> float:
    """exp(-eps^2 / (2 sigma2)), clamped to <= 1."""
    return _clamp(sub_gaussian_exponent(sigma2, eps))


def sub_gamma_exponent(v: float, c: float, eps: float) -> float:
    """(v/c^2) h(c*eps/v) with h(x) = 1+x-sqrt(1+2x), in the stable form
    h(x) = x^2/(1+x+sqrt(1+2x))."""
    if not (v > 0.0 and c > 0.0) or eps < 0.0:
        raise InvalidInputError("need v, c > 0 and eps >= 0")
    x = c * eps / v
    h = x * x / (1.0 + x + math.sqrt(1.0 + 2.0 * x))
    return v / (c * c) * h


def sub_gamma_tail(v: float, c: float, eps: float) -> float:
    return _clamp(sub_gamma_exponent(v, c, eps))


def strongly_sub_gamma_exponent(v: float, c: float, eps: float) -> float:
    """(1/c)(eps - (v/c) log(1+c*eps/v)) = (v/c^2)(z - log1p(z)), z = c*eps/v.

    log1p keeps z - log1p(z) accurate down to z ~ 1e-8 and below.
    """
    if not (v > 0.0 and c > 0.0) or eps < 0.0:
        raise InvalidInputError("need v, c > 0 and eps >= 0")
    z = c * eps / v
    return v / (c * c) * (z - math.log1p(z))


def strongly_sub_gamma_tail(v: float, c: float, eps: float) -> float:
    return _clamp(strongly_sub_gamma_exponent(v, c, eps))


def poly_filtered_r2_exponent(a2: float, v: float, c: float, eps: float) -> float:
    """Analytic Chernoff exponent for R = 2:
    (1/c)((1/2 - d2/d1) eps + (v/c) ln(1 - 2 c eps / d1)) with
    d1 = (a2+v+c*eps) + sqrt((a2+v+c*eps)^2 - 4 a2 c eps), d2 = a2-(v+c*eps).
    """
    if a2 < 0.0 or not (v > 0.0 and c > 0.0) or eps < 0.0:
        raise InvalidInputError("need a2 >= 0, v, c > 0, eps >= 0")
    if eps == 0.0:
        return 0.0
    s = a2 + v + c * eps
    d1 = s + math.sqrt(s * s - 4.0 * a2 * c * eps)
    d2 = a2 - (v + c * eps)
    if d1 <= 2.0 * c * eps:
        raise NumericalError("d1 <= 2*c*eps cannot occur for valid parameters")
    return (1.0 / c) * ((0.5 - d2 / d1) * eps + (v / c) * math.log1p(-2.0 * c * eps / d1))


def _filter_derivs(a: Sequence[float], v: float, c: float, s: float) -> Tuple[float, float]:
    """(f'(l), f''(l)) at l = (1 - s)/c:
    f'(l) = sum_r a_r l^(r-1) + v l/s, f''(l) = sum_r (r-1) a_r l^(r-2) + v/s^2."""
    lam = (1.0 - s) / c
    d1, d2, p = v * lam / s, v / (s * s), 1.0
    for r, a_r in enumerate(a, start=2):
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
        out += a_r * p / r
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
    residual = abs(_filter_derivs(a, v, c, s)[0] - eps)
    if not residual <= 1e-9 * max(eps, 1.0):  # also catches NaN
        raise NumericalError(
            f"Chernoff solve residual {residual:.3g} exceeds tolerance"
        )
    return (1.0 - s) / c * eps - _filter_f(a, v, c, s)


def tail_exponent(spec: ConcentrationSpec, eps: float) -> float:
    """Chernoff exponent of any family; bound = min(1, exp(-exponent))."""
    if isinstance(spec, SubGaussian):
        return sub_gaussian_exponent(spec.sigma2, eps)
    if isinstance(spec, SubGamma):
        return sub_gamma_exponent(spec.v, spec.c, eps)
    if isinstance(spec, StronglySubGamma):
        return strongly_sub_gamma_exponent(spec.v, spec.c, eps)
    if isinstance(spec, PolyFiltered):
        return poly_filtered_exponent(spec, eps)
    raise InvalidInputError(f"unknown concentration spec {type(spec).__name__}")


def tail_bound(spec: ConcentrationSpec, eps: float) -> float:
    return _clamp(tail_exponent(spec, eps))


def _reject_small_power(g: GFunction, what: str) -> None:
    if g.kind == "power" and g.alpha < 1.0:
        raise InvalidInputError(f"{what} requires power alpha >= 1")


def build_spec(n: int, g: GFunction, R: int) -> PolyFiltered:
    """Poly-filtered spec from exact numeric u*_r values.

    c = scale_parameter(n, g); v = u*_[R+1] / (c^(R-1) R!);
    a_r = u*_r/(r-1)! - c^(r-2) v for r = 2..R.  The ratio chain guarantees
    every a_r >= 0; a materially negative coefficient is an internal error.
    """
    if int(R) != R or R < 1:
        raise InvalidInputError("build_spec needs integer R >= 1")
    _reject_small_power(g, "build_spec")
    c = ustar_engine.scale_parameter(n, g)
    u = {r: ustar_engine.u_star(n, g, r).value for r in range(2, R + 2)}
    v = u[R + 1] / (c ** (R - 1) * math.factorial(R))
    a = []
    for r in range(2, R + 1):
        lead = u[r] / math.factorial(r - 1)
        a_r = lead - c ** (r - 2) * v
        if a_r < -1e-9 * lead:
            raise NumericalError(
                f"filter coefficient a_{r} = {a_r:.3g} < 0: scale parameter "
                "violates the ratio chain"
            )
        a.append(max(a_r, 0.0))
    return PolyFiltered(R=int(R), a=tuple(a), v=v, c=c)


def theorem2_sub_gaussian_right(n: int, g: GFunction, eps: float) -> float:
    """Two-sided sub-Gaussian bound with sigma2 = 0.519 * ratio_sup(g)^2 / n."""
    rho = ratio_sup(g)
    return sub_gaussian_tail(THEOREM2_VARIANCE_FACTOR * rho * rho / n, eps)


def left_tail(n: int, g: GFunction, eps: float) -> float:
    """Left tail exp(-eps^2/(2 u*_2)) with the exact numeric u*_2.

    The maximization runs over the declared domain of g, so a k-floor
    restricts the search window and the tail never exceeds the closed form
    of corollary_left_tail."""
    window = None
    if g.domain_min > 0.0:
        window = (g.domain_min, 1.0 - 1e-12)
    sigma2 = ustar_engine.u_star(n, g, 2, p_window=window).value
    return sub_gaussian_tail(sigma2, eps)


def corollary_left_tail(kind: str, n: int, eps: float, *, alpha: float = None, k: int = None) -> float:
    """Closed-form left tails exp(-eps^2/(2 sigma2)), sigma2 = u2_closed_bound.

    kind="m0alpha": exp(-n^(2a-1) eps^2 / (2 gamma_alpha)),
                    needs alpha >= 1 and n >= (2a-1) ln2/(2a-1-ln2);
    kind="entropy": exp(-n eps^2 / (2 gamma (log2 k)^2)), needs n >= 3.
    """
    if eps < 0.0:
        raise InvalidInputError("eps must be >= 0")
    if kind == "m0alpha":
        if alpha is None:
            raise InvalidInputError("m0alpha left tail needs alpha >= 1")
        g = power(alpha)
    elif kind == "entropy":
        if k is None:
            raise InvalidInputError("entropy left tail needs k >= 2")
        g = entropy_log2(k)
    else:
        raise InvalidInputError(f"unknown left-tail kind {kind!r}")
    return sub_gaussian_tail(ustar_engine.u2_closed_bound(n, g), eps)


def corollary_right_exponent(kind: str, n: int, eps: float, *, alpha: float = None, k: int = None) -> float:
    """Chernoff exponents of the printed right-tail closed forms."""
    if eps < 0.0:
        raise InvalidInputError("eps must be >= 0")
    if kind == "m0":
        if n < 3:
            raise RegimeError("m0 right tail needs n >= 3")
        gam_n = ustar_engine.gamma_const() * (1.0 + 2.0 / n)
        return (2.0 * (n + 2.0) / 3.0) * (
            eps - (2.0 * gam_n / 3.0) * math.log1p(3.0 * eps / (2.0 * gam_n))
        )
    if kind == "m0alpha":
        if alpha is None or alpha <= 1.0:
            raise InvalidInputError("m0alpha right tail needs alpha > 1")
        thr = 1.0 + 4.0 * alpha * alpha / (1.0 - alpha) ** 2
        if n <= thr:
            raise RegimeError(f"right tail for alpha={alpha:g} needs n > {thr:.4g}")
        ga = ustar_engine.gamma_alpha(alpha)
        b = 1.0 + 2.0 * alpha / (alpha - 1.0)
        a = (b - 1.0) * (2.0 * (alpha - 1.0) / (alpha + 1.0)) ** alpha
        return ((n - b) / a) * eps - (ga / (a * a)) * (n - b) ** (3.0 - 2.0 * alpha) * math.log1p(
            a * float(n) ** (2.0 * alpha - 1.0) * eps / (ga * (n - b))
        )
    if kind == "entropy":
        if k is None or k < 2:
            raise InvalidInputError("entropy right tail needs k >= 2")
        if n < 3:
            raise RegimeError("entropy right tail needs n >= 3")
        n0 = (n - 1.0) / 3.0 + _E
        log2n0 = math.log2(n0)
        gam_k = 2.0 * ustar_engine.gamma_const() * (1.0 / 3.0 + (_E - 1.0 / 3.0) / n) * math.log2(k) ** 2
        # log2 inside the bracket, exactly as printed; weaker than the ln
        # variant for small eps, where clamping makes the bound trivially 1.
        return (2.0 * n0 / log2n0) * (
            eps - (gam_k / log2n0) * math.log2(1.0 + eps * log2n0 / gam_k)
        )
    raise InvalidInputError(f"unknown right-tail kind {kind!r}")


def corollary_right_tail(kind: str, n: int, eps: float, *, alpha: float = None, k: int = None) -> float:
    return _clamp(corollary_right_exponent(kind, n, eps, alpha=alpha, k=k))


def curve(family: str, n: int, g: GFunction, eps_grid: Sequence[float]) -> BoundCurve:
    """Bound curve over an eps grid.

    family: "subgauss" (sigma2 = 1/(2n), the e^[-n eps^2] reference curve),
    "subgamma" / "ssg" (v = exact u*_2, c = scale_parameter), or "poly:R".
    """
    eps_list = [float(e) for e in eps_grid]
    if any(e < 0.0 for e in eps_list):
        raise InvalidInputError("eps grid must be >= 0")
    if family == "subgauss":
        spec: ConcentrationSpec = SubGaussian(sigma2=1.0 / (2.0 * n))
    elif family in ("subgamma", "ssg"):
        _reject_small_power(g, "bound builders")
        v = ustar_engine.u_star(n, g, 2).value
        c = ustar_engine.scale_parameter(n, g)
        spec = SubGamma(v=v, c=c) if family == "subgamma" else StronglySubGamma(v=v, c=c)
    elif family.startswith("poly:"):
        try:
            order = int(family.split(":", 1)[1])
        except ValueError:
            raise InvalidInputError(f"bad filter order in family {family!r}")
        spec = build_spec(n, g, order)
    else:
        raise InvalidInputError(f"unknown bound family {family!r}")
    exponents = tuple(tail_exponent(spec, e) for e in eps_list)
    bounds = tuple(_clamp(x) for x in exponents)
    return BoundCurve(
        n=n,
        g_descriptor=g.descriptor(),
        family=family,
        eps=tuple(eps_list),
        bounds=bounds,
        exponents=exponents,
    )
