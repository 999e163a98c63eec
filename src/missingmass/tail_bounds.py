"""Concentration specs and tail bounds for the centered missing mass.

The one concentration spec is the order-R polynomial filter PolyFiltered,

    f(l) = sum_[r=2..R] a_r l^r / r + (v/c^2) log(e^[-lc]/(1-cl)),

built by build_spec from exact numeric u*_r values and the scale parameter
c.  Order 1 (no filter terms) is the strongly sub-Gamma template.  The
sub-Gamma (f = l^2 v/(2(1-cl))) template of Boucheron, Lugosi & Massart
(2013, section 2.4) is read on the order-1 spec's v and c.  Each yields a
right-tail bound exp(-E(eps)) by the Chernoff method; E is analytic except
for R >= 2, whose Legendre transform is solved numerically.

curve(family, n, g, eps_grid) is the one way to evaluate a bound, for every
family of FAMILIES, the table of the families, the tails they bound and the
g they hold for.  A family's (n, g) work is done once, before any eps, and
its exponent is then evaluated once, on the whole eps array: the closed
forms elementwise, poly:R (R >= 2) by one Newton iteration over the array.
No code loops over eps.

Every input taken from u*_r or gamma_alpha is read as its log: v and a_r,
both left tails' variance and the power(alpha > 1) right tail.  So a u*_r
that underflows, or a gamma_alpha or n^(2 alpha - 1) that overflows, still
gives a bound.  Every sub-Gaussian exponent eps^2/(2 sigma2) is taken from
log sigma2.  The filter polynomial and its derivatives are taken by
Horner's rule: every a_r is >= 0, so no partial sum overflows unless the
whole sum does, even where l^R alone would.

Every bound is clamped to <= 1; the raw exponent comes with it for
diagnostics (it can go negative, where the bound is 1).  An exponent past
the double range is inf, and its bound 0, as is every exponent at
eps = inf.  ssg, subgamma and the poly:R pole share the large-eps limit
eps/c (plus a constant at the pole).  The array forms reach inf by masks
(_scaled, and the guards of each closed form), not by overflowing, so
that no floating-point warning fires, even at eps = 1e308.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ustar_engine
from .errors import InvalidInputError, NumericalError, RegimeError, require_int, require_real_array
from .gfunction import GFunction, ratio_sup

#: Variance factor of the two-sided sub-Gaussian bound: 2*kappa = 0.51909...
#: rounded up, so that the bound is never below the theorem's.
THEOREM2_VARIANCE_FACTOR = 0.5191

#: Largest filter order R: 170! is the largest factorial a double holds.
_MAX_ORDER = 170

_E = math.e
_MAX = sys.float_info.max
#: Largest x whose exp is a finite double.
_LOG_MAX = math.log(_MAX)
#: x * x is a finite double exactly for |x| < 2^512.
_SQUARE_LIMIT = 2.0**512


@dataclass(frozen=True)
class PolyFiltered:
    """Filter coefficients a = (a_2, ..., a_R); R = 1 means an empty filter,
    the strongly sub-Gamma spec (v, c).  build_spec establishes the
    invariants: integer R in [1, 170], R - 1 coefficients each >= 0, and
    v, c > 0."""

    R: int
    a: Tuple[float, ...]
    v: float
    c: float


def _scaled(x, num: float, den: float = 1.0):
    """x * num / den, rounded in that order, for scalars num >= 0, den > 0.
    A result past the double range is +-inf, as with Python floats, but no
    floating-point warning fires: where the product would come within 2^-50
    of the range's edge, or x is infinite, the result is +-inf without the
    arithmetic (an infinite x stays so where num underflowed to 0)."""
    limit = _MAX * (1.0 - 2.0**-50) * min(1.0, den) / num if num else math.inf
    over = np.isinf(x) | (np.abs(x) > limit)
    return np.where(over, np.copysign(np.inf, x), np.where(over, 0.0, x) * num / den)


def _gaussian_exponent(log_sigma2: float, eps):
    """eps^2/(2 sigma2) from log sigma2, finite where sigma2 underflows; inf past e^709.78."""
    eps = np.asarray(eps, dtype=float)
    zero = eps == 0.0
    log_exponent = 2.0 * np.log(np.where(zero, 1.0, eps)) - math.log(2.0) - log_sigma2
    over = log_exponent > _LOG_MAX
    exponent = np.where(over, np.inf, np.exp(np.where(over, 0.0, log_exponent)))
    return np.where(zero, 0.0, exponent)[()]


def _sub_gamma(v: float, c: float, eps: np.ndarray) -> np.ndarray:
    """(v/c^2) h(c*eps/v), h(x) = 1+x-sqrt(1+2x), on an eps array, in the
    stable form h(x) = x^2/(1+x+sqrt(1+2x)).  Where x^2 overflows (x from
    2^512, about 1.3e154), the exponent is its large-eps limit eps/c, as
    for _strongly_sub_gamma: h(x) = x to within sqrt(2/x) < 1e-76 of itself."""
    x = _scaled(eps, c, v)
    square = x < _SQUARE_LIMIT
    xs = np.where(square, x, 0.0)
    h = xs * xs / (1.0 + xs + np.sqrt(1.0 + 2.0 * xs))
    return np.where(square, _scaled(h, v / (c * c)), _scaled(eps, 1.0 / c))


def _strongly_sub_gamma(v: float, c: float, eps: np.ndarray) -> np.ndarray:
    """(1/c)(eps - (v/c) log(1+c*eps/v)) = (v/c^2)(z - log1p(z)), z = c*eps/v,
    on an eps array.  log1p keeps z - log1p(z) accurate down to z ~ 1e-8 and
    below.  Where z overflows, the exponent is its large-eps limit eps/c: the
    term dropped, (v/c^2) log1p(z), is below 4e-306 of it."""
    z = _scaled(eps, c, v)
    over = z == np.inf
    z = np.where(over, 0.0, z)
    return np.where(over, _scaled(eps, 1.0 / c), _scaled(z - np.log1p(z), v / (c * c)))


def _filter_derivs(a: Sequence[float], v: float, c: float, s):
    """(f'(l), f''(l)) at l = (1 - s)/c, for a float or an array s:
    f'(l) = l Q(l) + v l/s, f''(l) = Q(l) + l Q'(l) + v/s^2,
    Q(l) = sum_r a_r l^(r-2), with Q and Q' by Horner's rule from the
    last coefficient (a holds at least a_2).
    v/s^2 is taken as v/s/s: s^2 underflows where v and s are tiny (high R)."""
    lam = (1.0 - s) / c
    q, dq = a[-1], 0.0
    for a_r in reversed(a[:-1]):
        dq = dq * lam + q
        q = q * lam + a_r
    return lam * q + v * lam / s, q + lam * dq + v / s / s


def _filter_poly(a: Sequence[float], lam):
    """sum_r a_r l^r / r = l^2 sum_r (a_r/r) l^(r-2) at l = lam, by Horner's rule."""
    q = 0.0
    for r in range(len(a) + 1, 1, -1):
        q = q * lam + a[r - 2] / r
    return q * lam * lam


def _filter_f(a: Sequence[float], v: float, c: float, s):
    """f(l) = sum_r a_r l^r / r + (v/c^2)(-c l - log(1 - c l)) at the pole
    distance s = 1 - c l, a float or an array, so that log(s) stays exact
    next to the pole."""
    return (v / (c * c)) * (-(1.0 - s) - np.log(s)) + _filter_poly(a, (1.0 - s) / c)


def _poly_exponent(spec: PolyFiltered, eps: np.ndarray) -> np.ndarray:
    """Chernoff exponent max over l in [0, 1/c) of l*eps - f(l), at every
    eps >= 0 of an array, by one Newton iteration over the whole array.

    The stationary point solves f'(l) = eps.  It is found in the pole
    distance s = 1 - c l, where F(s) = f'((1 - s)/c) is convex and
    decreasing on (0, 1].  Newton's method started at s0 = v/(v + c eps),
    the root of the Gamma part alone, has F(s0) >= eps, so its steps climb
    to the root without overshooting, however close the root lies to the
    pole.  A point stops at its first step below 1e-14 s and keeps its s
    while the others go on: every step is taken on the whole array, and a
    stopped point's step, taken again at the same s, stops it again.  The
    residual |F(s*) - eps| is checked at every point against
    1e-9 * max(eps, 1), and one failure fails the whole array.  It is the
    last Newton step's F(s) - eps; F is evaluated once more only when the
    200-step cap ends the loop.

    Where v/s0^2 in f''(s0) would pass a quarter of the double range (from
    c eps near sqrt(v * 1.8e308)/2), or eps/c would, the start lies within
    1.5e-154 of the pole, and the climb to the root would raise the
    exponent by less than 1e-150 of itself.  There the exponent is taken at
    s0, and the Newton runs at eps = 0.  At s0, 1 - s0 rounds to 1, so
    l = 1/c, and -log s0 = log1p(c eps/v): l eps - f(l) is the order-1
    exponent plus v/c^2 - P(1/c), P the filter polynomial.
    """
    if spec.R == 1:
        return _strongly_sub_gamma(spec.v, spec.c, eps)
    a, v, c = spec.a, spec.v, spec.c
    at_pole = eps > min((math.sqrt(v * _MAX) / 2.0 - v) / c, c * _MAX / 4.0)
    e = np.where(at_pole, 0.0, eps)
    s = v / (v + c * e)
    for _ in range(200):
        d1, d2 = _filter_derivs(a, v, c, s)
        # F'(s) = -f''(l)/c, so the Newton step is c (F(s) - eps) / f''(l).
        # Exact steps only climb; a tiny or backward one is rounding noise.
        step = c * (d1 - e) / d2
        moving = ~(step <= 1e-14 * s)  # a NaN step moves on, to fail the residual check
        if not moving.any():
            break
        s = np.where(moving, s + step, s)
    else:
        d1 = _filter_derivs(a, v, c, s)[0]
    residual = np.abs(d1 - e)
    failed = ~(residual <= 1e-9 * np.fmax(e, 1.0))  # also catches NaN
    if failed.any():
        raise NumericalError(
            f"Chernoff solve residual {residual[failed][0]:.3g} exceeds tolerance"
        )
    exponent = (1.0 - s) / c * e - _filter_f(a, v, c, s)
    if at_pole.any():
        pole = _strongly_sub_gamma(v, c, np.where(at_pole, eps, 1.0))
        exponent = np.where(at_pole, pole + (v / (c * c) - _filter_poly(a, 1.0 / c)), exponent)
    return exponent


def build_spec(n: int, g: GFunction, R: int) -> PolyFiltered:
    """Poly-filtered spec from the logs of the exact numeric u*_r values.

    With c = scale_parameter(n, g), log v = log u*_[R+1] - (R-1) log c - log R!
    and a_r = exp(log u*_r - log (r-1)!) - exp(log v + (r-2) log c), r = 2..R:
    u*_[R+1] and c^(R-1) may underflow where v does not.  The ratio chain
    keeps every a_r >= 0 (a materially negative one is an internal error)
    and v <= u*_2.  R = 1 gives the strongly sub-Gamma spec v = u*_2.
    ratio_sup rejects power(alpha < 1), which breaks the ratio chain, and R
    above _MAX_ORDER is rejected.  Raises NumericalError where v is not a
    normal double.  So every spec returned holds PolyFiltered's invariants.
    """
    R = require_int("R", R, 1, _MAX_ORDER)
    ratio_sup(g)
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
    return PolyFiltered(R=R, a=tuple(a), v=v, c=c)


def _printed_tail(log_A: float, log_B: float, log_C: float) -> Callable[[np.ndarray], np.ndarray]:
    """eps -> A eps - B log1p(C eps), the shape of the printed power(alpha > 1)
    and entropy right tails, taken from log A, log B and log C, since A, B
    and C may leave the double range where their logs do not.  The second
    term is exp(log B + log log1p(C eps)), with log log1p(z) =
    log logaddexp(0, log z), and log z itself below z = e^-40, where z may
    underflow.  A second term past the double range gives E = -inf, the
    bound 1, at finite eps; an infinite eps gives E = inf, the bound 0."""
    A = math.exp(log_A)

    def exponent(eps: np.ndarray) -> np.ndarray:
        zero = eps == 0.0
        log_z = log_C + np.log(np.where(zero, 1.0, eps))
        tiny = log_z < -40.0
        log_l = np.where(tiny, log_z, np.log(np.logaddexp(0.0, np.where(tiny, 0.0, log_z))))
        log_second = log_B + log_l
        over = log_second > _LOG_MAX
        second = np.exp(np.where(over, 0.0, log_second))
        return np.select([zero, eps == np.inf, over], [0.0, np.inf, -np.inf],
                         _scaled(eps, A) - second)
    return exponent


def _right_corollary(n: int, g: GFunction) -> Callable[[np.ndarray], np.ndarray]:
    """eps -> the Chernoff exponent of the printed right-tail closed form of g at n.

    power(1) is the strongly sub-Gamma template at v = gamma/n and
    c = 3/(2(n+2)).  power(a > 1) and entropy_log2(k) are _printed_tail:
    ((n-b)/a) eps - (gamma_alpha/a^2) (n-b)^(3-2a) log1p(z),
    z = a n^(2a-1) eps/(gamma_alpha (n-b)), with b = 1 + b1, b1 = 2a/(a-1)
    and a = b1 (2(a-1)/(a+1))^a, and
    (2 n0/log2 n0)(eps - (gamma_k/log2 n0) log2(1 + eps log2 n0/gamma_k)).
    curve's ratio_sup gate leaves no other g.
    """
    if g.kind == "power" and g.alpha == 1.0:
        if n < 3:
            raise RegimeError("m0 right tail needs n >= 3")
        return functools.partial(_strongly_sub_gamma,
                                 ustar_engine.gamma_const() / n, 3.0 / (2.0 * (n + 2.0)))
    if g.kind == "power":
        alpha = g.alpha
        b1 = 2.0 * alpha / (alpha - 1.0)  # 4 alpha^2/(alpha-1)^2 would overflow
        if n <= 1.0 + b1 * b1:
            raise RegimeError(f"right tail for alpha={alpha:g} needs n > {1.0 + b1 * b1:.4g}")
        log_a = math.log(b1) + alpha * math.log(2.0 * (alpha - 1.0) / (alpha + 1.0))
        log_ga, log_nb = ustar_engine.log_gamma_alpha(alpha), math.log(n - (1.0 + b1))
        return _printed_tail(log_nb - log_a,
                             log_ga - 2.0 * log_a + (3.0 - 2.0 * alpha) * log_nb,
                             log_a - log_ga - log_nb + (2.0 * alpha - 1.0) * math.log(n))
    if n < 3:
        raise RegimeError("entropy right tail needs n >= 3")
    n0 = (n - 1.0) / 3.0 + _E
    log2n0 = math.log2(n0)
    gam_k = 2.0 * ustar_engine.gamma_const() * (1.0 / 3.0 + (_E - 1.0 / 3.0) / n) * math.log2(g.k_floor) ** 2
    # A = 2 n0/log2 n0, C = log2 n0/gamma_k and B = A gamma_k/(log2 n0 ln 2) = A/(C ln 2)
    log_A, log_C = math.log(2.0 * n0 / log2n0), math.log(log2n0 / gam_k)
    return _printed_tail(log_A, log_A - log_C - math.log(math.log(2.0)), log_C)


def _gaussian(log_sigma2: Callable[[int, GFunction], float]):
    """The builder of the sub-Gaussian exponent eps^2/(2 sigma2), sigma2 at (n, g) from its log."""
    return lambda n, g: functools.partial(_gaussian_exponent, log_sigma2(n, g))


class Family(NamedTuple):
    """A row of FAMILIES."""

    name: str
    tails: Tuple[str, ...]  # the tails it bounds, as mc_tail's column prefixes
    g: Optional[str]  # the one g it holds for; None for every g ratio_sup admits
    build: Callable[..., Callable[[np.ndarray], np.ndarray]]  # (n, g) -> the exponent of eps


#: Every bound family, in the order help and errors list them; poly:R's build also takes R.
FAMILIES = (
    # exp(-n eps^2), Figure 1's reference: simulation exceeds it for entropy g
    Family("subgauss", ("right",), "power:1", _gaussian(lambda n, g: -math.log(2.0 * n))),
    Family("theorem2", ("right", "left"), None, _gaussian(lambda n, g: math.log(
        THEOREM2_VARIANCE_FACTOR) + 2.0 * math.log(ratio_sup(g)) - math.log(n))),
    # log u_2 rises to one maximum, so on p >= domain_min it peaks at max(argmax, domain_min)
    Family("left_u2", ("left",), None, _gaussian(lambda n, g: ustar_engine._log_u_r_at(
        max(ustar_engine.u_star(n, g, 2).argmax, g.domain_min), n, g, 2))),
    Family("left_corollary", ("left",), None, _gaussian(ustar_engine.log_u2_closed_bound)),
    Family("right_corollary", ("right",), None, _right_corollary),
    Family("ssg", ("right",), None,
           lambda n, g: functools.partial(_poly_exponent, build_spec(n, g, 1))),
    Family("subgamma", ("right",), None, lambda n, g: functools.partial(
        _sub_gamma, *operator.attrgetter("v", "c")(build_spec(n, g, 1)))),
    Family("poly:R", ("right",), None,
           lambda n, g, R: functools.partial(_poly_exponent, build_spec(n, g, R))),
)
#: FAMILIES as help and errors list them: each name, its tails and its one g.
FAMILY_LIST = " | ".join(f"{f.name} ({'/'.join(f.tails)}{', ' + f.g + ' only' if f.g else ''})"
                         for f in FAMILIES) + f", 1 <= R <= {_MAX_ORDER}"


def parse_family(text: str) -> Family:
    """The row of FAMILIES that text names; for poly:R, with any R int() reads
    (build_spec checks its range), that row renamed poly:R, R in digits, R bound."""
    name, colon, order = text.partition(":")
    if name == "poly" and colon:
        try:
            R = int(order)
        except ValueError:
            raise InvalidInputError(f"bad filter order in family {text!r}")
        poly = FAMILIES[-1]
        return poly._replace(name=f"poly:{R}", build=functools.partial(poly.build, R=R))
    for row in FAMILIES:
        if row.name == text:
            return row
    raise InvalidInputError(f"unknown bound family {text!r}; expected {FAMILY_LIST}")


def curve(family: str, n: int, g: GFunction,
          eps_grid: Sequence[float]) -> Dict[str, Tuple[float, ...]]:
    """The table bounds prints for the family parse_family reads: bound and
    exponent (clamped bound, raw Chernoff exponent), one value per eps.  After
    ratio_sup and the eps grid come the family's name, its g (RegimeError for
    any other g) and its own regime or input errors, all before any eps."""
    n = require_int("n", n, 1)
    ratio_sup(g)
    eps = require_real_array("eps grid", eps_grid)
    if eps.ndim != 1 or not (eps >= 0.0).all():
        raise InvalidInputError("eps grid must be a 1-D array of numbers >= 0")
    row = parse_family(family)
    if row.g not in (None, g.descriptor()):
        raise RegimeError(f"{row.name} bounds {row.g} only, not {g.descriptor()}")
    exponents = row.build(n, g)(eps)
    # exp(-E), clamped to <= 1: a negative or NaN exponent gives 1
    bounds = np.exp(-np.fmax(exponents, 0.0))
    return {"bound": tuple(bounds.tolist()), "exponent": tuple(exponents.tolist())}
