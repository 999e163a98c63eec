"""Maximization engine for u_r(p; n, g) and the constants behind the bounds.

u_r(p; n, g) = g(p)^r (1-p)^n (1-(1-p)^n) / p controls the power-series bound
on the log-MGF of the centered missing mass; u*_r is its maximum over p.
The engine also computes the universal constants

    gamma       = max_t t e^[-t](1-e^[-t])            = 0.2603...
    gamma_alpha = max_t t^(2a-1) e^[-t](1-e^[-t])     (as its log)
    kappa       = max_[u,v>0] (u/v^2) log(1+e^[-u](e^v-v-1)) = 0.2595...

the closed-form upper bounds on u*_2, and the scale parameter c satisfying
the ratio chain u*_r/(r-1)! <= c u*_[r-1]/(r-2)! for r >= 3.

The engine maximizes the bare g formula over all of (0,1) (the entropy
k-floor is not applied here): the scale-parameter case formulas and the ratio
chain are statements about the formula on the full interval, and restricting
the domain can break the chain.  log u_r rises to one maximum and then falls
(see u_star), so its maximum over p >= p0 lies at max(argmax, p0); the
entropy left tail reads it there.

The engine computes logs, which stay finite where u*_r underflows and
gamma_alpha overflows; the bounds read only these.  u_star maximizes
log u_r = r log g(p) - log p + n log1p(-p) + log(-expm1(n log1p(-p))) at
the one root of d log u_r/dp, found by safeguarded Newton with closed-form
derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import InvalidInputError, RegimeError
from .gfunction import GFunction

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Golden-section search and the Newton search stop once their bracket
#: (or a Newton step) is this many ulps wide.
_STOP_ULPS = 4

#: Step cap of the Newton search.  Bisection alone narrows a window
#: (lo, 1 - 1e-12) to _STOP_ULPS ulps of a root near p in about
#: 50 + log2(1/p) steps; Newton steps from a start near the root end the
#: search far sooner.
_NEWTON_STEPS = 100

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class UStarResult:
    """The argmax of u_r and log u*_r, the one form the bounds read."""

    argmax: float
    log_value: float

    @property
    def value(self) -> float:
        """u*_r = exp(log_value); 0 where u*_r underflows."""
        return math.exp(self.log_value)


def _log_u_r_at(p: float, n: int, g: GFunction, r: int) -> float:
    """log u_r at one p in (0,1).  log g is taken in closed form, so that it
    stays finite where g(p) underflows."""
    if g.kind == "power":
        log_g = g.alpha * math.log(p)
    else:
        log_g = math.log(p) + math.log(-math.log(p)) - math.log(_LN2)
    t = n * math.log1p(-p)
    return r * log_g + t + math.log(-math.expm1(t)) - math.log(p)


def _dlog_u_r(p: float, n: int, g: GFunction, r: int) -> Tuple[float, float]:
    """(h'(p), h''(p)) of h = log u_r.

    With w = (1-p)^n / (1-(1-p)^n) and (log g)', (log g)'' in closed form
    (alpha/p and -alpha/p^2 for power; (1 + 1/L)/p and -(1 + (1+L)/L^2)/p^2
    with L = log p for entropy):

        h'  = r (log g)'  - n (1-w)/(1-p) - 1/p,
        h'' = r (log g)'' - n (1-w + n w (1+w))/(1-p)^2 + 1/p^2.
    """
    if g.kind == "power":
        g1, g2 = g.alpha / p, -g.alpha / (p * p)
    else:
        log_p = math.log(p)
        g1 = (1.0 + 1.0 / log_p) / p
        g2 = -(1.0 + (1.0 + log_p) / (log_p * log_p)) / (p * p)
    t = n * math.log1p(-p)
    w = math.exp(t) / -math.expm1(t)
    q = 1.0 - p
    h1 = r * g1 - n * (1.0 - w) / q - 1.0 / p
    h2 = r * g2 - n * (1.0 - w + n * w * (1.0 + w)) / (q * q) + 1.0 / (p * p)
    return h1, h2


def _newton_max(
    dh: Callable[[float], Tuple[float, float]], lo: float, x: float, hi: float
) -> float:
    """Maximizer of h on [lo, hi] by safeguarded Newton on h' = 0, from x.

    dh(p) returns (h'(p), h''(p)).  The sign of h' at each iterate moves one
    end of the bracket there; a Newton step that leaves the bracket, or one
    taken where h'' >= 0, is replaced by bisection.  Stops when h' is 0 (or
    NaN), when the bracket or the step is _STOP_ULPS ulps wide, or after
    _NEWTON_STEPS steps.  The stop rules end a flat top, where h' is rounding
    noise, before the step cap.
    """
    for _ in range(_NEWTON_STEPS):
        d1, d2 = dh(x)
        if d1 > 0.0:
            lo = x
        elif d1 < 0.0:
            hi = x
        else:
            break
        step = -d1 / d2 if d2 < 0.0 else math.nan
        if abs(step) <= _STOP_ULPS * math.ulp(x):
            return min(max(x + step, lo), hi)
        x = x + step if lo < x + step < hi else 0.5 * (lo + hi)
        if hi - lo <= _STOP_ULPS * math.ulp(hi):
            break
    return x


def _golden_max(f: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, value).

    Stops after 100 steps or once the bracket is _STOP_ULPS ulps wide,
    the resolution of a double at the bracket.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(100):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if b - a <= _STOP_ULPS * math.ulp(max(abs(a), abs(b))):
            break
    x = 0.5 * (a + b)
    return x, f(x)


@functools.lru_cache(maxsize=4096)
def u_star(n: int, g: GFunction, r: int) -> UStarResult:
    """Maximum of u_r over (0,1).

    The maximum needs no grid.  With h = log u_r,

        p h'(p) = r p (log g)'(p) - 1 + k(p) - n p/(1-p),
        k(p) = n p (1-p)^(n-1) / (1-(1-p)^n) = n / sum_(j<n) (1-p)^(-j),

    where p (log g)' is alpha for power g and 1 + 1/log p for entropy g.
    Every term is non-increasing in p and -n p/(1-p) is strictly
    decreasing, so h' changes sign at most once, from + to -: h rises to
    one maximum and then falls.  The search runs on the window
    [lo, hi] = [min(1e-12, 1e-3/n), 1 - 1e-12]: the maximum is lo where
    h'(lo) <= 0, and otherwise the root of h' in the window (or hi, where
    h' > 0 on the whole window), found by _newton_max from
    x0 = c/(n+1), c = max(r*alpha, 1) (alpha = 1 for entropy), clipped to
    the window.  x0 lies at or above the root: k <= 1 and
    p (log g)' <= alpha give p h'(p) <= r*alpha - n p/(1-p), which is <= 0
    at x0.  So a maximum at hi puts x0 at hi, where the search ends at once.

    The lower edge holds the maximum for every n unless r*alpha is tiny: at
    p <= 1e-3/n, k >= (1-p)^(n-1) > 1 - 1e-3 and n p/(1-p) < 1.001e-3, so
    p h'(p) > r*alpha - 0.0021 > 0 for r*alpha >= 0.01, and for entropy g,
    whose p (log g)' >= 0.85 there.

    log_value is log u_r at the argmax, with log g in closed form, and value
    is its exp.
    """
    if n < 1 or r < 2:
        raise InvalidInputError("u_star requires n >= 1 and r >= 2")
    lo, hi = min(1e-12, 1e-3 / n), 1.0 - 1e-12

    def dh(p):
        return _dlog_u_r(p, n, g, r)

    if dh(lo)[0] <= 0.0:
        x = lo
    else:
        c = max(r * (g.alpha if g.kind == "power" else 1.0), 1.0)
        x = _newton_max(dh, lo, min(max(c / (n + 1.0), lo), hi), hi)
    return UStarResult(argmax=x, log_value=_log_u_r_at(x, n, g, r))


@functools.lru_cache(maxsize=256)
def log_gamma_alpha(alpha: float) -> float:
    """log gamma_alpha, gamma_alpha = max_(t>0) t^(2a-1) e^[-t](1-e^[-t]), a >= 1.

    With e = 2*alpha - 1, the log of the objective,
    h(t) = e log t - t + log(-expm1(-t)), has
    h''(t) = -e/t^2 - e^t/(e^t - 1)^2 < 0, h'(e) = 1/(e^e - 1) > 0 and
    h'(e+1) = 1/(e^(e+1) - 1) - 1/(e+1) < 0.  So the maximizer is the one
    root of h' in (e, e+1), which _newton_max finds from e + 1/2, and the
    log maximum is h there.
    """
    if not (alpha >= 1.0):
        raise InvalidInputError("gamma_alpha requires alpha >= 1")

    e = 2.0 * alpha - 1.0

    def dh(t):
        b = math.exp(-t) / -math.expm1(-t)  # 1/(e^t - 1), without overflow
        return e / t - 1.0 + b, -e / (t * t) - b * (1.0 + b)

    t = _newton_max(dh, e, e + 0.5, e + 1.0)
    return e * math.log(t) - t + math.log(-math.expm1(-t))


def gamma_const() -> float:
    """gamma = max_t t e^[-t](1-e^[-t]) = 0.2603..., exp(log_gamma_alpha(1))."""
    return math.exp(log_gamma_alpha(1.0))


@functools.lru_cache(maxsize=1)
def kappa_const() -> float:
    """max over u, v > 0 of (u/v^2) log(1+e^[-u](e^v-v-1)) = 0.2595...

    Coarse 2-D grid, then alternating coordinate-wise golden refinement.
    2*kappa = 0.51909...; the Theorem-2 variance factor rounds it up.
    """

    def f(u, v):
        return (u / (v * v)) * math.log1p(math.exp(-u) * (math.expm1(v) - v))

    us = np.logspace(-3, math.log10(60.0), 400)
    vs = np.logspace(-3, math.log10(60.0), 400)
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    vals = (uu / vv**2) * np.log1p(np.exp(-uu) * (np.expm1(vv) - vv))
    iu, iv = np.unravel_index(int(np.argmax(vals)), vals.shape)
    u, v = float(us[iu]), float(vs[iv])
    best = float(vals[iu, iv])
    for _ in range(60):
        u, best = _golden_max(lambda x: f(x, v), u / 4.0, u * 4.0)
        v, best = _golden_max(lambda y: f(u, y), v / 4.0, v * 4.0)
    return best


def log_u2_closed_bound(n: int, g: GFunction) -> float:
    """log of the closed-form upper bound on u*_2(n, g).

    power(alpha >= 1):  gamma_alpha / n^(2*alpha-1),
                        valid for n >= (2a-1) ln2 / (2a-1-ln2);
    entropy_log2(k):    (log2 k)^2 gamma / n, valid for n >= 3.
    """
    if g.kind == "power":
        a = g.alpha
        if a < 1.0:
            raise InvalidInputError("closed u*_2 bound requires alpha >= 1")
        thr = (2.0 * a - 1.0) * _LN2 / (2.0 * a - 1.0 - _LN2)
        if n < thr:
            raise RegimeError(
                f"u*_2 bound for alpha={a:g} needs n >= {thr:.4g}; got n = {n}"
            )
        return log_gamma_alpha(a) - (2.0 * a - 1.0) * math.log(n)
    if n < 3:
        raise RegimeError("entropy u*_2 bound needs n >= 3")
    return 2.0 * math.log(math.log2(g.k_floor)) + log_gamma_alpha(1.0) - math.log(n)


def scale_parameter(n: int, g: GFunction) -> float:
    """The scale constant c of the ratio chain, selected by g's type.

    power(alpha) is Type A with mu = alpha (0 < g'(p) <= mu g(p)/p):
        c = 0.5 g(3 mu/(n+3 mu-1)) when mu <= 1 or n < 1+4 mu^2/(mu-1)^2;
        otherwise the max of that and g(r2 mu/(n+r2 mu-1))/(r2-1),
        r2 = 0.5(n-1)(1-1/mu)(1+sqrt(1-4 mu^2/((n-1)(mu-1)^2))).
    entropy_log2(k) is Type B with p* = 1/e (g rises on (0, p*) and falls
    on (p*, 1)), and its g(p)/p = log2(1/p) is non-increasing, so it is
    always in the single-probe case: c = 0.5 g(3/(n+3/p*-1)).

    g is evaluated by its bare formula (probe points may fall below an
    entropy k-floor).  Requires n >= 3.
    """
    if n < 3:
        raise RegimeError("scale parameter needs n >= 3")
    if g.kind == "power":
        mu = g.alpha
        part1 = 0.5 * g.eval_raw(3.0 * mu / (n + 3.0 * mu - 1.0))
        if mu <= 1.0 or n < 1.0 + 4.0 * mu * mu / (mu - 1.0) ** 2:
            return float(part1)
        disc = 1.0 - 4.0 * mu * mu / ((n - 1.0) * (mu - 1.0) ** 2)
        r2 = 0.5 * (n - 1.0) * (1.0 - 1.0 / mu) * (1.0 + math.sqrt(max(disc, 0.0)))
        part2 = g.eval_raw(r2 * mu / (n + r2 * mu - 1.0)) / (r2 - 1.0)
        return float(max(part1, part2))
    p_star = 1.0 / math.e
    return float(0.5 * g.eval_raw(3.0 / (n + 3.0 / p_star - 1.0)))
