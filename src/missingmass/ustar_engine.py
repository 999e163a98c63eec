"""Maximization engine for u_r(p; n, g) and the constants behind the bounds.

u_r(p; n, g) = g(p)^r (1-p)^n (1-(1-p)^n) / p controls the power-series bound
on the log-MGF of the centered missing mass; u*_r is its maximum over p.
The engine also computes the universal constants

    gamma       = max_t t e^[-t](1-e^[-t])            = 0.2603...
    gamma_alpha = max_t t^(2a-1) e^[-t](1-e^[-t])
    kappa       = max_[u,v>0] (u/v^2) log(1+e^[-u](e^v-v-1)) = 0.2595...

the closed-form upper bounds on u*_2, and the scale parameter c satisfying
the ratio chain u*_r/(r-1)! <= c u*_[r-1]/(r-2)! for r >= 3.

The engine maximizes the bare g formula over all of (0,1) (the entropy
k-floor is not applied here): the scale-parameter case formulas and the ratio
chain are statements about the formula on the full interval, and restricting
the domain can break the chain.  Pass p_window to maximize over a subinterval,
e.g. to compare against a closed bound that presumes p >= 1/k.

u_star works on log u_r = r log g(p) + log w(p), with the order-free base
log w = n log1p(-p) + log(-expm1(n log1p(-p))) - log p, which stays finite
where u_r itself underflows.  It scans a fixed log grid of 2*_GRID_POINTS
points, dense near both edges of the window.  The grid and log1p(-grid) are
built once per (window, point count); log w and log g on the grid once per
(n, g, window), so the orders 2..R+1 of one spec share them, and each order
costs one r*log g + log w and one argmax.  For power and entropy g, a
safeguarded Newton iteration on d log u_r/dp = 0, with closed-form
derivatives, refines the grid argmax between its two grid neighbours in a
few steps.  A user-defined g, whose derivatives are unknown, is refined by
golden-section search on Python floats instead.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, NumericalError, RegimeError
from .gfunction import GFunction, TypeA, Unclassified, classify

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Grid points per half-interval of u_star's global scan.
_GRID_POINTS = 20001

#: Golden-section search and the Newton refinement stop once their bracket
#: (or a Newton step) is this many ulps wide.
_STOP_ULPS = 4

#: Step cap of the Newton refinement.  Bisection alone narrows the bracket
#: between two grid neighbours to _STOP_ULPS ulps in about 40 steps.
_NEWTON_STEPS = 100

_LN2 = math.log(2.0)

#: log of the largest double: a larger log u*_r overflows.
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class UStarResult:
    """u*_r, its argmax, and log u*_r, which stays finite where value
    underflows to 0."""

    value: float
    argmax: float
    log_value: float


def _u_r_at(p: float, n: int, g: GFunction, r: int) -> float:
    """u_r at one p in (0,1) on Python floats; (1-p)^n = exp(n*log1p(-p))."""
    qn = math.exp(n * math.log1p(-p))
    return g.eval_raw(p) ** r * qn * (1.0 - qn) / p


def _log_u_r_at(p: float, n: int, g: GFunction, r: int) -> float:
    """log u_r at one p in (0,1).  log g is taken in closed form for power
    and entropy g, so that it stays finite where g(p) underflows."""
    if g.kind == "power":
        log_g = g.alpha * math.log(p)
    elif g.kind == "entropy_log2":
        log_g = math.log(p) + math.log(-math.log(p)) - math.log(_LN2)
    else:
        gp = g.eval_raw(p)
        log_g = math.log(gp) if gp > 0.0 else -math.inf
    t = n * math.log1p(-p)
    return r * log_g + t + math.log(-math.expm1(t)) - math.log(p)


def _dlog_u_r(p: float, n: int, g: GFunction, r: int) -> Tuple[float, float]:
    """(h'(p), h''(p)) of h = log u_r, for power and entropy g.

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
            return x + step
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


def _grid_then_golden(
    f: Callable[[float], float], grid: np.ndarray, vals: np.ndarray
) -> Tuple[float, float]:
    """Golden refinement between the neighbours of the grid argmax; keeps the
    grid point when refinement does not beat it.  Returns (argmax, value)."""
    i = int(np.argmax(vals))
    lo = float(grid[max(i - 1, 0)])
    hi = float(grid[min(i + 1, grid.size - 1)])
    x, fx = _golden_max(f, lo, hi)
    if fx < vals[i]:
        return float(grid[i]), float(vals[i])
    return float(x), float(fx)


@functools.lru_cache(maxsize=8)
def _scan_grid(lo: float, hi: float, points: int) -> Tuple[np.ndarray, np.ndarray]:
    """Logarithmically dense grid near both edges of (lo, hi), and
    log1p(-grid) beside it.  Both arrays are cached and read-only."""
    mid = 0.5 * (lo + hi)
    left = np.logspace(math.log10(lo), math.log10(mid), points)
    right = hi + lo - np.logspace(math.log10(lo), math.log10(mid), points)
    grid = np.unique(np.concatenate([left, right]))
    log_q = np.log1p(-grid)
    grid.flags.writeable = False
    log_q.flags.writeable = False
    return grid, log_q


@functools.lru_cache(maxsize=1)
def _scan_base(
    n: int, g: GFunction, lo: float, hi: float, points: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan grid with log w = n log1p(-p) + log(-expm1(n log1p(-p))) - log p
    and log g(grid) beside it, all read-only.

    Every order r of one (n, g, window) scans the same base; build_spec
    asks for its orders one after another, so one cached base serves them.
    The arrays are built in place, so that a build holds at most two
    arrays besides the base it replaces: log w and one scratch array, then
    log w and g, whose log is taken in place (except for a user-defined g,
    whose array may be the caller's).  log g is NaN where g is negative or
    NaN and +inf where g is infinite; either becomes the maximum of u_star's
    scan, which is how u_star detects it.
    """
    grid, log_q = _scan_grid(lo, hi, points)
    log_w = np.multiply(log_q, n)
    tmp = np.expm1(log_w)
    np.negative(tmp, out=tmp)
    log_w += np.log(tmp, out=tmp)
    log_w -= np.log(grid, out=tmp)
    del tmp
    gp = g.eval_raw(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_g = np.log(gp, out=None if g.kind == "user" else gp)
    log_w.flags.writeable = False
    log_g.flags.writeable = False
    return grid, log_w, log_g


@functools.lru_cache(maxsize=4096)
def u_star(
    n: int,
    g: GFunction,
    r: int,
    p_window: Optional[Tuple[float, float]] = None,
) -> UStarResult:
    """Global maximum of u_r over (0,1): dense log grid, then local refinement.

    u_r is not proven unimodal in p, so a global scan of log u_r on
    2*_GRID_POINTS points precedes the local refinement.  The grid is built
    once per (window, point count) and the base log w and log g on it once
    per (n, g, window), all cached: a further order costs one r*log g + log w
    and one argmax.  Between the grid argmax's neighbours, power and entropy
    g are refined by safeguarded Newton on d log u_r/dp = 0, a user-defined g
    by golden-section search.  value is u_r on Python floats at the refined
    argmax (or at the grid argmax, if that is larger) and log_value is
    log u_r there; value underflows to 0 where log_value stays finite.  When
    g underflows to 0 on the whole grid, value is 0, log_value -inf and the
    argmax the grid argmax.  Raises InvalidInputError when g is NaN, infinite
    or negative anywhere on the grid, or u*_r overflows, as for a
    user-defined g that returns such values.
    """
    if n < 1 or r < 2:
        raise InvalidInputError("u_star requires n >= 1 and r >= 2")
    lo, hi = p_window if p_window is not None else (1e-12, 1.0 - 1e-12)
    if not (0.0 < lo < hi < 1.0):
        raise InvalidInputError("p_window must satisfy 0 < lo < hi < 1")
    grid, log_w, log_g = _scan_base(n, g, lo, hi, _GRID_POINTS)
    log_u = r * log_g + log_w
    i = int(np.argmax(log_u))  # a NaN anywhere is the argmax
    if not log_u[i] <= _LOG_MAX:
        raise InvalidInputError(
            f"u_{r} of g = {g.descriptor()} is non-finite or negative on (0, 1)"
        )
    x0 = float(grid[i])
    if log_u[i] == -math.inf:
        return UStarResult(value=0.0, argmax=x0, log_value=-math.inf)
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, grid.size - 1)])
    if g.kind == "user":
        x = _golden_max(lambda p: _u_r_at(p, n, g, r), lo, hi)[0]
    else:
        x = _newton_max(lambda p: _dlog_u_r(p, n, g, r), lo, x0, hi)
    fx, f0 = _u_r_at(x, n, g, r), _u_r_at(x0, n, g, r)
    if fx < f0:
        x, fx = x0, f0
    return UStarResult(value=fx, argmax=x, log_value=_log_u_r_at(x, n, g, r))


@functools.lru_cache(maxsize=256)
def gamma_alpha(alpha: float) -> float:
    """max over t > 0 of t^(2*alpha-1) e^[-t](1-e^[-t]), alpha >= 1.

    Coarse scan of t in [1e-6, max(50, 4(2*alpha-1))], which holds the
    argmax (near 2*alpha-1), then golden-section refinement.  Where
    t^(2*alpha-1) overflows, the product is taken in log space.  Raises
    NumericalError when the maximum itself leaves the double range, from
    alpha = 87 (above about 86.1).
    """
    if not (alpha >= 1.0):
        raise InvalidInputError("gamma_alpha requires alpha >= 1")

    e = 2.0 * alpha - 1.0
    grid = np.logspace(-6, math.log10(max(50.0, 4.0 * e)), 4000)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = grid**e * np.exp(-grid) * (-np.expm1(-grid))
    if np.all(np.isfinite(vals)):
        def h(t):
            return t**e * math.exp(-t) * (-math.expm1(-t))
    else:
        with np.errstate(over="ignore"):
            vals = np.exp(e * np.log(grid) - grid + np.log(-np.expm1(-grid)))

        def h(t):
            return math.exp(e * math.log(t) - t + math.log(-math.expm1(-t)))
    msg = f"gamma_alpha({alpha:g}) exceeds the double range"
    if not np.all(np.isfinite(vals)):
        raise NumericalError(msg)
    try:
        return _grid_then_golden(h, grid, vals)[1]
    except OverflowError:  # the refinement stepped past the largest double
        raise NumericalError(msg)


def gamma_const() -> float:
    """gamma = max_t t e^[-t](1-e^[-t]) = 0.2603... (the alpha=1 case)."""
    return gamma_alpha(1.0)


@functools.lru_cache(maxsize=1)
def kappa_const() -> float:
    """max over u, v > 0 of (u/v^2) log(1+e^[-u](e^v-v-1)) = 0.2595...

    Coarse 2-D grid, then alternating coordinate-wise golden refinement.
    Doubling the Theorem-2 variance factor: 2*kappa = 0.519.
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


def u2_closed_bound(n: int, g: GFunction) -> float:
    """Closed-form upper bound on u*_2(n, g).

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
        ga = gamma_alpha(a)
        try:
            return ga / float(n) ** (2.0 * a - 1.0)
        except OverflowError:
            return math.exp(math.log(ga) - (2.0 * a - 1.0) * math.log(n))
    if g.kind == "entropy_log2":
        if n < 3:
            raise RegimeError("entropy u*_2 bound needs n >= 3")
        return math.log2(g.k_floor) ** 2 * gamma_const() / n
    raise InvalidInputError("no closed u*_2 bound for user-defined g")


def _ratio_nonincreasing(g: GFunction) -> bool:
    """Numeric check that g(p)/p is non-increasing on (0,1)."""
    p = np.logspace(-8, -1e-12, 2000)
    ratio = np.asarray(g.eval_raw(p), dtype=float) / p
    return bool(np.all(np.diff(ratio) <= 1e-12 * np.maximum(ratio[:-1], 1e-300)))


def scale_parameter(n: int, g: GFunction) -> float:
    """The scale constant c of the ratio chain, selected by g's type.

    Type A (mu):     c = 0.5 g(3 mu/(n+3 mu-1)) when mu <= 1 or n < 1+4 mu^2/(mu-1)^2;
                     otherwise the max of that and g(r2 mu/(n+r2 mu-1))/(r2-1),
                     r2 = 0.5(n-1)(1-1/mu)(1+sqrt(1-4 mu^2/((n-1)(mu-1)^2))).
    Type B (p*):     c = 0.5 g(3/(n+3/p*-1)) when g(p)/p is non-increasing or
                     n < 1+4/(1-p*)^2; otherwise the max of that and
                     g(r4/(n+r4/p*-1))/(r4-1),
                     r4 = 0.5(n-1)(1-p*)(1+sqrt(1-4/((n-1)(1-p*)^2))).

    g is evaluated by its bare formula (probe points may fall below an
    entropy k-floor).  Requires n >= 3 and a classified g.
    """
    if n < 3:
        raise RegimeError("scale parameter needs n >= 3")
    tc = classify(g)
    if isinstance(tc, Unclassified):
        raise InvalidInputError("scale parameter needs a Type A or Type B g")
    if isinstance(tc, TypeA):
        mu = tc.mu
        part1 = 0.5 * g.eval_raw(3.0 * mu / (n + 3.0 * mu - 1.0))
        if mu <= 1.0 or n < 1.0 + 4.0 * mu * mu / (mu - 1.0) ** 2:
            return float(part1)
        disc = 1.0 - 4.0 * mu * mu / ((n - 1.0) * (mu - 1.0) ** 2)
        r2 = 0.5 * (n - 1.0) * (1.0 - 1.0 / mu) * (1.0 + math.sqrt(max(disc, 0.0)))
        part2 = g.eval_raw(r2 * mu / (n + r2 * mu - 1.0)) / (r2 - 1.0)
        return float(max(part1, part2))
    p_star = tc.p_star
    part1 = 0.5 * g.eval_raw(3.0 / (n + 3.0 / p_star - 1.0))
    nonincreasing = (
        g.kind == "entropy_log2" or (g.kind == "user" and _ratio_nonincreasing(g))
    )
    if nonincreasing or n < 1.0 + 4.0 / (1.0 - p_star) ** 2:
        return float(part1)
    disc = 1.0 - 4.0 / ((n - 1.0) * (1.0 - p_star) ** 2)
    r4 = 0.5 * (n - 1.0) * (1.0 - p_star) * (1.0 + math.sqrt(max(disc, 0.0)))
    part2 = g.eval_raw(r4 / (n + r4 / p_star - 1.0)) / (r4 - 1.0)
    return float(max(part1, part2))
