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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidInputError, RegimeError
from .gfunction import GFunction, TypeA, TypeB, Unclassified, classify

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Grid points per half-interval of u_star's global scan.
_GRID_POINTS = 20001

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class UStarResult:
    value: float
    argmax: float
    r: int
    n: int


def u_r_eval(p, n: int, g: GFunction, r: int):
    """g(p)^r (1-p)^n (1-(1-p)^n) / p for p in (0,1).

    (1-p)^n is computed as exp(n*log1p(-p)) so small p and large n are stable.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise InvalidInputError("u_r is defined on p in (0, 1)")
    qn = np.exp(n * np.log1p(-arr))
    gv = np.asarray(g.eval_raw(arr), dtype=float)
    out = gv**r * qn * (1.0 - qn) / arr
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, iters: int = 100
) -> Tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (argmax, value)."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        if b - a <= 1e-17 * max(abs(a), abs(b), 1e-300):
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


def _scan_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """Logarithmically dense grid near both edges of (lo, hi)."""
    mid = 0.5 * (lo + hi)
    left = np.logspace(math.log10(lo), math.log10(mid), points)
    right = hi + lo - np.logspace(math.log10(lo), math.log10(mid), points)
    return np.unique(np.concatenate([left, right]))


@functools.lru_cache(maxsize=4096)
def u_star(
    n: int,
    g: GFunction,
    r: int,
    p_window: Optional[Tuple[float, float]] = None,
) -> UStarResult:
    """Global maximum of u_r over (0,1): dense log grid, then golden refinement.

    u_r is not proven unimodal in p, so a global scan of 2*_GRID_POINTS
    points precedes the local refinement.  Raises InvalidInputError when u_r
    is non-finite or negative anywhere on the grid, as it is for a
    user-defined g that returns NaN, inf or negative values.
    """
    if n < 1 or r < 2:
        raise InvalidInputError("u_star requires n >= 1 and r >= 2")
    lo, hi = p_window if p_window is not None else (1e-12, 1.0 - 1e-12)
    if not (0.0 < lo < hi < 1.0):
        raise InvalidInputError("p_window must satisfy 0 < lo < hi < 1")
    grid = _scan_grid(lo, hi, _GRID_POINTS)
    vals = u_r_eval(grid, n, g, r)
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)):
        raise InvalidInputError(
            f"u_{r} of g = {g.descriptor()} is non-finite or negative on (0, 1)"
        )
    x, fx = _grid_then_golden(lambda p: u_r_eval(p, n, g, r), grid, vals)
    return UStarResult(value=fx, argmax=x, r=r, n=n)


@functools.lru_cache(maxsize=256)
def gamma_alpha(alpha: float) -> float:
    """max over t in (0, 50] of t^(2*alpha-1) e^[-t](1-e^[-t]), alpha >= 1.

    Golden-section refinement to 1e-8 relative after a coarse bracket scan.
    """
    if not (alpha >= 1.0):
        raise InvalidInputError("gamma_alpha requires alpha >= 1")

    e = 2.0 * alpha - 1.0

    def h(t):
        return t**e * math.exp(-t) * (-math.expm1(-t))

    grid = np.logspace(-6, math.log10(50.0), 4000)
    vals = grid**e * np.exp(-grid) * (-np.expm1(-grid))
    return _grid_then_golden(h, grid, vals)[1]


def gamma_const() -> float:
    """gamma = max_t t e^[-t](1-e^[-t]) = 0.2603... (the alpha=1 case)."""
    return gamma_alpha(1.0)


def two_gamma_inverse() -> float:
    """1/(2*gamma) = 1.9208..., the left-tail sub-Gaussian rate constant."""
    return 1.0 / (2.0 * gamma_const())


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
        u, best = _golden_max(lambda x: f(x, v), u / 4.0, u * 4.0, iters=80)
        v, best = _golden_max(lambda y: f(u, y), v / 4.0, v * 4.0, iters=80)
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
        return gamma_alpha(a) / float(n) ** (2.0 * a - 1.0)
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
