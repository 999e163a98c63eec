#!/usr/bin/env python3
"""Rebuild the order-2 and order-5 columns ("r2", "r5") of
reference_tail_curves.json, and the exact u*_r values of
reference_u_star.json, from an independent high-precision oracle.

Usage: python tests/data/make_reference_tail_curves.py

The oracle uses mpmath at 40 significant digits and does not import
missingmass.  For g(p) = p and n in {20, 100, 1000} it follows the recipe of
the order-R polynomial-filtered bound that acceptance criteria 02 (R = 2)
and 03 (R = 5) check:

    u_r(p)  = p^(r-1) (1-p)^n (1-(1-p)^n)       (g(p)^r (1-p)^n (1-(1-p)^n) / p)
    u*_r    = max over p in (0, 1) of u_r(p), for r = 2..R+1
    c       = 3 / (2 (n+2))
    v       = u*_(R+1) / (c^(R-1) R!)
    a_r     = u*_r / (r-1)! - c^(r-2) v,  r = 2..R
    f(l)    = sum_r a_r l^r / r + (v/c^2) (-c l - log(1 - c l)),  0 <= l < 1/c
    bound   = min(1, exp(-(l* eps - f(l*)))),  where f'(l*) = eps

u*_r is found from the stationarity condition
(r-1)/p - n/(1-p) + n (1-p)^(n-1) / (1-(1-p)^n) = 0: its sign is scanned on a
dense grid, exactly one sign change is required, and the root in that cell is
refined by bracketed root-finding.  l* is found the same way on (0, 1/c),
where f' rises strictly from 0 to infinity.  Each bound is rounded to 15
significant digits.

reference_u_star.json holds u*_r for g(p) = p, n in {20, 100, 1000} and
r = 2..6, each rounded to the nearest double, keyed by n and then r.

The "subgauss" column is exp(-n eps^2) and is left as it is.
"""

import functools
import json
import pathlib
import sys

import mpmath as mp

mp.mp.dps = 40

PATH = pathlib.Path(__file__).with_name("reference_tail_curves.json")
USTAR_PATH = pathlib.Path(__file__).with_name("reference_u_star.json")


@functools.lru_cache(maxsize=None)
def u_star(n, r):
    """max over p in (0, 1) of p^(r-1) (1-p)^n (1-(1-p)^n)."""
    n = mp.mpf(n)

    def u(p):
        qn = mp.exp(n * mp.log1p(-p))
        return p ** (r - 1) * qn * (1 - qn)

    def dlog(p):
        t = n * mp.log1p(-p)
        return (r - 1) / p - n / (1 - p) + n * mp.exp(t) / ((1 - p) * -mp.expm1(t))

    grid = [mp.mpf(10) ** (-12 + 12 * mp.mpf(i) / 4000) for i in range(4001)]
    grid = [p for p in grid if p < 1] + [1 - mp.mpf(10) ** -12]
    signs = [dlog(p) > 0 for p in grid]
    cells = [i for i in range(len(grid) - 1) if signs[i] != signs[i + 1]]
    if len(cells) != 1 or not signs[0]:
        raise RuntimeError(f"u_{r} at n={int(n)}: expected one interior maximum")
    i = cells[0]
    p = mp.findroot(dlog, (grid[i], grid[i + 1]), solver="anderson")
    return u(p)


def order_curve(n, R, eps_grid):
    """The order-R filtered bound for g(p) = p at each eps of eps_grid."""
    c = mp.mpf(3) / (2 * (n + 2))
    v = u_star(n, R + 1) / (c ** (R - 1) * mp.factorial(R))
    a = [u_star(n, r) / mp.factorial(r - 1) - c ** (r - 2) * v for r in range(2, R + 1)]
    for r, a_r in enumerate(a, start=2):
        if a_r < 0:
            raise RuntimeError(f"n={n}, R={R}: a_{r} = {a_r} < 0")

    def fprime(lam):
        poly = sum(a_r * lam ** (r - 1) for r, a_r in enumerate(a, start=2))
        return poly + v * lam / (1 - c * lam)

    def f(lam):
        poly = sum(a_r * lam ** r / r for r, a_r in enumerate(a, start=2))
        return poly + (v / c ** 2) * (-c * lam - mp.log1p(-c * lam))

    out = []
    for e in eps_grid:
        eps = mp.mpf(repr(e))
        if eps == 0:
            out.append(1.0)
            continue
        hi = (1 - mp.mpf(10) ** -6) / c
        while fprime(hi) <= eps:
            hi = (1 + c * hi) / (2 * c)
        lam = mp.findroot(lambda x: fprime(x) - eps, (mp.mpf(0), hi), solver="anderson")
        bound = min(mp.mpf(1), mp.exp(-(lam * eps - f(lam))))
        out.append(float(mp.nstr(bound, 15)))
    return out


def main() -> int:
    data = json.loads(PATH.read_text())
    for n, curves in data.items():
        for R in (2, 5):
            curves[f"r{R}"]["bound"] = order_curve(int(n), R, curves[f"r{R}"]["eps"])
    PATH.write_text(json.dumps(data, indent=1))
    print(f"wrote {PATH}")
    exact = {str(n): {str(r): float(u_star(n, r)) for r in range(2, 7)} for n in (20, 100, 1000)}
    USTAR_PATH.write_text(json.dumps(exact, indent=1))
    print(f"wrote {USTAR_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
