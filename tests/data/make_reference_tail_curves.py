#!/usr/bin/env python3
"""Rebuild the order-2 column ("r2") of reference_tail_curves.json, and the
exact u*_r values of reference_u_star.json, from an independent
high-precision oracle.

Usage: python tests/data/make_reference_tail_curves.py

The oracle uses mpmath at 40 significant digits and does not import
missingmass.  For g(p) = p and n in {20, 100, 1000} it follows the recipe of
the order-2 polynomial-filtered bound that acceptance criterion 02 checks:

    u_r(p)  = p^(r-1) (1-p)^n (1-(1-p)^n)       (g(p)^r (1-p)^n (1-(1-p)^n) / p)
    u*_r    = max over p in (0, 1) of u_r(p), for r = 2, 3
    c       = 3 / (2 (n+2))
    v       = u*_3 / (2 c)
    a_2     = u*_2 - v
    f(l)    = a_2 l^2 / 2 + (v/c^2) (-c l - log(1 - c l)),  0 <= l < 1/c
    bound   = min(1, exp(-(l* eps - f(l*)))),  where f'(l*) = eps

u*_r is found from the stationarity condition
(r-1)/p - n/(1-p) + n (1-p)^(n-1) / (1-(1-p)^n) = 0: its sign is scanned on a
dense grid, exactly one sign change is required, and the root in that cell is
refined by bracketed root-finding.  l* is found the same way on (0, 1/c),
where f' rises strictly from 0 to infinity.  Each bound is rounded to 15
significant digits.

reference_u_star.json holds u*_r for g(p) = p, n in {20, 100, 1000} and
r = 2..6, each rounded to the nearest double, keyed by n and then r.

Only the "r2" column of reference_tail_curves.json is written.  The
"subgauss" column is exp(-n eps^2) and is left as it is.  The "r5" column is
also left as it is, because acceptance criterion 03 pins two of its points.
It does not follow the order-5 recipe
(c as above, v = u*_6 / (c^4 5!), a_r = u*_r/(r-1)! - c^(r-2) v).  With
exact u*_r, the recipe's curve is up to 2.9% from it at n=20, 42% at n=100
and about 2.8e4 times it in the far tail at n=1000.  With u*_r taken as the
maximum over the 999 interior points of linspace(0, 1, 1001), the
deviations are 2.9%, 42% and 86 times.  Its
origin is unknown.
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


def order2_curve(n, eps_grid):
    """The order-2 filtered bound for g(p) = p at each eps of eps_grid."""
    c = mp.mpf(3) / (2 * (n + 2))
    u2, u3 = u_star(n, 2), u_star(n, 3)
    v = u3 / (2 * c)
    a2 = u2 - v
    if a2 < 0:
        raise RuntimeError(f"n={n}: a_2 = {a2} < 0")

    def fprime(lam):
        return a2 * lam + v * lam / (1 - c * lam)

    def f(lam):
        return a2 * lam ** 2 / 2 + (v / c ** 2) * (-c * lam - mp.log1p(-c * lam))

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
        curves["r2"]["bound"] = order2_curve(int(n), curves["r2"]["eps"])
    PATH.write_text(json.dumps(data, indent=1))
    print(f"wrote {PATH}")
    exact = {str(n): {str(r): float(u_star(n, r)) for r in range(2, 7)} for n in (20, 100, 1000)}
    USTAR_PATH.write_text(json.dumps(exact, indent=1))
    print(f"wrote {USTAR_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
