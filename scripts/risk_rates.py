#!/usr/bin/env python3
"""Monte Carlo risk curves: convergence rates of the generalized estimator
and the worst-case level of the classical one.

Usage: python scripts/risk_rates.py [--trials N] [--seed S]
"""

import argparse
import sys

from missingmass import distributions as dm
from missingmass import estimators as est
from missingmass import gfunction as gf
from missingmass import risk_lab as rl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10**4)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    print("rate of the order-alpha estimator on uniform(K=n)")
    print(f"{'alpha':>6} {'slope':>8} {'expected':>9}")
    for alpha in (1, 2):
        kind = est.generalized_good_turing(alpha)
        g = gf.power(float(alpha))
        pairs = []
        for n in (20, 40, 80, 160):
            rep = rl.mc_risk(dm.uniform(n), kind, g, [n], args.trials, args.seed)
            pairs.append((n, rep.rows[0].mse))
        slope, _, _ = rl.rate_fit(pairs)
        print(f"{alpha:>6} {slope:>8.3f} {-(2 * alpha - 1):>9}")

    print()
    print("classical estimator at n=100: n * MSE by support size")
    print(f"{'K':>6} {'n*mse':>10} {'3 se * n':>10}")
    for k in (10, 100, 1000):
        rep = rl.mc_risk(dm.uniform(k), est.good_turing(), gf.power(1.0),
                         [100], args.trials, args.seed)
        row = rep.rows[0]
        print(f"{k:>6} {100 * row.mse:>10.4f} {300 * row.se:>10.4f}")

    print()
    print("signed bias of the order-alpha estimator on uniform(K=n)")
    print(f"{'alpha':>6} {'n':>5} {'bias':>12} {'3 se':>10} {'bound':>10}")
    for alpha in (1, 2, 3):
        for n in (10, 20, 50):
            kind = est.generalized_good_turing(alpha)
            g = gf.power(float(alpha))
            mean, se = rl.mc_bias(dm.uniform(n), kind, g, n, args.trials, args.seed)
            bound = est.gt_bias_bound(n, alpha)
            print(f"{alpha:>6} {n:>5} {mean:>12.3e} {3 * se:>10.2e} {bound:>10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
