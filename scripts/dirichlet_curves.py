#!/usr/bin/env python3
"""Dirichlet-prior variance curves: closed form vs Monte Carlo, the decay
rate across n, and the 1/(8n) asymptote for the classical missing mass.

Usage: python scripts/dirichlet_curves.py [--trials N] [--seed S]
"""

import argparse
import sys

from missingmass import risk_lab as rl


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=29)
    ap.add_argument("--c", type=float, default=1.0)
    args = ap.parse_args()

    print(f"{'alpha':>6} {'n':>5} {'closed':>13} {'monte carlo':>13} {'rel diff':>9}")
    for alpha in (1, 2):
        for n in (10, 20, 40):
            closed = rl.dirichlet_prior_variance(n, args.c, alpha)
            mc, _ = rl.dirichlet_mc_variance(n, args.c, alpha, args.trials, args.seed)
            print(f"{alpha:>6} {n:>5} {closed:>13.6e} {mc:>13.6e} "
                  f"{abs(mc - closed) / closed:>9.2%}")

    print()
    print("decay rate across n in (20, 40, 80)")
    for alpha in (1, 2):
        pairs = [(n, rl.dirichlet_prior_variance(n, args.c, alpha)) for n in (20, 40, 80)]
        slope, _ = rl.rate_fit(pairs)
        print(f"  alpha={alpha}: slope {slope:.3f} (theory {-(2 * alpha - 1)})")

    n = 200
    closed = rl.dirichlet_prior_variance(n, 1.0, 1)
    print()
    print(f"alpha=1, c=1, n={n}: closed {closed:.6e} vs 1/(8n) = {1 / (8 * n):.6e} "
          f"({abs(closed - 1 / (8 * n)) * 8 * n:.2%} off)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
