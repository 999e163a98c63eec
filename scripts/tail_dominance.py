#!/usr/bin/env python3
"""Tail-frequency dominance matrix: for each (g, distribution, n) cell,
the largest margin by which any bound column sits above the observed
frequency (negative would mean a violation).

Usage: python scripts/tail_dominance.py [--trials N] [--seed S]
"""

import argparse
import sys

from missingmass import distributions as dm
from missingmass import gfunction as gf
from missingmass import risk_lab as rl
from missingmass.errors import InvalidInputError

EPS = (0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10**4)
    ap.add_argument("--seed", type=int, default=13)
    args = ap.parse_args()

    gs = [gf.power(1.0), gf.power(2.0), gf.entropy_log2(64)]
    dists = [dm.uniform(50), dm.zipf(200, 1.0)]

    print(f"{'g':>12} {'dist':>12} {'n':>5} {'worst slack':>12} {'tightest bound':>22}")
    for g in gs:
        for d in dists:
            for n in (20, 100):
                try:
                    rep = rl.mc_tail(d, g, n, args.trials, EPS, args.seed)
                except InvalidInputError as exc:
                    print(f"{g.descriptor():>12} {d.label:>12} {n:>5}  refused: {exc}")
                    continue
                worst, which = None, ""
                for name, col in rep.bounds.items():
                    freqs = rep.right_freq if name.startswith("right") else rep.left_freq
                    for f, b in zip(freqs, col):
                        slack = b - f
                        if worst is None or slack < worst:
                            worst, which = slack, name
                print(f"{g.descriptor():>12} {d.label:>12} {n:>5} {worst:>12.4f} {which:>22}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
