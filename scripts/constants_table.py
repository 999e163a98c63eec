#!/usr/bin/env python3
"""Print the variational constants behind the closed-form bounds.

gamma_alpha maximizes t^(2a-1) e^[-t](1-e^[-t]); kappa maximizes
(u/v^2) log(1+e^[-u](e^v-v-1)) and doubles into the two-sided
sub-Gaussian variance factor.
"""

import math
import sys

from missingmass.ustar_engine import gamma_const, kappa_const, log_gamma_alpha


def main() -> int:
    print(f"{'constant':<24} {'value':>20}")
    print(f"{'gamma':<24} {gamma_const():>20.15f}")
    print(f"{'1/(2 gamma)':<24} {1.0 / (2.0 * gamma_const()):>20.15f}")
    for a in (1.5, 2.0, 2.5, 3.0):
        print(f"{f'gamma_alpha({a:g})':<24} {math.exp(log_gamma_alpha(a)):>20.15f}")
    print(f"{'kappa':<24} {kappa_const():>20.15f}")
    print(f"{'2 kappa':<24} {2 * kappa_const():>20.15f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
