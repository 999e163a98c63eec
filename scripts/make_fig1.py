#!/usr/bin/env python3
"""Emit the reference tail-curve CSVs and report deviations from the frozen
reference table used by the acceptance tests.

Usage: python scripts/make_fig1.py [--outdir DIR]
"""

import argparse
import json
import pathlib
import sys

from missingmass.cli import fig1_rows, main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="out", help="where to write the CSVs")
    args = ap.parse_args()

    rc = cli_main(["fig1", "--outdir", args.outdir])
    if rc:
        return rc

    ref_path = pathlib.Path(__file__).parent.parent / "tests" / "data" / "reference_tail_curves.json"
    reference = json.loads(ref_path.read_text())
    print()
    print("max relative deviation from the frozen reference curves")
    print(f"{'n':>6} {'subgauss':>12} {'r2':>12} {'r5':>12}")
    for n in (20, 100, 1000):
        _, rows = fig1_rows(n)
        devs = []
        for j, key in enumerate(("subgauss", "r2", "r5"), start=1):
            ref = reference[str(n)][key]["bound"]
            rel = max(
                abs(row[j] - want) / want
                for row, want in zip(rows, ref)
                if want > 0.0
            )
            devs.append(rel)
        print(f"{n:>6} " + " ".join(f"{d:>12.3%}" for d in devs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
