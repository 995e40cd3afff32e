#!/usr/bin/env python3
"""Scan the decomposition series for negative coefficients and print a table.

Reproduces the exception cells that the sign theorems carve out, including
the undeclared one the verifier found in E at (2, 6).  A --t-max below 2
or a negative --order is a usage error (exit 2).
"""

import argparse
import sys

from hookcounts.hookgf import decomposition_series


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=int, default=6)
    parser.add_argument("--order", type=int, default=300)
    args = parser.parse_args()

    # t = 1 has no t-regular series, and a scan of no t would print a vacuous table
    if args.t_max < 2:
        print("error: --t-max must be at least 2", file=sys.stderr)
        return 2
    if args.order < 0:
        print("error: --order must be nonnegative", file=sys.stderr)
        return 2
    print(f"negative coefficients up to order {args.order}")
    for name in ("D", "E", "F"):
        cells = []
        for t in range(2, args.t_max + 1):
            series = decomposition_series(name, t, args.order)
            cells.extend(
                (t, n, c) for n, c in enumerate(series.coeffs) if c < 0
            )
        rendered = ", ".join(f"(t={t}, n={n}: {c})" for t, n, c in cells) or "none"
        print(f"  {name}: {rendered}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
