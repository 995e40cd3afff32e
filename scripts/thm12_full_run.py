#!/usr/bin/env python3
"""Full-bound dominance run for 2-hooks vs 1-hooks at a chosen t.

The sign check is asserted from n = bound(t) on, so the series order must
reach the bound; the run goes --margin orders past it.  Wall time and peak
RSS on a 2-core Xeon with Python 3.11.7: t = 2 (bound 2990) well under a
second; t = 3 (bound 30692) about 1 s, 29 MiB; t = 4 (bound 146330) about
18 s, 124 MiB; t = 5 (bound 477632) about 170 s, 593 MiB.  The unit
division in the t-regular series dominates.  A negative --margin or a t
below 2 is a usage error (exit 2).
"""

import argparse
import sys
import time

from hookcounts.checks import emit, run_thm12
from hookcounts.injections import o5_weight_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument(
        "--margin", type=int, default=100, help="orders to scan beyond the bound"
    )
    parser.add_argument("--format", choices=("json", "human"), default="human")
    args = parser.parse_args()

    if args.margin < 0:
        # an order below the bound asserts nothing, and the check passes vacuously
        print("error: --margin must be nonnegative", file=sys.stderr)
        return 2
    try:
        bound = o5_weight_bound(args.t) + 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    order = bound + args.margin
    print(f"t={args.t}: bound {bound}, running to order {order}", file=sys.stderr)
    started = time.time()
    check = run_thm12(args.t, order)
    print(f"finished in {time.time() - started:.1f}s", file=sys.stderr)
    emit(check, args.format, sys.stdout)
    return 0 if check.passed else 1


if __name__ == "__main__":
    sys.exit(main())
