#!/usr/bin/env python3
"""Sweep the distribution no-go over every reduced fraction p = n/d with
d up to a bound, verify both clause orientations, and print a histogram
of the delay exponent each refutation needs.  Weights whose exponent is
past the replay bound (nogo.MAX_EXPONENT) are counted, not replayed."""

import argparse
import math
import sys
import time
from collections import Counter
from fractions import Fraction

from delaydist import nogo


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-denominator", type=int, default=64)
    ap.add_argument("--branch", choices=("Eq1", "Eq2", "both"), default="both")
    ns = ap.parse_args()
    branches = ("Eq1", "Eq2") if ns.branch == "both" else (ns.branch,)

    t0 = time.perf_counter()
    hist = {b: Counter() for b in branches}
    past_bound = Counter()
    weights = 0
    for den in range(2, ns.max_denominator + 1):
        for num in range(1, den):
            if math.gcd(num, den) != 1:
                continue
            p = Fraction(num, den)
            weights += 1
            for b in branches:
                try:
                    tr = nogo.distributions_nogo_replay(p, b)
                except ValueError:
                    past_bound[b] += 1
                    continue
                if not tr.verify():
                    print(f"trace for p={p} {b} failed to verify", file=sys.stderr)
                    return 1
                hist[b][tr.meta["n"]] += 1
    elapsed = time.perf_counter() - t0

    print(f"{weights} mixing weights with denominator <= {ns.max_denominator}, "
          f"{len(branches)} orientation(s), {elapsed:.1f}s")
    for b in branches:
        print(f"\ndelay exponent n, branch {b}:")
        if past_bound[b]:
            print(f"  {past_bound[b]} weight(s) need n > {nogo.MAX_EXPONENT}, not replayed")
        top = max(hist[b].values())
        for n in sorted(hist[b]):
            bar = "#" * max(1, round(40 * hist[b][n] / top))
            print(f"  n={n:>3}  {hist[b][n]:>5}  {bar}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
