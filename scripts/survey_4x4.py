#!/usr/bin/env python3
"""Full 4x4 kernel survey with the published-count cross-check.

Surveys all 65,536 binary 4x4 kernels at eps0 = 0.5, depth 5, writes the
per-kernel CSV, and compares the invertible-population headline numbers
against the published reference (11 curves / 192 in the best group / 18,624
polarising). Exits 1 on any deviation, printing both value sets.
"""

import argparse
import sys
import time

from polarkit import export_survey, invertible_summary, survey_family

PUBLISHED = (11, 192, 18624)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--out", default="survey_4x4.csv")
    args = parser.parse_args()

    start = time.perf_counter()
    records = survey_family(4, "all", args.eps, args.depth)
    export_survey(records, args.out)
    summary = invertible_summary(records)
    computed = (
        summary.curve_count,
        summary.best_group_size,
        summary.polarising_count,
    )
    print(
        f"surveyed 65,536 kernels in {time.perf_counter() - start:.1f}s -> {args.out}"
    )
    print(f"groups over all kernels: {len(records)}")
    print(f"invertible population (curves, best group, polarising): {computed}")
    print(f"published reference values:                              {PUBLISHED}")
    if args.eps == 0.5 and args.depth == 5 and computed != PUBLISHED:
        print("MISMATCH against published values", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
