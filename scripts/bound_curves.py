#!/usr/bin/env python3
"""Block-error union bounds versus code rate for the small kernel families.

Writes two CSVs: bounds for all eight lower-triangular 3x3 kernels at
N = 3^7 = 2187, and the flagship 4x4 kernel against the 2x2 construction at
N = 1024 (depths 5 and 10).
"""

import argparse
from pathlib import Path

import numpy as np

from polarkit import bound_curve, enumerate_kernels, evolve_spectrum, parse_kernel
from polarkit.ioutil import atomic_write_text

RATES = np.linspace(0.05, 0.95, 19)


def bound_rows(kernel, depth, eps):
    name = kernel.descriptor().replace(",", ";")
    rows = bound_curve(evolve_spectrum(kernel, eps, depth), RATES)
    return [f"{name},{rate:.12g},{k_info},{bound:.12g}" for rate, k_info, bound in rows]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()
    out = Path(args.out_dir)

    header = "kernel_rows,rate,K,bound"
    lines = [header]
    for kernel in enumerate_kernels(3, "lower_triangular_unit_diagonal"):
        lines += bound_rows(kernel, 7, args.eps)
    atomic_write_text(out / "bounds_3x3.csv", "\n".join(lines) + "\n")

    lines = [header]
    lines += bound_rows(parse_kernel("1000,1001,0101,1111"), 5, args.eps)
    lines += bound_rows(parse_kernel("10,11"), 10, args.eps)
    atomic_write_text(out / "bounds_1024.csv", "\n".join(lines) + "\n")
    print(f"wrote {out/'bounds_3x3.csv'} and {out/'bounds_1024.csv'}")


if __name__ == "__main__":
    main()
