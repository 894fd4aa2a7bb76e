"""Command-line front end.

Subcommands: analyze, survey, exponent, bound, construct, simulate,
oracle-check. Every option is validated before any computation starts; file
outputs are written atomically. Exit codes: 0 success, 2 invalid input,
3 computational or I/O failure. Relative output paths resolve under
$POLARKIT_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bec, survey as survey_mod
from .codec import PolarCode
from .errors import BudgetExceededError, KernelFormatError
# enumerate_kernels is unused here but stays importable: bench/tracing.py
# hooks `polarkit.cli.enumerate_kernels`.
from .kernels import (  # noqa: F401
    batch_distances,
    batch_exponents,
    enumerate_kernels,
    family_rows,
    parse_kernel,
    row_descriptors,
)
from .ioutil import atomic_write_text
from .sim import _SEED_LIMIT, StopRule, run_monte_carlo, sim_csv_text

_ORACLE_EPS = (0.1, 0.3, 0.5, 0.7, 0.9)
_ORACLE_TOL = 1e-12


class UsageError(ValueError):
    """Invalid option values (exit code 2)."""


def _out_path(name: str) -> Path:
    p = Path(name)
    base = os.environ.get("POLARKIT_OUT_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _check_eps(value: float, label: str = "--eps") -> float:
    if not 0.0 <= value <= 1.0:
        raise UsageError(f"{label} must be in [0, 1], got {value}")
    return value


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="polarkit",
        description="Generalised polar codes on the binary erasure channel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="erasure spectrum of one kernel")
    p.add_argument("--kernel", required=True, help="rows, e.g. 100,110,011")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--out", help="spectrum CSV destination")

    p = sub.add_parser("survey", help="group a kernel family by polarisation")
    p.add_argument("--size", type=int, required=True)
    p.add_argument(
        "--family",
        choices=["all", "lower_triangular_unit_diagonal"],
        default="all",
    )
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=None, help="default: 7 if size=3 else 5")
    p.add_argument("--out", help="survey CSV destination")

    p = sub.add_parser("exponent", help="partial distances and rate exponents")
    p.add_argument("--kernel", action="append", help="may repeat")
    p.add_argument("--size", type=int)
    p.add_argument(
        "--family",
        choices=["all", "lower_triangular_unit_diagonal"],
        default="lower_triangular_unit_diagonal",
    )

    p = sub.add_parser("bound", help="block-error union bounds over rates")
    p.add_argument("--kernel", required=True)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--rates", required=True, help="comma-separated, e.g. 0.1,0.2")
    p.add_argument("--out", help="bounds CSV destination")

    p = sub.add_parser("construct", help="build a code descriptor JSON")
    p.add_argument("--kernel", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--rate", type=float)
    p.add_argument("--k", type=int, dest="info_k", help="explicit K (overrides --rate)")
    p.add_argument("--eps", type=float, default=0.5, help="design erasure rate")
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="Monte Carlo BER/FER of a code")
    p.add_argument("--code", help="code descriptor JSON from `construct`")
    p.add_argument("--kernel", help="inline construction instead of --code")
    p.add_argument("--depth", type=int)
    p.add_argument("--rate", type=float)
    p.add_argument("--design-eps", type=float, default=0.5)
    p.add_argument("--eps", required=True, help="channel rates, comma-separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-frame-errors", type=int, default=100)
    p.add_argument("--max-trials", type=int, default=1_000_000)
    p.add_argument("--out", help="simulation CSV destination")

    p = sub.add_parser("oracle-check", help="verify profile against brute force")
    p.add_argument("--kernel", required=True)

    return parser.parse_args(argv)


def _cmd_analyze(ns) -> int:
    kernel = parse_kernel(ns.kernel)
    _check_eps(ns.eps)
    if ns.depth < 0:
        raise UsageError("--depth must be >= 0")
    spectrum = bec.evolve_spectrum(kernel, ns.eps, ns.depth)
    # eps0^2 normalises d_p; it is undefined where that square is 0.
    dist = bec.polarisation_distance(spectrum) if ns.eps * ns.eps else float("nan")
    if ns.out:
        atomic_write_text(_out_path(ns.out), bec.spectrum_csv_text(spectrum))
    print(
        f"analyze kernel={kernel.descriptor()} N={spectrum.size} "
        f"eps0={ns.eps:g} d_p={dist:.12g}"
    )
    return 0


def _cmd_survey(ns) -> int:
    if ns.size < 2:
        raise UsageError("--size must be >= 2")
    # A survey normalises by eps^2, so an eps whose square underflows to 0
    # has no distance curves.
    if not 0.0 < ns.eps <= 1.0 or ns.eps * ns.eps == 0.0:
        raise UsageError(f"--eps must be in (0, 1] and square to > 0, got {ns.eps}")
    depth = ns.depth if ns.depth is not None else (7 if ns.size == 3 else 5)
    if depth < 1:
        raise UsageError("--depth must be >= 1")
    records = survey_mod.survey_family(ns.size, ns.family, ns.eps, depth)
    if ns.out:
        survey_mod.export_survey(records, _out_path(ns.out))
    total = sum(r.member_count for r in records)
    summary = survey_mod.invertible_summary(records)
    print(
        f"survey size={ns.size} family={ns.family} kernels={total} "
        f"groups={len(records)} invertible_curves={summary.curve_count} "
        f"best_group_size={summary.best_group_size} "
        f"polarising_invertible={summary.polarising_count}"
    )
    return 0


def _cmd_exponent(ns) -> int:
    if ns.kernel:
        kernels = [parse_kernel(text) for text in ns.kernel]
        batches = [([k.descriptor()], [k.row_bits()], k.l) for k in kernels]
    elif ns.size is not None:
        if ns.size < 2:
            raise UsageError("--size must be >= 2")
        rows = family_rows(ns.size, ns.family)
        batches = [(row_descriptors(rows), rows, ns.size)]
    else:
        raise UsageError("provide --kernel or --size")
    # Every batch is computed before the first line is printed, so a refused
    # kernel leaves no partial output.
    tables = [
        (names, batch_distances(rows, l).tolist(), batch_exponents(rows, l).tolist())
        for names, rows, l in batches
    ]
    for names, dists, exponents in tables:
        for desc, d, exponent in zip(names, dists, exponents):
            if 0 in d:
                print(f"{desc}  singular")
                continue
            print(f"{desc}  d=({','.join(map(str, d))})  exponent={exponent:.12g}")
    return 0


def _cmd_bound(ns) -> int:
    kernel = parse_kernel(ns.kernel)
    _check_eps(ns.eps)
    if ns.depth < 0:
        raise UsageError("--depth must be >= 0")
    try:
        rates = [float(r) for r in ns.rates.split(",") if r]
    except ValueError as exc:
        raise UsageError(f"bad --rates: {exc}") from None
    if not rates or any(not 0.0 <= r <= 1.0 for r in rates):
        raise UsageError("--rates values must be in [0, 1]")
    spectrum = bec.evolve_spectrum(kernel, ns.eps, ns.depth)
    rows = bec.bound_curve(spectrum, rates)
    shown = [f"R={rate:g}:{bound:.3g}" for rate, _, bound in rows]
    if ns.out:
        atomic_write_text(_out_path(ns.out), bec.bounds_csv_text(rows))
    print(
        f"bound kernel={kernel.descriptor()} N={spectrum.size} eps0={ns.eps:g} "
        + " ".join(shown)
    )
    return 0


def _resolve_k(ns, n: int) -> int:
    if ns.info_k is not None:
        k_info = ns.info_k
    elif ns.rate is not None:
        if not 0.0 <= ns.rate <= 1.0:
            raise UsageError("--rate must be in [0, 1]")
        k_info = round(ns.rate * n)
    else:
        raise UsageError("provide --rate or --k")
    if not 0 <= k_info <= n:
        raise UsageError(f"K must be in [0, {n}]")
    return k_info


def _construct_code(ns, design_eps: float, eps_label: str) -> PolarCode:
    """The code of --kernel, --depth and --rate (or --k) at `design_eps`."""
    kernel = parse_kernel(ns.kernel)
    if not kernel.invertible:
        raise UsageError("codes require an invertible kernel")
    if ns.depth < 0:
        raise UsageError("--depth must be >= 0")
    _check_eps(design_eps, eps_label)
    # Checked before l**depth is formed, which would not finish for a huge
    # depth.
    bec._check_spectrum_budget(kernel.l, ns.depth)
    n = kernel.l**ns.depth
    return PolarCode.construct(kernel, ns.depth, _resolve_k(ns, n), design_eps)


def _cmd_construct(ns) -> int:
    code = _construct_code(ns, ns.eps, "--eps")
    atomic_write_text(_out_path(ns.out), json.dumps(code.to_json_dict()) + "\n")
    print(f"construct {code.code_id()} N={code.N} -> {ns.out}")
    return 0


def _json_int(text: str) -> int:
    """A JSON integer literal; one too long for int() is refused with a
    plain message rather than Python's hint about its digit limit."""
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ValueError(f"integer of {digits} digits is out of range") from None


def _cmd_simulate(ns) -> int:
    if not 0 <= ns.seed < _SEED_LIMIT:
        raise UsageError(f"--seed must be in [0, 2**64), got {ns.seed}")
    if ns.code:
        try:
            with open(_out_path(ns.code)) as fh:
                code = PolarCode.from_json_dict(json.load(fh, parse_int=_json_int))
        except FileNotFoundError as exc:
            raise UsageError(f"code file not found: {exc.filename}") from None
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            # Field checks raise the first three (JSONDecodeError is a ValueError);
            # a huge design_eps overflows float() and deep nesting json.load.
            raise UsageError(f"bad code descriptor: {exc}") from None
    elif ns.kernel and ns.depth is not None:
        ns.info_k = None
        code = _construct_code(ns, ns.design_eps, "--design-eps")
    else:
        raise UsageError("provide --code, or --kernel with --depth and --rate")
    try:
        eps_list = [float(e) for e in ns.eps.split(",") if e]
    except ValueError as exc:
        raise UsageError(f"bad --eps: {exc}") from None
    if not eps_list:
        raise UsageError("--eps must list at least one channel rate")
    for e in eps_list:
        _check_eps(e)
    if ns.min_frame_errors < 1 or ns.max_trials < 1:
        raise UsageError("--min-frame-errors and --max-trials must be >= 1")
    if ns.max_trials > _SEED_LIMIT:
        raise UsageError("--max-trials must be <= 2**64: trial ids are 64-bit")
    stop = StopRule(min_frame_errors=ns.min_frame_errors, max_trials=ns.max_trials)
    reports = []
    for eps in eps_list:
        report = run_monte_carlo(code, eps, stop, master_seed=ns.seed)
        reports.append(report)
        print(
            f"simulate {code.code_id()} eps={eps:g} trials={report.trials} "
            f"frame_errors={report.frame_errors} fer={report.fer:.6g} "
            f"ci=[{report.fer_ci_low:.6g},{report.fer_ci_high:.6g}] "
            f"ber={report.ber:.6g} seed={ns.seed}"
        )
    if ns.out:
        atomic_write_text(_out_path(ns.out), sim_csv_text(reports))
    return 0


def _cmd_oracle_check(ns) -> int:
    kernel = parse_kernel(ns.kernel)
    profile = bec.one_step_profile(kernel)
    worst = 0.0
    for eps in _ORACLE_EPS:
        for i in range(kernel.l):
            got = bec.exhaustive_split_oracle(kernel, 1, eps, i)
            want = bec.evaluate_erasure(profile, i, eps)
            worst = max(worst, abs(got - want))
    if worst > _ORACLE_TOL:
        print(
            f"oracle-check kernel={kernel.descriptor()} FAILED "
            f"max|delta|={worst:.3g} > {_ORACLE_TOL:g}"
        )
        return 3
    print(
        f"oracle-check kernel={kernel.descriptor()} ok "
        f"max|delta|={worst:.3g} at {len(_ORACLE_EPS)} erasure rates"
    )
    return 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "survey": _cmd_survey,
    "exponent": _cmd_exponent,
    "bound": _cmd_bound,
    "construct": _cmd_construct,
    "simulate": _cmd_simulate,
    "oracle-check": _cmd_oracle_check,
}


def execute(ns: argparse.Namespace) -> int:
    try:
        return _DISPATCH[ns.command](ns)
    except (UsageError, KernelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, MemoryError, OSError, ValueError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return execute(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
