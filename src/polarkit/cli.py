"""Command-line front end.

Subcommands: analyze, survey, exponent, bound, construct, simulate,
oracle-check. Every option is validated before any computation starts, and
an option that would be silently ignored next to another is refused
(`simulate --code` with the inline construction, `exponent --kernel` with
`--size` or `--family`); file outputs are written atomically. Exit codes: 0
success; 3 for a budget, memory or I/O failure (BudgetExceededError,
MemoryError, OSError) and a failed oracle check; 2 for any other
ValueError, each of which refuses bad input. Relative output paths resolve
under $POLARKIT_OUT_DIR when it is set; input paths (`simulate --code`) are
read as given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bec, survey as survey_mod
from .codec import PolarCode
from .errors import _SEED_LIMIT, BudgetExceededError, _normalisable, check_integer
from .errors import check_design_rate, check_key_word, check_unit_interval
# enumerate_kernels is unused here but stays importable: bench/tracing.py
# hooks `polarkit.cli.enumerate_kernels`.
from .kernels import (  # noqa: F401
    FAMILIES,
    batch_distances,
    batch_exponents,
    check_size_budget,
    enumerate_kernels,
    family_rows,
    parse_kernel,
    row_descriptors,
)
from .ioutil import atomic_write_text
from .sim import StopRule, run_monte_carlo, sim_csv_text

_ORACLE_EPS = (0.1, 0.3, 0.5, 0.7, 0.9)
_ORACLE_TOL = 1e-12


def _out_path(name: str) -> Path:
    p = Path(name)
    base = os.environ.get("POLARKIT_OUT_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


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
    p.add_argument("--family", choices=FAMILIES, default=FAMILIES[0])
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--depth", type=int, default=None, help="default: 7 if size=3 else 5")
    p.add_argument("--out", help="survey CSV destination")

    p = sub.add_parser("exponent", help="partial distances and rate exponents")
    p.add_argument("--kernel", action="append", help="may repeat")
    p.add_argument("--size", type=int)
    p.add_argument(
        "--family", choices=FAMILIES, help=f"with --size; default: {FAMILIES[1]}"
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
    p.add_argument("--design-eps", type=float, help="default: 0.5")
    p.add_argument("--eps", required=True, help="channel rates, comma-separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-frame-errors", type=int, default=100)
    p.add_argument("--max-trials", type=int, default=1_000_000)
    p.add_argument("--out", help="simulation CSV destination")

    p = sub.add_parser("oracle-check", help="verify profile against brute force")
    p.add_argument("--kernel", required=True)

    return parser.parse_args(argv)


def _rates(text: str, option: str) -> list[float]:
    """A comma-separated list of at least one rate in [0, 1], with no empty
    item: a doubled, leading or trailing comma is more likely a typo than
    intent."""
    items = text.split(",")
    if not any(items):
        raise ValueError(f"{option} must list at least one rate")
    if not all(items):
        raise ValueError(f"bad {option}: empty item in {text!r}")
    try:
        rates = [float(r) for r in items]
    except ValueError as exc:
        raise ValueError(f"bad {option}: {exc}") from None
    return [check_unit_interval(rate, option) for rate in rates]


def _cmd_analyze(ns) -> int:
    kernel = parse_kernel(ns.kernel)
    check_unit_interval(ns.eps, "--eps")
    check_integer(ns.depth, "--depth")
    spectrum = bec.evolve_spectrum(kernel, ns.eps, ns.depth)
    # eps0^2 normalises d_p; it is undefined where that square is 0 and
    # imprecise where it is subnormal.
    dist = float("nan")
    if _normalisable(ns.eps):
        dist = bec.polarisation_distance(spectrum)
    if ns.out:
        atomic_write_text(_out_path(ns.out), bec.spectrum_csv_text(spectrum))
    print(
        f"analyze kernel={kernel.descriptor()} N={spectrum.size} "
        f"eps0={ns.eps:g} d_p={dist:.12g}"
    )
    return 0


def _cmd_survey(ns) -> int:
    check_integer(ns.size, "--size", 2)
    check_design_rate(ns.eps, "--eps")
    depth = ns.depth if ns.depth is not None else (7 if ns.size == 3 else 5)
    check_integer(depth, "--depth", 1)
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
    given = [option for option, value in (("--size", ns.size), ("--family", ns.family))
             if value is not None]
    if ns.kernel and given:
        raise ValueError(f"--kernel and {given[0]} are mutually exclusive")
    if ns.kernel:
        kernels = [parse_kernel(text) for text in ns.kernel]
        batches = [([k.descriptor()], [k.row_bits()], k.l) for k in kernels]
    elif ns.size is not None:
        check_integer(ns.size, "--size", 2)
        rows = family_rows(ns.size, ns.family or FAMILIES[1])
        batches = [(row_descriptors(rows), rows, ns.size)]
    else:
        raise ValueError("provide --kernel or --size")
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
    check_unit_interval(ns.eps, "--eps")
    check_integer(ns.depth, "--depth")
    rates = _rates(ns.rates, "--rates")
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
    """K from --k, else from --rate; a --rate that --k overrides is still
    checked."""
    rate = None if ns.rate is None else check_unit_interval(ns.rate, "--rate")
    if ns.info_k is not None:
        return check_integer(ns.info_k, "--k", maximum=n)
    if rate is None:
        raise ValueError("provide --rate or --k")
    return round(rate * n)


def _construct_code(ns, design_eps: float, eps_label: str) -> PolarCode:
    """The code of --kernel, --depth and --rate (or --k) at `design_eps`."""
    kernel = parse_kernel(ns.kernel)
    check_integer(ns.depth, "--depth")
    check_unit_interval(design_eps, eps_label)
    n = check_size_budget(kernel.l, ns.depth)
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
    inline = {"--kernel": ns.kernel, "--depth": ns.depth, "--rate": ns.rate,
              "--design-eps": ns.design_eps}
    given = [option for option, value in inline.items() if value is not None]
    if ns.code is not None and given:
        raise ValueError(f"--code and {given[0]} are mutually exclusive")
    check_key_word(ns.seed, "--seed")
    # The run's options are checked before the code is read or built: an
    # inline construction evolves its whole spectrum.
    eps_list = _rates(ns.eps, "--eps")
    check_integer(ns.min_frame_errors, "--min-frame-errors", 1)
    check_integer(ns.max_trials, "--max-trials", 1)
    if ns.max_trials > _SEED_LIMIT:
        raise ValueError("--max-trials must be <= 2**64: trial ids are 64-bit")
    stop = StopRule(min_frame_errors=ns.min_frame_errors, max_trials=ns.max_trials)
    if ns.code:
        try:
            with open(ns.code) as fh:
                code = PolarCode.from_json_dict(json.load(fh, parse_int=_json_int))
        except FileNotFoundError as exc:
            raise ValueError(f"code file not found: {exc.filename}") from None
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # Field checks raise the first three (JSONDecodeError is a ValueError);
            # deep nesting overflows json.load's stack.
            raise ValueError(f"bad code descriptor: {exc}") from None
    elif ns.kernel and ns.depth is not None and ns.rate is not None:
        ns.info_k = None  # simulate has no --k
        design_eps = 0.5 if ns.design_eps is None else ns.design_eps
        code = _construct_code(ns, design_eps, "--design-eps")
    else:
        raise ValueError("provide --code, or --kernel with --depth and --rate")
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
    except (BudgetExceededError, MemoryError, OSError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # Every other ValueError, KernelFormatError included, refuses input.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return execute(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
