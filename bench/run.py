#!/usr/bin/env python3
"""polarkit benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_lowfer --seed 20240509 --seconds 35 --trace 0

Every rep of a workload runs in a fresh single-threaded worker process
(worker.py) that imports polarkit from ./src and calls `polarkit.cli.main`
in-process. With --trace 0 the run makes the number of reps that --seconds
buys at the seed commit's speed and prints the end-to-end metrics; with
--trace 1 it runs rep 0 untraced and then traced, and prints the per-layer
metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See benchmark.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, reps_for, sim_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

#: set-up time is the median over at least this many fresh processes
SETUP_SAMPLES = 5
#: the whole run, workers included, ends within this many seconds
RUN_DEADLINE_S = 170.0

SIM_HEADER = (
    "epsilon,N,K,trials,bit_errors,bit_erasures,frame_errors,ber,fer,"
    "ci_low,ci_high,seed"
)
SURVEY_EXPECT = {
    "kernels": "65536",
    "invertible_curves": "11",
    "best_group_size": "192",
    "polarising_invertible": "18624",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(workload: Workload, tmp: Path, tag: str, deadline: float, *,
               seed: int = 0, setup_only: bool = False, trace: bool = False):
    """Run one worker process; returns its result dict, or None on failure."""
    result_path = tmp / f"result-{tag}.json"
    spec = {
        "src": str(ROOT / "src"),
        "workload": workload.name,
        "workdir": str(tmp),
        "tag": tag,
        "sim_seed": seed,
        "setup_only": setup_only,
        "trace": str(WORK / "traces" / f"{workload.name}.json.gz") if trace else None,
        "result": str(result_path),
    }
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=worker_env(), stdout=subprocess.PIPE, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker {tag} exceeded the run deadline", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"worker {tag} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text())


def planned_ops(workload: Workload, setup_only: bool) -> int:
    n = len(workload.setup_commands(Path()))
    return n if setup_only else n + len(workload.timed_commands(Path(), 0, ""))


class Checker:
    """Output checks; every failed check fails the operation it inspects."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = json.loads(REFERENCE.read_text())
        self.seen_path = WORK / "reports.json"
        self.seen = (
            json.loads(self.seen_path.read_text()) if self.seen_path.exists() else {}
        )
        self.attempted = 0
        self.failures: list[str] = []

    def worker(self, result, setup_only: bool, rep: int | None = None) -> None:
        """Check every operation of one worker; a lost worker fails them all."""
        if result is None:
            n = planned_ops(self.workload, setup_only)
            self.attempted += n
            self.failures += ["worker produced no result"] * n
            return
        for op in result["ops"]:
            self.attempted += 1
            try:
                problem = self._op(op, rep)
            except (KeyError, ValueError, TypeError) as exc:
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
            if problem:
                self.failures.append(f"{op['kind']} {op['label']}: {problem}")

    def _op(self, op, rep) -> str | None:
        if op["error"] or op["rc"] != 0:
            return f"exit {op['rc']} {op['error'] or ''}".strip()
        if op["kind"] == "construct":
            return self._construct(op)
        if op["kind"] == "simulate":
            return self._simulate(op, rep)
        return self._survey(op)

    def _code(self, label):
        return next(c for c in self.workload.codes if c.label == label)

    def _construct(self, op) -> str | None:
        code = self._code(op["label"])
        try:
            mask = json.loads(op["output"])["frozen_mask"]
        except (KeyError, ValueError) as exc:
            return f"unreadable code descriptor: {exc}"
        if (len(mask), mask.count("0")) != (code.n, code.k):
            return f"descriptor has N={len(mask)} K={mask.count('0')}"
        return None

    def _simulate(self, op, rep) -> str | None:
        code = self._code(op["label"])
        text = op.get("output", "")
        lines = text.splitlines()
        if len(lines) != 2 or lines[0] != SIM_HEADER:
            return "report CSV is not one header and one row"
        f = dict(zip(SIM_HEADER.split(","), lines[1].split(",")))
        seed = sim_seed(self.seed, rep)
        ints = {k: int(f[k]) for k in ("N", "K", "trials", "bit_errors",
                                        "bit_erasures", "frame_errors", "seed")}
        fer, lo, hi = float(f["fer"]), float(f["ci_low"]), float(f["ci_high"])
        expect = {"N": code.n, "K": code.k, "trials": code.trials, "seed": seed}
        if any(ints[k] != v for k, v in expect.items()) or float(f["epsilon"]) != self.workload.eps:
            return f"report describes another run: {lines[1]}"
        if not ints["frame_errors"] <= ints["trials"]:
            return "frame_errors > trials"
        if not ints["bit_erasures"] <= ints["bit_errors"]:
            return "bit_erasures > bit_errors"
        if not lo <= fer <= hi:
            return "fer outside its confidence interval"
        key = f"{self.workload.name}/{code.label}/trials={code.trials}/seed={seed}"
        if self.seen.setdefault(key, text) != text:
            return f"report differs from an earlier run of the same seed: {key}"
        if seed == sim_seed(DEFAULT_SEED, rep):
            ref = self.reference[self.workload.name][code.label]
            if rep >= len(ref) or ref[rep] != text:
                return f"report differs from the recorded seed-commit reference (rep {rep})"
        return None

    def _survey(self, op) -> str | None:
        fields = dict(t.split("=", 1) for t in op["stdout"].split() if "=" in t)
        got = {k: fields.get(k) for k in SURVEY_EXPECT}
        if got != SURVEY_EXPECT:
            return f"summary {got} != {SURVEY_EXPECT}"
        if op.get("csv_rows") != 65536 or op.get("csv_distinct_kernels") != 65536:
            return "CSV does not have one row per kernel"
        if op.get("csv_sha256") != self.reference["survey_4x4"]["csv_sha256"]:
            return "CSV differs from the recorded seed-commit reference"
        return None

    def save(self) -> None:
        tmp = self.seen_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=0, sort_keys=True))
        os.replace(tmp, self.seen_path)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_facts(workload: Workload, seed: int, reps: int, versions: dict) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            caches[f"L{level.strip()}"] = size.strip()
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "git_commit": commit,
        "workload": workload.name,
        "seed": seed,
        "reps": reps,
        "sim_seeds": [sim_seed(seed, r) for r in range(reps)] if workload.is_mc else None,
        "trials_per_rep": {c.label: c.trials for c in workload.codes} or None,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, tmp, deadline, check):
    reps = reps_for(workload, seconds)
    results = []
    for rep in range(reps):
        res = run_worker(workload, tmp, f"rep{rep}", deadline, seed=sim_seed(seed, rep))
        check.worker(res, False, rep)
        if res is None:
            return reps, None
        results.append(res)
        print(f"rep {rep}: wall {res['wall_s']:.3f} s, CPU {res['cpu_s']:.3f} s, "
              f"set-up {res['setup_s']:.3f} s, peak RSS {res['peak_rss_mb']:.1f} MB")
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        res = run_worker(workload, tmp, f"setup{len(setups)}", deadline, setup_only=True)
        check.worker(res, True)
        if res is None:
            return reps, None
        setups.append(res["setup_s"])
    wall = sum(r["wall_s"] for r in results)
    return reps, {
        "items_per_s": metric(reps * workload.items_per_rep() / wall, "1/s"),
        "wall_s": metric(wall, "s"),
        "cpu_s": metric(sum(r["cpu_s"] for r in results), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def measure_traced(workload, seed, tmp, deadline, check):
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    plain = run_worker(workload, tmp, "plain", deadline, seed=seed)
    check.worker(plain, False, 0)
    traced = run_worker(workload, tmp, "traced", deadline, seed=seed, trace=True)
    check.worker(traced, False, 0)
    if plain is None or traced is None:
        return None
    for a, b in zip(plain["ops"], traced["ops"]):
        check.attempted += 1
        if (a.get("output"), a.get("csv_sha256")) != (b.get("output"), b.get("csv_sha256")):
            check.failures.append(f"{b['kind']} {b['label']}: traced output differs")
    for name in traced["missing_hooks"]:
        print(f"hook absent or changed, metrics left out: {name}", file=sys.stderr)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = metric(traced["wall_s"] - plain["wall_s"], "s")
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced['wall_s']:.3f} s")
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit makes subprocess.run kill and reap the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "polarkit" / "__init__.py").is_file():
        print(f"no polarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        check = Checker(workload, args.seed)
        warm = run_worker(workload, tmp, "warm", deadline, setup_only=True)
        if warm is None:
            print("set-up failed: polarkit could not be imported or run", file=sys.stderr)
            return 1
        check.worker(warm, True)
        if args.trace:
            reps, metrics = 1, measure_traced(workload, args.seed, tmp, deadline, check)
        else:
            reps, metrics = measure(workload, args.seed, args.seconds, tmp, deadline, check)
        check.save()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for failure in check.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("facts " + json.dumps(machine_facts(workload, args.seed, reps, warm)))
    print(json.dumps({
        "correct": not check.failures and metrics is not None,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": metrics or {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
