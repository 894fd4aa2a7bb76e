#!/usr/bin/env python3
"""Record the reference outputs that run.py checks at the default seed.

Run from the root of a checkout of the commit whose outputs are the
reference: `python3 bench/record_reference.py`. It writes reference.json:
every Monte Carlo report of reps 0..MAX_REPS-1 at the default seed, and the
SHA-256 of the survey CSV (which depends on no seed).
"""

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import REFERENCE, WORK, run_worker
from workloads import DEFAULT_SEED, MAX_REPS, WORKLOADS, sim_seed


def outputs(workload, tmp, rep):
    res = run_worker(workload, tmp, f"rep{rep}", time.monotonic() + 600,
                     seed=sim_seed(DEFAULT_SEED, rep))
    if res is None or any(op["rc"] != 0 for op in res["ops"]):
        sys.exit(f"{workload.name} rep {rep} failed")
    return [op for op in res["ops"] if op["kind"] != "construct"]


def main() -> None:
    reference = {"seed": DEFAULT_SEED}
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=WORK))
    try:
        for workload in WORKLOADS.values():
            if not workload.is_mc:
                (op,) = outputs(workload, tmp, 0)
                reference[workload.name] = {"csv_sha256": op["csv_sha256"]}
                continue
            reports = {c.label: [] for c in workload.codes}
            for rep in range(MAX_REPS):
                for op in outputs(workload, tmp, rep):
                    reports[op["label"]].append(op["output"])
            reference[workload.name] = reports
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
