"""Workload definitions of the polarkit benchmark.

Every workload is a list of `polarkit` command lines: the set-up commands run
once per process and are timed as set-up; the timed commands are one
repetition ("rep") of the workload's fixed work. A run does a whole number
of reps, derived from the run length only (see `reps_for`), so the work of a
run is the same on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20240509

#: every code is constructed for erasure rate 0.5, as in criterion 10
DESIGN_EPS = 0.5

#: the flagship 4x4 kernel G_e, Arikan's 2x2 kernel G_2 and the README's 3x3
GE = "1000,1001,0101,1111"
G2 = "10,11"
G3 = "100,110,011"

#: most reps a run makes; the recorded reference reports cover reps below it
MAX_REPS = 8


@dataclass(frozen=True)
class Code:
    label: str
    kernel: str
    depth: int
    k: int
    trials: int  # trials simulated per rep; a multiple of 64 (see tracing.py)

    @property
    def n(self) -> int:
        return len(self.kernel.split(",")) ** self.depth


@dataclass(frozen=True)
class Command:
    kind: str  # "construct", "simulate" or "survey"
    label: str
    argv: tuple[str, ...]
    out: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: wall seconds of one rep at the seed commit on the reference machine;
    #: only used to turn --seconds into a rep count
    rep_seconds: float
    codes: tuple[Code, ...] = ()
    eps: float = 0.5
    survey_size: int = 0
    survey_depth: int = 0

    @property
    def is_mc(self) -> bool:
        return bool(self.codes)

    def items_per_rep(self) -> int:
        """Trials (Monte Carlo) or kernels (survey) processed by one rep."""
        if self.is_mc:
            return sum(c.trials for c in self.codes)
        return 2 ** (self.survey_size * self.survey_size)

    def setup_commands(self, workdir: Path) -> list[Command]:
        return [
            Command(
                "construct",
                c.label,
                (
                    "construct", "--kernel", c.kernel, "--depth", str(c.depth),
                    "--k", str(c.k), "--eps", repr(DESIGN_EPS),
                    "--out", str(workdir / f"{c.label}.json"),
                ),
                workdir / f"{c.label}.json",
            )
            for c in self.codes
        ]

    def timed_commands(self, workdir: Path, sim_seed: int, tag: str) -> list[Command]:
        if not self.is_mc:
            out = workdir / f"survey-{tag}.csv"
            return [
                Command(
                    "survey",
                    "survey",
                    (
                        "survey", "--size", str(self.survey_size), "--family", "all",
                        "--eps", repr(self.eps), "--depth", str(self.survey_depth),
                        "--out", str(out),
                    ),
                    out,
                )
            ]
        cmds = []
        for c in self.codes:
            out = workdir / f"sim-{c.label}-{tag}.csv"
            cmds.append(
                Command(
                    "simulate",
                    c.label,
                    (
                        "simulate", "--code", str(workdir / f"{c.label}.json"),
                        "--eps", repr(self.eps), "--seed", str(sim_seed),
                        "--max-trials", str(c.trials),
                        # frame_errors <= trials, so the trial cap ends every run
                        "--min-frame-errors", str(c.trials + 1),
                        "--out", str(out),
                    ),
                    out,
                )
            )
        return cmds


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_lowfer",
            why=(
                "criterion-10 point: G_e vs G_2, N=1024, K=256, eps 0.5; dyadic "
                "packed channel path (Philox, bit transpose, screen), FER ~5e-6 "
                "so flagged frames are decoded at B~1"
            ),
            rep_seconds=4.8,
            codes=(
                Code("ge", GE, 5, 256, 1 << 18),
                Code("g2", G2, 10, 256, 1 << 18),
            ),
            eps=0.5,
        ),
        Workload(
            name="mc_waterfall",
            why=(
                "eps 0.45 is not dyadic and N=3^7 is not a multiple of 64: general "
                "k=64 channel path (_erasure_block, packbits); FER 1-3% so the "
                "decoder runs at large batch size"
            ),
            rep_seconds=8.1,
            codes=(
                Code("ge", GE, 5, 384, 1 << 15),
                Code("g3", G3, 7, 729, 1 << 14),
            ),
            eps=0.45,
        ),
        Workload(
            name="survey_4x4",
            why=(
                "full 65,536-kernel 4x4 survey with CSV export: exercises kernels, "
                "gf2, survey, bec and ioutil, which the Monte Carlo workloads skip"
            ),
            rep_seconds=19.0,
            eps=0.5,
            survey_size=4,
            survey_depth=5,
        ),
    )
}


def reps_for(workload: Workload, seconds: float) -> int:
    """Reps that fill `seconds` at the seed commit's speed (at least one)."""
    return max(1, min(MAX_REPS, int(seconds / workload.rep_seconds)))


def sim_seed(seed: int, rep: int) -> int:
    """Simulation seed of one rep.

    Rep 0 simulates the benchmark seed itself. Later reps replay the fixed
    reference streams DEFAULT_SEED + rep * 2**32, whose reports reference.json
    records. At FER ~5e-6 a flagged frame costs as much to decode alone as
    ~10^5 screened trials, and their number per rep is Poisson with mean ~1.4
    per code, so a run whose every rep drew fresh streams would vary in work
    by ~15% from seed to seed; fixed streams keep that variation to rep 0.
    """
    return seed if rep == 0 else DEFAULT_SEED + (rep << 32)


def subuniform_bits(eps: float) -> int:
    """Channel bits per symbol for `eps`, per the layout in polarkit.sim:
    the smallest k in {1, 2, ..., 64} with eps * 2**k an integer, else 64."""
    if eps <= 0.0 or eps >= 1.0:
        return 1
    den = float(eps).as_integer_ratio()[1]
    for k in (1, 2, 4, 8, 16, 32, 64):
        if den <= 1 << k:
            return k
    return 64
