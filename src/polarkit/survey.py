"""Kernel family surveys: polarisation signatures, grouping, CSV export.

Every kernel of a family is scored by its normalised polarisation distance
curve over increasing recursion depth; kernels with identical curves (within
1e-12 componentwise) land in one group. The survey pipeline works on arrays
of row bits: it computes the one-step count tables of all kernels in bulk
with vectorised numpy, evolves one curve per distinct table, and builds a
Kernel object only for each group's representative. The count tables, curves
and exponents come from the batch routines of `bec` and `kernels`, the same
ones behind the single-kernel calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bec import one_step_profile
from .errors import BudgetExceededError
from .ioutil import atomic_write_text
from .kernels import Kernel, family_rows, row_descriptors

# bench/tracing.py times the survey stages through these module names, and
# hooks bernstein_eval here as well as in bec.
from .bec import batch_curves as _batch_curves
from .bec import batch_profiles as _batch_profiles
from .bec import bernstein_eval  # noqa: F401
from .kernels import batch_exponents as _batch_exponents

#: componentwise tolerance for treating two distance curves as identical
CURVE_TOL = 1e-12

#: a kernel "shows polarisation" iff its curve drops by more than this margin
#: between the first and the final depth
POLARISING_MARGIN = 1e-9

_MAX_SPECTRUM = 1 << 20


@dataclass(frozen=True)
class Signature:
    """Canonical per-kernel polarisation fingerprint.

    `profile_multiset` is the kernel's one-step count table with the rows
    sorted lexicographically; kernels with equal multisets provably share one
    distance curve (the recursion only sees the multiset of one-step maps).
    """

    profile_multiset: tuple[tuple[int, ...], ...]
    distance_curve: tuple[float, ...]


@dataclass(frozen=True)
class SurveyMember:
    descriptor: str
    exponent: float | None
    order: int


@dataclass(frozen=True)
class GroupRecord:
    """One survey group: kernels sharing a distance curve.

    group_id 1 has the lowest (best) curve value at the final depth; ids are
    contiguous. `polarising` applies to every member (the flag is a function
    of the shared curve).
    """

    group_id: int
    member_count: int
    representative: Kernel
    distance_curve: tuple[float, ...]
    polarising: bool
    members: tuple[SurveyMember, ...]

    @property
    def invertible_count(self) -> int:
        return sum(1 for m in self.members if m.exponent is not None)


@dataclass(frozen=True)
class FamilySummary:
    """Survey headline numbers over the code-capable (invertible) kernels.

    Singular kernels lose capacity at every step, so their distance curves
    decay to zero trivially (dead channels park at erasure probability one);
    the meaningful polarisation census therefore restricts to invertible
    kernels. `curve_count` is the number of distinct curves among them,
    `best_group_size` the membership of the best such group, and
    `polarising_count` how many invertible kernels have a genuinely
    decreasing curve.
    """

    curve_count: int
    best_group_size: int
    polarising_count: int


def invertible_summary(records: Sequence[GroupRecord]) -> FamilySummary:
    """Headline counts of a survey restricted to invertible members."""
    inv = [r for r in records if r.invertible_count > 0]
    if not inv:
        return FamilySummary(0, 0, 0)
    best = min(inv, key=lambda r: r.group_id)
    polarising = sum(r.invertible_count for r in inv if r.polarising)
    return FamilySummary(
        curve_count=len(inv),
        best_group_size=best.invertible_count,
        polarising_count=polarising,
    )


def signature(k: Kernel, eps0: float, depth: int) -> Signature:
    """Signature of one kernel: a batch of one of the survey's curves."""
    if not 0.0 < eps0 <= 1.0:
        raise ValueError(f"design erasure rate must be in (0, 1], got {eps0}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if k.l**depth > _MAX_SPECTRUM:
        raise BudgetExceededError(
            f"signature depth {depth} exceeds the spectrum budget for l={k.l}"
        )
    profile = one_step_profile(k)
    curve = _batch_curves(np.array([profile.counts]), eps0, depth)[0]
    return Signature(
        profile_multiset=profile.multiset(), distance_curve=tuple(curve.tolist())
    )


def _row_bits(kernels: Sequence[Kernel]) -> np.ndarray:
    return np.array([k.row_bits() for k in kernels], dtype=np.uint32)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(a, axis=0, return_inverse=True)` for a 2-D integer array.

    A lexsort over the columns gives the same unique rows in the same order
    and is about 20x faster than np.unique's sort of rows as opaque bytes.
    """
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    new = np.ones(a.shape[0], dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(a.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


def group_survey(family: Iterable[Kernel], eps0: float, depth: int) -> list[GroupRecord]:
    """Cluster a kernel family by exact distance-curve equality.

    Groups are sorted by curve value at the final depth (ties by the full
    curve), ids starting at 1. A group is polarising iff its curve at the
    final depth sits below its depth-1 value by more than 1e-9.
    """
    kernels = list(family)
    if not kernels:
        raise ValueError("kernel family is empty")
    l = kernels[0].l
    if any(k.l != l for k in kernels):
        raise ValueError("kernel family mixes sizes")
    return _group_rows(_row_bits(kernels), l, eps0, depth)


def survey_family(l: int, family: str, eps0: float, depth: int) -> list[GroupRecord]:
    """`group_survey` over a whole `family_rows` family, without building a
    Kernel per member."""
    return _group_rows(family_rows(l, family), l, eps0, depth)


def _group_rows(rows: np.ndarray, l: int, eps0: float, depth: int) -> list[GroupRecord]:
    """Survey records for kernels given as an (M, l) array of row bits.

    The distance curve depends only on the one-step count table, so curves
    are evolved once per distinct table and broadcast back to the kernels.
    """
    if l**depth > _MAX_SPECTRUM:
        raise BudgetExceededError(
            f"survey depth {depth} exceeds the spectrum budget for l={l}"
        )
    m_count = rows.shape[0]
    counts = _batch_profiles(rows, l)
    tables, inverse = _unique_rows(counts.reshape(m_count, -1))
    curves = _batch_curves(tables.reshape(-1, l, l + 1), eps0, depth)[inverse]
    exponents = _batch_exponents(rows, l)

    order = np.lexsort(tuple(curves[:, j] for j in range(depth - 1, -1, -1)))
    ordered = curves[order]
    breaks = np.zeros(m_count, dtype=bool)
    breaks[0] = True
    if m_count > 1:
        breaks[1:] = (np.abs(np.diff(ordered, axis=0)) > CURVE_TOL).any(axis=1)
    starts = np.flatnonzero(breaks)
    ends = np.append(starts[1:], m_count)

    raw_groups = []
    for s, e in zip(starts, ends):
        members = np.sort(order[s:e])
        curve = tuple(float(v) for v in curves[members[0]])
        raw_groups.append((curve, members))
    raw_groups.sort(key=lambda g: (g[0][-1], g[0]))

    descriptors = row_descriptors(rows)
    exps = [None if math.isnan(x) else x for x in exponents.tolist()]
    records = []
    for gid, (curve, members) in enumerate(raw_groups, start=1):
        entries = tuple(
            SurveyMember(descriptor=descriptors[i], exponent=exps[i], order=i)
            for i in members.tolist()
        )
        records.append(
            GroupRecord(
                group_id=gid,
                member_count=len(entries),
                representative=Kernel.from_row_bits(rows[members[0]]),
                distance_curve=curve,
                polarising=bool(curve[-1] < curve[0] - POLARISING_MARGIN),
                members=entries,
            )
        )
    return records


def survey_csv_text(records: Sequence[GroupRecord]) -> str:
    if not records:
        raise ValueError("no survey records to export")
    depth = len(records[0].distance_curve)
    header = "kernel_rows,group_id,polarising,exponent," + ",".join(
        f"d{i}" for i in range(1, depth + 1)
    )
    lines = [header]
    for rec in records:
        curve = ",".join(f"{v:.12g}" for v in rec.distance_curve)
        for member in rec.members:
            exp = "" if member.exponent is None else f"{member.exponent:.12g}"
            rows = member.descriptor.replace(",", ";")
            lines.append(
                f"{rows},{rec.group_id},{int(rec.polarising)},{exp},{curve}"
            )
    return "\n".join(lines) + "\n"


def export_survey(records: Sequence[GroupRecord], destination) -> None:
    """Write the survey CSV (one row per kernel, groups in id order)."""
    atomic_write_text(destination, survey_csv_text(records))
