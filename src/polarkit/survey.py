"""Kernel family surveys: polarisation signatures, grouping, CSV export.

Every kernel of a family is scored by its normalised polarisation distance
curve over increasing recursion depth; kernels with identical curves (within
1e-12 componentwise) land in one group. The survey pipeline works on arrays
of row bits. Count tables and partial distances do not change when a later
row is added to an earlier one, so each kernel is first reduced to its
row-canonical form (row i taken modulo the span of the rows below it), and
the count tables and exponents are computed once per form (2,266 of the
65,536 4x4 kernels) and broadcast back. One curve is evolved per distinct
count table, the distinct tables are grouped by curve, and a Kernel object
is built only for each group's representative. The count tables, curves and
exponents come from the batch routines of `bec` and `kernels`, the same ones
behind the single-kernel calls. Group records are columnar: each holds
its members' row bits, exponents and family indices as arrays, the CSV is
written from those arrays, and per-member `SurveyMember` objects are built
only when `GroupRecord.members` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from . import gf2
from .bec import one_step_profile
from .errors import check_design_rate, check_integer
from .ioutil import _CSV_BLOCK, atomic_write_text, concat_text
from .kernels import Kernel, check_size_budget, family_rows, row_descriptors

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

#: largest final-level spectrum l^depth a survey's distance curves evolve
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


@dataclass(frozen=True, eq=False)
class GroupRecord:
    """One survey group: kernels sharing a distance curve.

    group_id 1 has the lowest (best) curve value at the final depth; ids are
    contiguous. `polarising` applies to every member (the flag is a function
    of the shared curve). The members are held as columns: their row bits,
    rate exponents (NaN for a singular kernel) and family indices, in
    ascending family order.
    """

    group_id: int
    member_count: int
    representative: Kernel
    distance_curve: tuple[float, ...]
    polarising: bool
    member_rows: np.ndarray
    member_exponents: np.ndarray
    member_orders: np.ndarray

    @property
    def invertible_count(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.member_exponents)))

    @property
    def members(self) -> tuple[SurveyMember, ...]:
        """One `SurveyMember` per member, built from the columns on demand."""
        return tuple(
            SurveyMember(
                descriptor=d, exponent=None if math.isnan(x) else x, order=i
            )
            for d, x, i in zip(
                row_descriptors(self.member_rows),
                self.member_exponents.tolist(),
                self.member_orders.tolist(),
            )
        )


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
    eps0 = check_design_rate(eps0, "design erasure rate")
    depth = check_integer(depth, "depth")
    check_size_budget(k.l, depth, _MAX_SPECTRUM)
    profile = one_step_profile(k)
    curve = _batch_curves(np.array([profile.counts]), eps0, depth)[0]
    return Signature(
        profile_multiset=profile.multiset(), distance_curve=tuple(curve.tolist())
    )


def _row_bits(kernels: Sequence[Kernel]) -> np.ndarray:
    return np.array([k.row_bits() for k in kernels], dtype=np.uint32)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`np.unique(a, axis=0, return_inverse=True)` for a 2-D integer array.

    Each column is offset by its minimum and takes as many bits as its largest
    offset needs; the columns are packed in order, as many as fit, into uint64
    words, the first column of a word in its high bits. A lexsort over the
    words, each cast to the narrowest dtype that holds it, then gives the same
    unique rows in the same order, much faster than np.unique's sort of rows
    as opaque bytes. A column of up to 64 bits fits one word, so any integer
    dtype and row length is accepted.
    """
    words = []
    word, used = np.zeros(a.shape[0], dtype=np.uint64), 0
    for column in a.T:
        lo = column.min()
        width = (int(column.max()) - int(lo)).bit_length()
        if used + width > 64:
            words.append((word, used))
            word, used = np.zeros_like(word), 0
        # uint64 arithmetic wraps, so the offset is exact for negative entries.
        offset = column.astype(np.uint64) - lo.astype(np.uint64)
        word = (word << np.uint64(width)) | offset
        used += width
    words.append((word, used))
    # numpy sorts keys of up to 16 bits by radix.
    keys = [w.astype(np.min_scalar_type((1 << n) - 1)) for w, n in words]
    order = np.lexsort(keys[::-1])
    same = np.ones(a.shape[0] - 1, dtype=bool)  # row equals the one before
    for key in keys:
        ordered = key[order]
        same &= ordered[1:] == ordered[:-1]
    new = np.concatenate(([True], ~same))
    inverse = np.empty(a.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


def _canonical_rows(rows: np.ndarray, l: int) -> np.ndarray:
    """Row-canonical form of every kernel in an (M, l) array of row bits.

    Row i becomes the least member of its coset modulo the span of rows
    i+1..l-1 (`gf2.bottom_up_reduce` with the kernels as lanes). Two kernels
    share a form iff one turns into the other by adding later rows to
    earlier ones.
    """
    return gf2.bottom_up_reduce(rows.T).T


def group_survey(family: Iterable[Kernel], eps0: float, depth: int) -> list[GroupRecord]:
    """Cluster a kernel family by exact distance-curve equality.

    Groups are sorted by curve value at the final depth (ties by the full
    curve), ids starting at 1. A group is polarising iff its curve at the
    final depth sits below its depth-1 value by more than 1e-9. `eps0` must
    lie in (0, 1] and `depth` be at least 1.
    """
    eps0 = check_design_rate(eps0, "design erasure rate")
    depth = check_integer(depth, "depth", 1)
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
    eps0 = check_design_rate(eps0, "design erasure rate")
    depth = check_integer(depth, "depth", 1)
    return _group_rows(family_rows(l, family), l, eps0, depth)


def _group_rows(rows: np.ndarray, l: int, eps0: float, depth: int) -> list[GroupRecord]:
    """Survey records for kernels given as an (M, l) array of row bits.

    Count tables and partial distances do not change when a later row is
    added to an earlier one (Korada, Sasoglu and Urbanke, IEEE Trans. IT
    2010), so they are computed once per row-canonical form (2,266 of the
    65,536 4x4 kernels), on the form's first kernel, and broadcast back. The
    distance curve depends only on the count table, so curves are evolved and
    grouped once per distinct table (230 on 4x4). Identical curves are
    adjacent in the curve order, so grouping the distinct tables finds the
    same CURVE_TOL breaks as grouping every kernel would; a group's curve is
    that of its lowest-index member.
    """
    check_size_budget(l, depth, _MAX_SPECTRUM)
    m_count = rows.shape[0]
    _, form_of = _unique_rows(_canonical_rows(rows, l))
    first = np.full(form_of.max() + 1, m_count)
    np.minimum.at(first, form_of, np.arange(m_count))
    reps = rows[first]
    counts = _batch_profiles(reps, l)
    tables, table_of_form = _unique_rows(counts.reshape(reps.shape[0], -1))
    curves = _batch_curves(tables.reshape(-1, l, l + 1), eps0, depth)
    exponents = _batch_exponents(reps, l)[form_of]

    order = np.lexsort(curves.T[::-1])
    breaks = np.ones(order.size, dtype=bool)
    breaks[1:] = (np.abs(np.diff(curves[order], axis=0)) > CURVE_TOL).any(axis=1)
    group_count = int(np.count_nonzero(breaks))
    # The smallest label dtype keeps the stable argsort a radix sort.
    group_of_table = np.empty(order.size, dtype=np.min_scalar_type(group_count))
    group_of_table[order] = np.cumsum(breaks) - 1
    labels = group_of_table[table_of_form[form_of]]
    by_group = np.argsort(labels, kind="stable")  # members stay ascending
    ends = np.cumsum(np.bincount(labels))  # every group has a member

    raw_groups = []
    for members in np.split(by_group, ends[:-1]):
        table = table_of_form[form_of[members[0]]]
        raw_groups.append((tuple(curves[table].tolist()), members))
    raw_groups.sort(key=lambda g: (g[0][-1], g[0]))

    records = []
    for gid, (curve, members) in enumerate(raw_groups, start=1):
        records.append(
            GroupRecord(
                group_id=gid,
                member_count=members.size,
                representative=Kernel.from_row_bits(rows[members[0]]),
                distance_curve=curve,
                polarising=bool(curve[-1] < curve[0] - POLARISING_MARGIN),
                member_rows=rows[members],
                member_exponents=exponents[members],
                member_orders=members,
            )
        )
    return records


def survey_csv_text(records: Sequence[GroupRecord]) -> str:
    """The survey CSV: a header, then one line per member, groups in id order.

    The text is grown in place by `concat_text` from blocks of _CSV_BLOCK
    members, so it is held once and no list spans the family. A line is the
    member's descriptor followed by one of its group's suffixes (group id,
    polarising flag, exponent and curve), each formatted once per distinct
    exponent (NaN, the singular kernels, gives an empty cell); a block joins
    the descriptors and shared suffixes directly, without a string per line.
    """
    if not records:
        raise ValueError("no survey records to export")
    return concat_text(_csv_blocks(records))


def _csv_blocks(records: Sequence[GroupRecord]):
    depth = len(records[0].distance_curve)
    yield (
        "kernel_rows,group_id,polarising,exponent,"
        + ",".join(f"d{i}" for i in range(1, depth + 1))
        + "\n"
    )
    for rec in records:
        middle = f",{rec.group_id},{int(rec.polarising)},"
        curve = "," + ",".join(f"{v:.12g}" for v in rec.distance_curve) + "\n"
        values, which = np.unique(rec.member_exponents, return_inverse=True)
        suffix = [
            middle + ("" if math.isnan(v) else f"{v:.12g}") + curve
            for v in values.tolist()
        ]
        for a in range(0, rec.member_count, _CSV_BLOCK):
            b = a + _CSV_BLOCK
            names = row_descriptors(rec.member_rows[a:b], sep=";")
            suffixes = map(suffix.__getitem__, which[a:b].tolist())
            yield "".join(chain.from_iterable(zip(names, suffixes)))


def export_survey(records: Sequence[GroupRecord], destination) -> None:
    """Write the survey CSV (one row per kernel, groups in id order)."""
    atomic_write_text(destination, survey_csv_text(records))
