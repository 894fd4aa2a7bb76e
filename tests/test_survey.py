import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
    FamilySummary,
    Kernel,
    enumerate_kernels,
    export_survey,
    family_rows,
    group_survey,
    invertible_summary,
    one_step_profile,
    parse_kernel,
    partial_distances,
    signature,
    survey_family,
)
from polarkit import BudgetExceededError
from polarkit.bec import batch_profiles
from polarkit import survey as survey_module
from polarkit.kernels import batch_exponents, row_descriptors
from polarkit.survey import _canonical_rows, _unique_rows, survey_csv_text

G2 = parse_kernel("10,11")

LT3 = list(enumerate_kernels(3, "lower_triangular_unit_diagonal"))
LT3_NAMES = {k.descriptor(): f"G_{i:03b}" for i, k in enumerate(LT3)}


def test_signature_identity_is_flat_one():
    s = signature(parse_kernel("100,010,001"), 0.5, 3)
    assert s.distance_curve == pytest.approx((1.0, 1.0, 1.0), abs=1e-15)


def test_signature_g2_depth1():
    assert signature(G2, 0.5, 1).distance_curve == pytest.approx((0.25,), abs=1e-15)


def test_signature_g101_equals_g110():
    a = signature(parse_kernel("100,110,011"), 0.5, 5)
    b = signature(parse_kernel("100,110,101"), 0.5, 5)
    assert a == b


def test_signature_multiset_is_sorted_profile():
    k = parse_kernel("100,110,011")
    assert signature(k, 0.5, 2).profile_multiset == one_step_profile(k).multiset()


def test_group_survey_lower_triangular_3x3():
    records = group_survey(LT3, 0.5, 7)
    assert [r.group_id for r in records] == list(range(1, len(records) + 1))
    best = {LT3_NAMES[m.descriptor] for m in records[0].members}
    assert best == {"G_011", "G_101", "G_110", "G_111"}
    non_polarising = [r for r in records if not r.polarising]
    assert len(non_polarising) == 1
    assert {m.descriptor for m in non_polarising[-1].members} == {"100,010,001"}
    assert non_polarising[-1].distance_curve == pytest.approx(
        tuple([1.0] * 7), abs=1e-12
    )


def test_group_survey_partition_and_order():
    records = group_survey(LT3, 0.5, 5)
    seen = [m.order for r in records for m in r.members]
    assert sorted(seen) == list(range(8))
    assert sum(r.member_count for r in records) == 8
    finals = [r.distance_curve[-1] for r in records]
    assert finals == sorted(finals)


def test_group_survey_single_kernel():
    (rec,) = group_survey([G2], 0.5, 3)
    assert rec.group_id == 1 and rec.member_count == 1
    assert rec.representative == G2


def test_group_survey_rejects_empty():
    with pytest.raises(ValueError):
        group_survey([], 0.5, 3)


def test_group_survey_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="kernel family mixes sizes"):
        group_survey([G2, parse_kernel("100,110,011")], 0.5, 3)


def test_group_survey_matches_scalar_signature():
    rng = np.random.default_rng(17)
    fam = [Kernel(rng.integers(0, 2, (4, 4), dtype=np.uint8)) for _ in range(24)]
    records = group_survey(fam, 0.5, 4)
    for rec in records:
        for m in rec.members:
            s = signature(parse_kernel(m.descriptor), 0.5, 4)
            assert np.allclose(s.distance_curve, rec.distance_curve, atol=1e-12)


def test_identity_kernel_in_constant_one_group():
    fam = list(enumerate_kernels(2, "all"))
    records = group_survey([k for k in fam if k.invertible], 0.5, 4)
    ident = parse_kernel("10,01")
    for rec in records:
        if any(m.descriptor == ident.descriptor() for m in rec.members):
            assert rec.distance_curve == pytest.approx((1.0,) * 4, abs=1e-12)
            assert not rec.polarising


@given(st.integers(0, 511), st.permutations(range(3)))
@settings(max_examples=40, deadline=None)
def test_column_permutation_preserves_profile_multiset(idx, perm):
    m = np.array(
        [[(idx >> (3 * r + c)) & 1 for c in range(3)] for r in range(3)],
        dtype=np.uint8,
    )
    a = Kernel(m)
    b = Kernel(m[:, list(perm)])
    assert one_step_profile(a).multiset() == one_step_profile(b).multiset()
    assert (
        signature(a, 0.5, 3).distance_curve
        == pytest.approx(signature(b, 0.5, 3).distance_curve, abs=1e-12)
    )


def test_invertible_summary_3x3():
    records = group_survey(LT3, 0.5, 7)
    summary = invertible_summary(records)
    assert summary.curve_count == 3
    assert summary.best_group_size == 4
    assert summary.polarising_count == 7


def test_invertible_summary_of_singular_kernels_only_is_empty():
    singular = [k for k in enumerate_kernels(2, "all") if not k.invertible]
    records = group_survey(singular, 0.5, 3)
    assert records and all(r.invertible_count == 0 for r in records)
    assert invertible_summary(records) == FamilySummary(0, 0, 0)


def test_export_survey_row_count_and_determinism(tmp_path):
    records = group_survey(LT3, 0.5, 5)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    export_survey(records, out1)
    export_survey(group_survey(LT3, 0.5, 5), out2)
    text1 = out1.read_text()
    assert text1 == out2.read_text()
    lines = text1.strip().split("\n")
    assert len(lines) == 9  # header + one row per kernel
    assert lines[0] == "kernel_rows,group_id,polarising,exponent,d1,d2,d3,d4,d5"
    assert lines[1].startswith("100;010;111,1,1,")


def test_export_survey_singular_kernels_have_empty_exponent():
    fam = [parse_kernel("10,01"), parse_kernel("10,10")]
    text = survey_csv_text(group_survey(fam, 0.5, 2))
    rows = dict(line.split(",", 1) for line in text.strip().split("\n")[1:])
    assert rows["10;10"].split(",")[2] == ""  # exponent column empty
    assert rows["10;01"].split(",")[2] != ""


def test_export_survey_deterministic_on_4x4_sample():
    # fixed 1000-kernel slice of the full enumeration, surveyed twice
    fam = list(enumerate_kernels(4, "all"))[10_000:11_000]
    a = survey_csv_text(group_survey(fam, 0.5, 5))
    b = survey_csv_text(group_survey(fam, 0.5, 5))
    assert a == b
    assert len(a.strip().split("\n")) == 1001


def test_export_survey_rejects_empty():
    with pytest.raises(ValueError):
        export_survey([], "/tmp/nope.csv")


def test_export_survey_surfaces_path_on_failure(tmp_path):
    records = group_survey([G2], 0.5, 2)
    bad = tmp_path / "file.csv"
    bad.write_text("x")
    target = bad / "sub.csv"  # parent is a file -> I/O error
    with pytest.raises(OSError, match="sub.csv"):
        export_survey(records, target)


@pytest.mark.parametrize(
    "l,family,depth",
    [(3, "all", 7), (3, "lower_triangular_unit_diagonal", 5),
     (3, "lower_triangular_unit_diagonal", 7)],
)
def test_survey_family_matches_group_survey(l, family, depth):
    a = survey_csv_text(survey_family(l, family, 0.5, depth))
    b = survey_csv_text(group_survey(enumerate_kernels(l, family), 0.5, depth))
    assert a == b


def test_survey_family_representatives_are_first_members():
    for rec in survey_family(3, "all", 0.5, 5):
        assert rec.representative.descriptor() == rec.members[0].descriptor
        assert rec.representative.invertible == (rec.members[0].exponent is not None)


def test_unique_rows_matches_numpy_unique():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 3, (500, 4))
    want, want_inverse = np.unique(a, axis=0, return_inverse=True)
    got, got_inverse = _unique_rows(a)
    assert np.array_equal(got, want)
    assert np.array_equal(got_inverse, want_inverse.reshape(-1))


def _literal_survey_csv(kernels, records):
    """The survey CSV written one member at a time from Kernel objects."""
    depth = len(records[0].distance_curve)
    lines = ["kernel_rows,group_id,polarising,exponent,"
             + ",".join(f"d{i}" for i in range(1, depth + 1))]
    for rec in records:
        curve = ",".join(f"{v:.12g}" for v in rec.distance_curve)
        orders = [m.order for m in rec.members]
        assert orders == sorted(orders)
        for i in orders:
            k = kernels[i]
            exp = f"{partial_distances(k).exponent:.12g}" if k.invertible else ""
            rows = k.descriptor().replace(",", ";")
            lines.append(f"{rows},{rec.group_id},{int(rec.polarising)},{exp},{curve}")
    return "\n".join(lines) + "\n"


def test_columnar_export_equals_literal_csv_3x3_all():
    kernels = list(enumerate_kernels(3, "all"))
    records = survey_family(3, "all", 0.5, 7)
    assert survey_csv_text(records) == _literal_survey_csv(kernels, records)


def test_columnar_export_equals_literal_csv_3x3_lower_triangular():
    records = group_survey(LT3, 0.5, 7)
    assert survey_csv_text(records) == _literal_survey_csv(LT3, records)


def _sample_4x4(count=2_000):
    rng = np.random.default_rng(20240509)
    rows = family_rows(4, "all")[rng.choice(1 << 16, count, replace=False)]
    return [Kernel.from_row_bits(r) for r in rows]


def test_columnar_export_equals_literal_csv_on_4x4_sample():
    kernels = _sample_4x4()
    records = group_survey(kernels, 0.5, 5)
    text = survey_csv_text(records)
    assert text == _literal_survey_csv(kernels, records)
    assert len(text.strip().split("\n")) == 2_001


@pytest.mark.parametrize("sample", ["3x3 all", "4x4 sample"])
def test_export_blocks_cut_inside_groups_give_the_literal_csv(monkeypatch, sample):
    # Blocks of 7 members end inside most groups and leave short tails.
    monkeypatch.setattr(survey_module, "_CSV_BLOCK", 7)
    if sample == "3x3 all":
        kernels = list(enumerate_kernels(3, "all"))
    else:
        kernels = _sample_4x4()
    records = group_survey(kernels, 0.5, 5)
    assert any(rec.member_count > 7 and rec.member_count % 7 for rec in records)
    assert survey_csv_text(records) == _literal_survey_csv(kernels, records)


def test_export_peak_memory_is_bounded_by_the_text():
    # Blocks appended in place hold the text once, plus one block. A list of
    # blocks and its join, a whole-family list of lines or descriptors, or a
    # stray reference to the partial text (which makes every append a copy)
    # would each add several MiB.
    records = survey_family(4, "all", 0.5, 5)
    tracemalloc.start()
    try:
        text = survey_csv_text(records)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) == 6_205_968
    assert peak - len(text) < 2 << 20


@pytest.mark.parametrize("l,family", [(4, "all"), (5, "lower_triangular_unit_diagonal")])
def test_row_descriptors_match_kernel_descriptors(l, family):
    rows = family_rows(l, family)
    assert row_descriptors(rows) == [Kernel.from_row_bits(r).descriptor() for r in rows]
    assert row_descriptors(rows[:3], sep=";") == [
        Kernel.from_row_bits(r).descriptor().replace(",", ";") for r in rows[:3]
    ]


@pytest.mark.parametrize("l", range(2, 21))
def test_row_descriptors_of_random_kernels_match_kernel_descriptors(l):
    rows = np.random.default_rng(l).integers(0, 1 << l, (7, l), dtype=np.uint32)
    assert row_descriptors(rows) == [Kernel.from_row_bits(r).descriptor() for r in rows]


def test_row_descriptors_memory_does_not_grow_with_two_to_the_l():
    # The text of one 20x20 kernel is 420 bytes; a table of all 2^20 row
    # values would take hundreds of MiB.
    rows = np.random.default_rng(20).integers(0, 1 << 20, (1, 20), dtype=np.uint32)
    tracemalloc.start()
    try:
        (text,) = row_descriptors(rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == Kernel.from_row_bits(rows[0]).descriptor()
    assert peak < 1 << 20


def test_invertible_count_matches_members():
    records = survey_family(3, "all", 0.5, 7)
    assert sum(rec.member_count for rec in records) == 512
    for rec in records:
        assert len(rec.members) == rec.member_count
        assert rec.invertible_count == sum(m.exponent is not None for m in rec.members)


def _assert_unique_rows_like_numpy(a):
    want, want_inverse = np.unique(a, axis=0, return_inverse=True)
    got, got_inverse = _unique_rows(a)
    assert got.dtype == a.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(got_inverse, want_inverse.reshape(-1))


def test_unique_rows_wide_and_negative_columns():
    rng = np.random.default_rng(6)
    info = np.iinfo(np.int64)
    picks = np.array([info.min, info.min + 1, -1, 0, 1, info.max - 1, info.max])
    _assert_unique_rows_like_numpy(picks[rng.integers(0, 7, (400, 3))])
    # one 64-bit column between narrow ones, and a 33-bit pair that splits words
    a = rng.integers(0, 4, (300, 5)).astype(np.uint64)
    a[:, 1] = np.array([0, 1 << 63, (1 << 64) - 1], np.uint64)[rng.integers(0, 3, 300)]
    a[:, 3] = rng.integers(0, 3, 300).astype(np.uint64) << np.uint64(32)
    _assert_unique_rows_like_numpy(a)


def test_unique_rows_many_columns():
    rng = np.random.default_rng(7)
    # l = 20 count tables are 420 columns of up to 18 bits: many packed words
    base = rng.integers(0, 184_757, (40, 420))
    _assert_unique_rows_like_numpy(base[rng.integers(0, 40, 200)])
    _assert_unique_rows_like_numpy(rng.integers(0, 2, (300, 200)))
    # l = 20 row bits, and arrays whose columns are all constant
    rows = rng.integers(0, 1 << 20, (50, 20), dtype=np.uint32)
    _assert_unique_rows_like_numpy(rows[rng.integers(0, 50, 120)])
    _assert_unique_rows_like_numpy(np.full((9, 6), 5, dtype=np.uint32))
    _assert_unique_rows_like_numpy(np.array([[3, 1]]))


def _coset_minimum_rows(rows, l):
    """Each row's least coset member modulo the span of the rows below it,
    by listing the span."""
    out = []
    for kernel in rows.tolist():
        canon = []
        for i in range(l):
            span = {0}
            for r in kernel[i + 1 :]:
                span |= {v ^ r for v in span}
            canon.append(min(kernel[i] ^ v for v in span))
        out.append(canon)
    return np.array(out, dtype=np.uint32)


@pytest.mark.parametrize("l", [2, 3])
def test_canonical_rows_are_coset_minima(l):
    rows = family_rows(l, "all")
    assert np.array_equal(_canonical_rows(rows, l), _coset_minimum_rows(rows, l))


def test_canonical_rows_of_sampled_larger_kernels_are_coset_minima():
    rng = np.random.default_rng(8)
    for l in (5, 8, 11):
        rows = rng.integers(0, 1 << l, (40, l), dtype=np.uint32)
        rows[:5, 0] = rows[:5, 1] ^ rows[:5, 2]  # a row in the span below it
        assert np.array_equal(_canonical_rows(rows, l), _coset_minimum_rows(rows, l))


@pytest.mark.parametrize("l", [3, 4])
def test_canonical_rows_idempotent_and_row_addition_invariant(l):
    rows = family_rows(l, "all")
    canon = _canonical_rows(rows, l)
    assert np.array_equal(_canonical_rows(canon, l), canon)
    for i in range(l):
        for j in range(i + 1, l):
            added = rows.copy()
            added[:, i] ^= added[:, j]
            assert np.array_equal(_canonical_rows(added, l), canon), (i, j)


@given(
    st.integers(2, 20).flatmap(
        lambda l: st.tuples(
            st.just(l),
            st.lists(st.integers(0, (1 << l) - 1), min_size=l, max_size=l),
            st.lists(st.tuples(st.integers(0, l - 1), st.integers(0, l - 1)),
                     max_size=8),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_canonical_rows_invariant_under_random_row_additions(case):
    l, kernel, additions = case
    rows = np.array([kernel], dtype=np.uint32)
    canon = _canonical_rows(rows, l)
    assert np.array_equal(_canonical_rows(canon, l), canon)
    for a, b in additions:
        i, j = min(a, b), max(a, b)
        if i < j:
            rows[0, i] ^= rows[0, j]
    assert np.array_equal(_canonical_rows(rows, l), canon)


@pytest.mark.parametrize("l,forms,invertible", [(3, 106, 21), (4, 2_266, 315)])
def test_canonical_form_counts_and_orbit_sizes(l, forms, invertible):
    rows = family_rows(l, "all")
    canon, form_of = _unique_rows(_canonical_rows(rows, l))
    assert canon.shape[0] == forms
    assert sum(Kernel.from_row_bits(r).invertible for r in canon) == invertible
    # A form's orbit has 2^(sum over rows i of the rank of rows i+1..l-1)
    # members; a canonical row is zero iff it lies in the span below it.
    nonzero = (canon != 0).astype(np.int64)
    ranks_below = np.cumsum(nonzero[:, ::-1], axis=1)[:, ::-1] - nonzero
    assert np.array_equal(np.bincount(form_of), 1 << ranks_below.sum(axis=1))


@pytest.mark.parametrize("l", [3, 4])
def test_count_tables_and_exponents_broadcast_from_canonical_forms(l):
    rows = family_rows(l, "all")
    forms, form_of = _unique_rows(_canonical_rows(rows, l))
    assert np.array_equal(batch_profiles(rows, l), batch_profiles(forms, l)[form_of])
    np.testing.assert_array_equal(
        batch_exponents(rows, l), batch_exponents(forms, l)[form_of]
    )


def test_group_survey_of_shuffled_kernels_with_repeats():
    rng = np.random.default_rng(14)
    picks = rng.integers(0, 1 << 16, 2_000)
    picks = np.concatenate([picks, picks[:400], picks[:50]])
    rng.shuffle(picks)
    rows = family_rows(4, "all")
    kernels = [Kernel.from_row_bits(rows[i]) for i in picks]
    records = group_survey(kernels, 0.5, 5)
    assert survey_csv_text(records) == _literal_survey_csv(kernels, records)
    # Every member sits in the group of its kernel in the whole-family survey.
    full_curve = {}
    for rec in survey_family(4, "all", 0.5, 5):
        full_curve.update(dict.fromkeys(rec.member_orders.tolist(), rec.distance_curve))
    hit = set()
    for rec in records:
        for i in rec.member_orders.tolist():
            curve = full_curve[int(picks[i])]
            assert np.allclose(curve, rec.distance_curve, rtol=0, atol=1e-12)
            hit.add(curve)
    assert len(records) == len(hit)


@pytest.mark.parametrize("eps0", [0.0, -0.1, 1.5, float("nan"), 1e-170, 1.6e-162])
def test_surveys_refuse_design_rate_outside_unit_interval(eps0):
    def family():
        raise AssertionError("the family was read before the check")
        yield G2

    with pytest.raises(ValueError, match="design erasure rate"):
        group_survey(family(), eps0, 3)
    # 5x5 "all" is over budget, so a ValueError shows the check came first.
    with pytest.raises(ValueError, match="design erasure rate"):
        survey_family(5, "all", eps0, 3)


@pytest.mark.parametrize("eps0", [1e-170, 1.5e-162])
def test_signature_refuses_design_rate_whose_square_underflows(eps0):
    assert eps0 > 0 and eps0 * eps0 == 0.0
    with pytest.raises(ValueError, match="squares to 0"):
        signature(G2, eps0, 2)


def _smallest_normalisable_rate():
    """The least positive double whose square is a normal float."""
    eps0 = math.sqrt(sys.float_info.min)
    while eps0 * eps0 >= sys.float_info.min:
        eps0 = math.nextafter(eps0, 0.0)
    return math.nextafter(eps0, 1.0)


def _census(records):
    summary = invertible_summary(records)
    return len(records), summary.curve_count, summary.best_group_size


def test_smallest_rate_with_normal_square_is_surveyed_and_the_next_below_refused():
    eps0 = _smallest_normalisable_rate()
    below = math.nextafter(eps0, 0.0)
    assert 0.0 < below * below < sys.float_info.min
    # A subnormal square made the 3x3 census 4 groups, 2 curves and a best
    # group of 144; a normal one gives the census of every moderate rate.
    census = _census(survey_family(3, "all", eps0, 2))
    assert census == _census(survey_family(3, "all", 1e-100, 2)) == (7, 3, 48)
    with pytest.raises(ValueError, match="subnormal"):
        survey_family(3, "all", below, 2)
    with pytest.raises(ValueError, match="subnormal"):
        signature(G2, below, 2)
    signature(G2, eps0, 2)


@pytest.mark.parametrize("depth", [0, -1])
def test_surveys_refuse_depth_below_one(depth):
    with pytest.raises(ValueError, match="depth must be >= 1"):
        group_survey(iter(()), 0.5, depth)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        survey_family(5, "all", 0.5, depth)


def test_surveys_refuse_huge_depth_before_forming_the_power():
    with pytest.raises(BudgetExceededError, match="spectrum budget"):
        survey_family(3, "all", 0.5, 10**11)
    with pytest.raises(BudgetExceededError, match="spectrum budget"):
        group_survey([G2], 0.5, 10**11)
    with pytest.raises(BudgetExceededError, match="spectrum budget"):
        signature(G2, 0.5, 10**11)


def test_group_survey_of_10x10_kernels_matches_signatures():
    # 10x10 count tables have 110 columns, more than one packed key word.
    rng = np.random.default_rng(10)
    rows = rng.integers(0, 1 << 10, (6, 10), dtype=np.uint32)
    rows[5] = rows[4]
    rows[5, 0] ^= rows[5, 3]  # same row-canonical form as kernel 4
    kernels = [Kernel.from_row_bits(r) for r in rows[[0, 1, 2, 3, 4, 5, 0, 2]]]
    records = group_survey(kernels, 0.5, 2)
    assert survey_csv_text(records) == _literal_survey_csv(kernels, records)
    for rec in records:
        for i in rec.member_orders.tolist():
            curve = signature(kernels[i], 0.5, 2).distance_curve
            assert np.allclose(curve, rec.distance_curve, rtol=0, atol=1e-12)
    group_of = {i: rec.group_id for rec in records for i in rec.member_orders.tolist()}
    assert group_of[0] == group_of[6] and group_of[2] == group_of[7]
    assert group_of[4] == group_of[5]
