import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
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
from polarkit.kernels import row_descriptors
from polarkit.survey import _unique_rows, survey_csv_text

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


def test_columnar_export_equals_literal_csv_on_4x4_sample():
    rng = np.random.default_rng(20240509)
    rows = family_rows(4, "all")[rng.choice(1 << 16, 2_000, replace=False)]
    kernels = [Kernel.from_row_bits(r) for r in rows]
    records = group_survey(kernels, 0.5, 5)
    text = survey_csv_text(records)
    assert text == _literal_survey_csv(kernels, records)
    assert len(text.strip().split("\n")) == 2_001


@pytest.mark.parametrize("l,family", [(4, "all"), (5, "lower_triangular_unit_diagonal")])
def test_row_descriptors_match_kernel_descriptors(l, family):
    rows = family_rows(l, family)
    assert row_descriptors(rows) == [Kernel.from_row_bits(r).descriptor() for r in rows]
    assert row_descriptors(rows[:3], sep=";") == [
        Kernel.from_row_bits(r).descriptor().replace(",", ";") for r in rows[:3]
    ]


def test_invertible_count_matches_members():
    records = survey_family(3, "all", 0.5, 7)
    assert sum(rec.member_count for rec in records) == 512
    for rec in records:
        assert len(rec.members) == rec.member_count
        assert rec.invertible_count == sum(m.exponent is not None for m in rec.members)
