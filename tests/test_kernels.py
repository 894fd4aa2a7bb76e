import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
    BudgetExceededError,
    Kernel,
    KernelFormatError,
    digit_reversal_permutation,
    enumerate_kernels,
    exhaustive_split_oracle,
    family_rows,
    kronecker_generator,
    parse_kernel,
    partial_distances,
    rate_exponent_table,
    reference_generator,
)
from polarkit import gf2
from polarkit.kernels import batch_distances, batch_exponents, check_size_budget

G2 = parse_kernel("10,11")
G3 = parse_kernel("100,110,011")

# All eight lower-triangular 3x3 kernels in enumeration order G_000..G_111
# with their known rate exponents.
LOWER_TRIANGULAR_EXPONENTS = [0.000, 0.210, 0.210, 0.333, 0.210, 0.421, 0.421, 0.333]


def test_parse_g2():
    assert G2.l == 2
    assert G2.invertible
    assert np.array_equal(G2.matrix, [[1, 0], [1, 1]])


def test_parse_identity3():
    k = parse_kernel("100,010,001")
    assert k.invertible
    assert np.array_equal(k.matrix, np.eye(3))


def test_parse_duplicate_rows_not_invertible():
    assert not parse_kernel("10,10").invertible


@pytest.mark.parametrize("text", ["10,1X", "10,110", "10,11,01", "", "10,", "2,1", "1"])
def test_parse_rejects_bad_descriptors(text):
    with pytest.raises(KernelFormatError):
        parse_kernel(text)


def test_kernel_requires_size_two():
    with pytest.raises(KernelFormatError):
        Kernel(np.ones((1, 1), dtype=np.uint8))


def test_kernel_json_round_trip():
    k = parse_kernel("1000,1001,0101,1111")
    assert Kernel.from_json_dict(k.to_json_dict()) == k


def test_partial_distances_g101():
    pd = partial_distances(parse_kernel("100,110,011"))
    assert pd.d == (1, 2, 2)
    assert abs(pd.exponent - 0.4206) < 1e-4


def test_partial_distances_g2_exact_half():
    pd = partial_distances(G2)
    assert pd.d == (1, 2)
    assert pd.exponent == 0.5


def test_partial_distances_identity():
    pd = partial_distances(parse_kernel("100,010,001"))
    assert pd.d == (1, 1, 1)
    assert pd.exponent == 0.0


def test_partial_distances_last_row_weight():
    k = parse_kernel("1000,1001,0101,1111")
    assert partial_distances(k).d[-1] == 4


def test_partial_distances_rejects_singular():
    with pytest.raises(ValueError):
        partial_distances(parse_kernel("10,10"))


def test_rate_exponent_table_matches_published_values():
    family = list(enumerate_kernels(3, "lower_triangular_unit_diagonal"))
    table = rate_exponent_table(family)
    assert [k for k, _ in table] == family
    for (_, exponent), expected in zip(table, LOWER_TRIANGULAR_EXPONENTS):
        assert abs(exponent - expected) < 1e-3


def test_rate_exponent_identity4():
    (_, exponent), = rate_exponent_table([parse_kernel("1000,0100,0010,0001")])
    assert exponent == 0.0


def _brute_force_distances(k):
    """Partial distances as minima over every combination of the later rows."""
    from itertools import combinations

    l = k.l
    out = []
    for i in range(l):
        later = range(i + 1, l)
        out.append(
            min(
                int((k.matrix[[i, *combo]].sum(axis=0) % 2).sum())
                for r in range(len(later) + 1)
                for combo in combinations(later, r)
            )
        )
    return out


@pytest.mark.parametrize(
    "l,family",
    [(3, "all"), (4, "lower_triangular_unit_diagonal"),
     (5, "lower_triangular_unit_diagonal")],
)
def test_batch_distances_match_brute_force(l, family):
    rows = family_rows(l, family)
    dists = batch_distances(rows, l)
    assert dists.shape == (rows.shape[0], l)
    for r, got in zip(rows, dists):
        k = Kernel.from_row_bits(r)
        assert got.tolist() == _brute_force_distances(k)
        # a zero distance marks exactly the singular kernels
        assert (got == 0).any() == (gf2.rank(k.matrix) < l)


@pytest.mark.parametrize("size", [21, 40])
def test_partial_distances_refuse_oversized_kernels(size):
    big = Kernel(np.eye(size, dtype=np.uint8))
    with pytest.raises(BudgetExceededError, match="span-member budget"):
        partial_distances(big)
    with pytest.raises(BudgetExceededError, match="span-member budget"):
        rate_exponent_table([big])


def test_rate_exponent_table_rejects_singular_and_mixed_families():
    with pytest.raises(ValueError):
        rate_exponent_table([G2, parse_kernel("10,10")])
    with pytest.raises(ValueError):
        rate_exponent_table([G2, parse_kernel("100,110,011")])
    assert rate_exponent_table([]) == []


def test_enumerate_lower_triangular_3():
    fam = list(enumerate_kernels(3, "lower_triangular_unit_diagonal"))
    assert len(fam) == 8
    # binary counting: free entries (a, b, c) with c least significant
    assert fam[0].descriptor() == "100,010,001"
    assert fam[5].descriptor() == "100,110,011"  # (a,b,c) = (1,0,1)
    assert all(k.matrix[0, 1] == 0 and k.matrix[0, 2] == 0 for k in fam)


def test_enumerate_all_counts_and_uniqueness():
    fam2 = list(enumerate_kernels(2, "all"))
    assert len(fam2) == 16
    assert len({k.descriptor() for k in fam2}) == 16
    fam3 = list(enumerate_kernels(3, "all"))
    assert len(fam3) == 512
    assert len({k.descriptor() for k in fam3}) == 512


def test_enumerate_lower_triangular_2():
    fam = list(enumerate_kernels(2, "lower_triangular_unit_diagonal"))
    assert len(fam) == 2
    assert G2 in fam


def test_enumerate_rejects_unknown_family():
    with pytest.raises(ValueError):
        list(enumerate_kernels(3, "upper"))


def test_kronecker_generator_examples():
    assert np.array_equal(kronecker_generator(G2, 1), G2.matrix)
    k2 = kronecker_generator(G2, 2)
    assert np.array_equal(
        k2, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    )
    assert np.array_equal(kronecker_generator(parse_kernel("100,110,011"), 0), [[1]])


def test_kronecker_budget():
    with pytest.raises(BudgetExceededError):
        kronecker_generator(G2, 20)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: kronecker_generator(G3, 10**6),
        lambda: digit_reversal_permutation(3, 10**6),
        lambda: exhaustive_split_oracle(G3, 10**6, 0.5, 0),
    ],
    ids=["kronecker_generator", "digit_reversal", "exhaustive_split_oracle"],
)
def test_huge_depths_are_refused_before_the_power(refuse):
    # 3^(10^6) is never formed: it takes time, and printing it in the message
    # would break int-to-str's digit limit (a plain ValueError).
    with pytest.raises(BudgetExceededError, match=r"size 3\^1000000 exceeds"):
        refuse()


def test_size_budget_boundary():
    assert check_size_budget(2, 24) == 1 << 24
    assert check_size_budget(4096, 1, 4096) == 4096
    assert check_size_budget(7, 0, 1) == 1
    with pytest.raises(BudgetExceededError, match="spectrum budget of 16777216"):
        check_size_budget(2, 25)
    with pytest.raises(BudgetExceededError, match="permutation budget"):
        digit_reversal_permutation(4, 13)


@given(st.integers(0, 3), st.integers(0, 511))
@settings(max_examples=40, deadline=None)
def test_kronecker_rank_iff_invertible(n, idx):
    k = list(enumerate_kernels(3, "all"))[idx]
    if 3**n > 81:
        return
    g = kronecker_generator(k, n)
    if k.invertible:
        assert gf2.rank(g) == 3**n
    elif n > 0:
        assert gf2.rank(g) < 3**n


def test_digit_reversal_is_involution():
    for l, n in [(2, 4), (3, 3), (4, 2)]:
        perm = digit_reversal_permutation(l, n)
        assert np.array_equal(perm[perm], np.arange(l**n))


def test_reference_generator_g2_depth2():
    ref = reference_generator(G2, 2)
    assert np.array_equal(
        ref, [[1, 0, 0, 0], [1, 0, 1, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
    )


@pytest.mark.parametrize(
    "l,family",
    [(2, "all"), (3, "all"), (4, "all"),
     (3, "lower_triangular_unit_diagonal"), (4, "lower_triangular_unit_diagonal"),
     (5, "lower_triangular_unit_diagonal")],
)
def test_family_rows_match_enumerated_kernels(l, family):
    rows = family_rows(l, family)
    assert rows.dtype == np.uint32 and rows.shape == (rows.shape[0], l)
    want = np.array([k.row_bits() for k in enumerate_kernels(l, family)])
    assert np.array_equal(rows, want)


def test_descriptor_of_a_kernel_wider_than_64_columns():
    # Rows of more than 64 bits fit no numpy integer dtype.
    big = Kernel(np.eye(65, dtype=np.uint8)[::-1])
    rows = ["0" * (64 - i) + "1" + "0" * i for i in range(65)]
    assert big.descriptor() == ",".join(rows)
    assert big.to_json_dict() == {"l": 65, "rows": rows}
    assert parse_kernel(big.descriptor()) == big


def test_kernel_matrix_must_be_square():
    with pytest.raises(KernelFormatError, match=r"square, got shape \(2, 3\)"):
        Kernel(np.zeros((2, 3), dtype=np.uint8))


def test_kernel_json_size_must_match_its_rows():
    assert Kernel.from_json_dict(G2.to_json_dict()) == G2
    with pytest.raises(KernelFormatError, match="'l' field does not match"):
        Kernel.from_json_dict({"l": 3, "rows": ["10", "11"]})


def test_family_rows_budget():
    assert family_rows(6, "lower_triangular_unit_diagonal").shape == (1 << 15, 6)
    with pytest.raises(BudgetExceededError, match="5x5"):
        family_rows(5, "all")
    with pytest.raises(BudgetExceededError):
        enumerate_kernels(6, "all")


def test_kernel_from_row_bits_round_trip():
    k = parse_kernel("1000,1001,0101,1111")
    assert Kernel.from_row_bits(k.row_bits()) == k


def test_invertible_flag_matches_gf2_rank_on_every_4x4_kernel():
    count = 0
    for k in enumerate_kernels(4, "all"):
        assert k.invertible == (gf2.rank(k.matrix) == 4)
        count += k.invertible
    assert count == 20_160


def test_digit_reversal_values():
    assert digit_reversal_permutation(2, 3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert digit_reversal_permutation(3, 2).tolist() == [0, 3, 6, 1, 4, 7, 2, 5, 8]
    assert digit_reversal_permutation(5, 0).tolist() == [0]


def test_invertible_flag_beyond_64_columns():
    eye = np.eye(70, dtype=np.uint8)
    assert Kernel(eye).invertible
    assert Kernel(eye).row_bits()[69] == 1 << 69
    dup = eye.copy()
    dup[69] = dup[0] ^ dup[1]
    assert not Kernel(dup).invertible


@pytest.mark.parametrize("l,family", [(3, "all"), (5, "lower_triangular_unit_diagonal")])
def test_every_exponent_api_uses_the_survey_formula(l, family):
    # The survey's batch_exponents is the one formula: the scalar and table
    # calls return its values bit for bit.
    rows = family_rows(l, family)
    exps = batch_exponents(rows, l)
    good = ~np.isnan(exps)
    kernels = [Kernel.from_row_bits(r) for r in rows[good]]
    assert [e for _, e in rate_exponent_table(kernels)] == exps[good].tolist()
    assert [partial_distances(k).exponent for k in kernels] == exps[good].tolist()
