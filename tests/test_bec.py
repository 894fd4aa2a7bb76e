import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
    BudgetExceededError,
    Kernel,
    bler_upper_bound,
    enumerate_kernels,
    evaluate_erasure,
    evolve_spectrum,
    exhaustive_split_oracle,
    one_step_profile,
    parse_kernel,
    polarisation_distance,
    select_information_set,
)
from polarkit.bec import Spectrum, batch_curves, batch_profiles
from polarkit.kernels import family_rows

G2 = parse_kernel("10,11")
G101 = parse_kernel("100,110,011")
GE = parse_kernel("1000,1001,0101,1111")
ID3 = parse_kernel("100,010,001")

EPS_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def random_kernels(l, count, seed, invertible=None):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = Kernel(rng.integers(0, 2, (l, l), dtype=np.uint8))
        if invertible is None or k.invertible == invertible:
            out.append(k)
    return out


# ---------------------------------------------------------------- profiles


def test_profile_g101_count_tables():
    p = one_step_profile(G101)
    assert p.counts == ((0, 3, 3, 1), (0, 0, 2, 1), (0, 0, 1, 1))


def test_profile_g2():
    p = one_step_profile(G2)
    assert p.counts == ((0, 2, 1), (0, 0, 1))


def test_profile_identity_channels_untouched():
    p = one_step_profile(ID3)
    for i in range(3):
        for eps in EPS_GRID:
            assert evaluate_erasure(p, i, eps) == pytest.approx(eps, abs=1e-15)


def test_profile_invertible_endpoints():
    for k in [G2, G101, GE]:
        p = one_step_profile(k)
        for i in range(k.l):
            assert p.counts[i][0] == 0
            assert p.counts[i][k.l] == 1


def test_profile_singular_kernel_allowed():
    p = one_step_profile(parse_kernel("10,10"))
    # first input is never determined (its row is the span of the later row),
    # even with zero erasures; the last input still follows from x_0 and u_0
    assert p.counts[0][0] == 1
    assert p.counts[1][0] == 0


def test_profile_counts_bounded_by_binomials():
    from math import comb

    for k in random_kernels(4, 10, seed=2):
        p = one_step_profile(k)
        for i in range(4):
            for s in range(5):
                assert 0 <= p.counts[i][s] <= comb(4, s)


def test_profile_downward_closure_via_direct_enumeration():
    # determination under a pattern implies determination under its subsets;
    # equivalently the per-pattern undetermined sets are upward closed.
    from polarkit import gf2

    for k in random_kernels(3, 8, seed=9) + [G101, ID3]:
        l = k.l
        undet = {}
        for pattern in range(1 << l):
            cols = [c for c in range(l) if not (pattern >> c) & 1]
            for i in range(l):
                undet[pattern, i] = gf2.in_span(
                    k.matrix[i, cols], list(k.matrix[i + 1 :, cols])
                )
        for pattern in range(1 << l):
            for c in range(l):
                if (pattern >> c) & 1:
                    smaller = pattern & ~(1 << c)
                    for i in range(l):
                        if undet[smaller, i]:
                            assert undet[pattern, i]


def test_profile_size_budget():
    with pytest.raises(BudgetExceededError):
        one_step_profile(Kernel(np.eye(21, dtype=np.uint8)))


def test_evaluate_erasure_examples():
    p = one_step_profile(G101)
    assert evaluate_erasure(p, 0, 0.5) == pytest.approx(0.875, abs=1e-12)
    for k in [G2, G101, GE]:
        prof = one_step_profile(k)
        for i in range(k.l):
            assert evaluate_erasure(prof, i, 0.0) == 0.0
            assert evaluate_erasure(prof, i, 1.0) == 1.0


def test_evaluate_erasure_validation():
    p = one_step_profile(G2)
    with pytest.raises(ValueError):
        evaluate_erasure(p, 2, 0.5)
    with pytest.raises(ValueError):
        evaluate_erasure(p, 0, 1.5)


def _brute_force_counts(k):
    """Count table from one gf2.in_span test per (input, erasure pattern)."""
    from polarkit import gf2

    l = k.l
    counts = np.zeros((l, l + 1), dtype=np.int64)
    for pattern in range(1 << l):
        cols = [c for c in range(l) if not (pattern >> c) & 1]
        for i in range(l):
            counts[i, l - len(cols)] += gf2.in_span(
                k.matrix[i, cols], list(k.matrix[i + 1 :, cols])
            )
    return counts


def test_batch_profiles_match_brute_force_on_every_3x3_kernel():
    rows = family_rows(3, "all")
    counts = batch_profiles(rows, 3)
    assert counts.shape == (512, 3, 4)
    for r, got in zip(rows, counts):
        assert np.array_equal(got, _brute_force_counts(Kernel.from_row_bits(r)))


@pytest.mark.parametrize("l,count", [(5, 6), (6, 4)])
def test_profiles_match_brute_force_on_random_kernels(l, count):
    kernels = random_kernels(l, count, seed=l)
    batch = batch_profiles([k.row_bits() for k in kernels], l)
    for k, got in zip(kernels, batch):
        want = _brute_force_counts(k)
        assert np.array_equal(got, want)
        assert one_step_profile(k).counts == tuple(map(tuple, want.tolist()))


def test_profiles_closed_forms_at_size_limit():
    from math import comb

    def binom(n, s):
        return comb(n, s) if 0 <= s <= n else 0

    l = 20
    identity = [1 << r for r in range(l)]
    # ten 10,11 blocks on the diagonal; inputs only see their own block
    blocks = [bits << (2 * b) for b in range(l // 2) for bits in (1, 3)]
    got_identity, got_blocks = batch_profiles([identity, blocks], l)
    # input i is lost exactly when output i is erased
    want = [[binom(l - 1, s - 1) for s in range(l + 1)]] * l
    assert got_identity.tolist() == want
    g2 = one_step_profile(G2).counts
    want = [
        [sum(g2[i % 2][a] * binom(l - 2, s - a) for a in range(3)) for s in range(l + 1)]
        for i in range(l)
    ]
    assert got_blocks.tolist() == want


# ---------------------------------------------------------------- oracle


def test_oracle_matches_published_polynomials():
    for eps in EPS_GRID:
        assert exhaustive_split_oracle(G101, 1, eps, 0) == pytest.approx(
            3 * eps - 3 * eps**2 + eps**3, abs=1e-12
        )
        assert exhaustive_split_oracle(G101, 1, eps, 1) == pytest.approx(
            2 * eps**2 - eps**3, abs=1e-12
        )
        assert exhaustive_split_oracle(G101, 1, eps, 2) == pytest.approx(
            eps**2, abs=1e-12
        )


def test_oracle_g2_square():
    assert exhaustive_split_oracle(G2, 1, 0.5, 1) == pytest.approx(0.25, abs=1e-12)


def test_oracle_identity():
    for eps in (0.1, 0.5, 0.9):
        for i in range(3):
            assert exhaustive_split_oracle(ID3, 1, eps, i) == pytest.approx(
                eps, abs=1e-12
            )


def test_oracle_profile_equivalence_small_kernels():
    kernels = [G2, GE] + list(enumerate_kernels(3, "lower_triangular_unit_diagonal"))
    kernels += random_kernels(4, 10, seed=11, invertible=True)
    for k in kernels:
        p = one_step_profile(k)
        for eps in EPS_GRID:
            for i in range(k.l):
                assert exhaustive_split_oracle(k, 1, eps, i) == pytest.approx(
                    evaluate_erasure(p, i, eps), abs=1e-12
                )


def test_oracle_matches_evolved_spectrum_depth2_and_3():
    for depth in (2, 3):
        sp = evolve_spectrum(G2, 0.3, depth)
        for i in range(2**depth):
            assert exhaustive_split_oracle(G2, depth, 0.3, i) == pytest.approx(
                sp.z[i], abs=1e-12
            )


def test_oracle_budget():
    with pytest.raises(BudgetExceededError):
        exhaustive_split_oracle(G2, 4, 0.5, 0)


# ---------------------------------------------------------------- spectra


def test_evolve_g2_depth2():
    sp = evolve_spectrum(G2, 0.5, 2)
    assert np.allclose(sp.z, [0.9375, 0.5625, 0.4375, 0.0625], atol=1e-15)


def test_evolve_g101_depth1():
    sp = evolve_spectrum(G101, 0.5, 1)
    assert np.allclose(sp.z, [0.875, 0.375, 0.25], atol=1e-15)


def test_evolve_depth0():
    sp = evolve_spectrum(GE, 0.3, 0)
    assert sp.z.tolist() == [0.3]


def test_evolve_budget():
    with pytest.raises(BudgetExceededError):
        evolve_spectrum(G2, 0.5, 25)


@pytest.mark.parametrize("kernel,depth", [(G2, 10), (G101, 7), (GE, 5)])
@pytest.mark.parametrize("eps", [0.1, 0.5, 0.9])
def test_capacity_conservation(kernel, depth, eps):
    sp = evolve_spectrum(kernel, eps, depth)
    assert abs(sp.z.sum() - kernel.l**depth * eps) < 1e-9
    assert (sp.z >= 0).all() and (sp.z <= 1).all()


def test_split_maps_conserve_at_many_points():
    # sum_i Z_i(z) = l*z as a polynomial identity, checked at l+1 points
    for k in [G2, G101, GE] + random_kernels(4, 5, seed=4, invertible=True):
        p = one_step_profile(k)
        for z in np.linspace(0.0, 1.0, k.l + 1):
            total = sum(evaluate_erasure(p, i, z) for i in range(k.l))
            assert total == pytest.approx(k.l * z, abs=1e-12)


def test_split_maps_nondecreasing():
    grid = np.linspace(0.0, 1.0, 41)
    for k in [G2, G101, GE] + random_kernels(3, 5, seed=5):
        p = one_step_profile(k)
        for i in range(k.l):
            vals = [evaluate_erasure(p, i, z) for z in grid]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------- distance measure


def test_distance_unpolarised_is_one():
    sp = Spectrum(kernel=ID3, depth=2, z=np.full(9, 0.5), design_eps=0.5)
    assert polarisation_distance(sp) == pytest.approx(1.0, abs=1e-15)


def test_distance_fully_polarised_is_zero():
    z = np.array([0.0, 1.0, 1.0, 0.0])
    sp = Spectrum(kernel=G2, depth=2, z=z, design_eps=0.3)
    assert polarisation_distance(sp) == 0.0


def test_distance_direct_value():
    sp = Spectrum(kernel=G2, depth=1, z=np.array([0.75, 0.25]), design_eps=0.5)
    assert polarisation_distance(sp) == pytest.approx(0.25, abs=1e-15)


def test_distance_rejects_zero_design_eps():
    sp = Spectrum(kernel=G2, depth=1, z=np.array([0.5, 0.5]), design_eps=0.0)
    with pytest.raises(ValueError):
        polarisation_distance(sp)


def test_distance_rejects_design_eps_whose_square_underflows():
    sp = evolve_spectrum(G2, 1e-170, 2)
    with pytest.raises(ValueError, match="squares to 0"):
        polarisation_distance(sp)


@given(st.integers(0, 2**16 - 1), st.integers(1, 7))
@settings(max_examples=50, deadline=None)
def test_distance_in_unit_interval_at_half(idx, depth):
    k = Kernel(
        np.array(
            [[(idx >> (4 * r + c)) & 1 for c in range(4)] for r in range(4)],
            dtype=np.uint8,
        )
    )
    if 4**depth > 4096:
        depth = 5
    d = polarisation_distance(evolve_spectrum(k, 0.5, depth))
    assert -1e-12 <= d <= 1.0 + 1e-12


def _distinct_4x4_tables(count):
    counts = batch_profiles(family_rows(4, "all")[:4096], 4).reshape(-1, 20)
    tables = np.unique(counts, axis=0).reshape(-1, 4, 5)
    assert tables.shape[0] >= count
    return tables[:count]


@pytest.mark.parametrize("eps0,depth", [(0.5, 5), (0.3, 7)])
def test_blocked_curves_equal_one_table_at_a_time(eps0, depth):
    # 4^5 and 4^7 channel values per table: 64 and 4 tables per block.
    tables = _distinct_4x4_tables(70)
    one_by_one = np.concatenate([batch_curves(t[None], eps0, depth) for t in tables])
    assert np.array_equal(batch_curves(tables, eps0, depth), one_by_one)


def test_curve_memory_does_not_grow_with_the_batch():
    tables = _distinct_4x4_tables(64)
    peaks = []
    for count in (8, 64):
        tracemalloc.start()
        try:
            batch_curves(tables[:count], 0.5, 7)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


def _curve_distance(k, eps0, depth):
    return batch_curves(batch_profiles([k.row_bits()], k.l), eps0, depth)[0, -1]


def test_distance_equals_survey_curve_bit_for_bit():
    # eps0**2 and eps0 * eps0 differ in the last bit at this eps0.
    eps0 = 0.42672114373024106
    assert eps0**2 != eps0 * eps0
    d = polarisation_distance(evolve_spectrum(G101, eps0, 1))
    assert d == _curve_distance(G101, eps0, 1) == 0.2759154611464781


def test_distance_equals_survey_curve_on_a_sweep():
    rng = np.random.default_rng(20240509)
    kernels = [G2, G101, GE] + random_kernels(3, 3, seed=8)
    for k in kernels + random_kernels(4, 3, seed=9):
        for eps0 in rng.uniform(0.0, 1.0, 20):
            for depth in (1, 2, 3):
                d = polarisation_distance(evolve_spectrum(k, eps0, depth))
                assert d == _curve_distance(k, eps0, depth), (k, eps0, depth)


# ------------------------------------------------- bounds / information set


def test_select_information_set_examples():
    sp = Spectrum(
        kernel=G2, depth=2, z=np.array([0.9375, 0.5625, 0.4375, 0.0625]), design_eps=0.5
    )
    assert select_information_set(sp, 2).tolist() == [2, 3]
    assert select_information_set(sp, 4).tolist() == [0, 1, 2, 3]
    tie = Spectrum(kernel=G2, depth=1, z=np.array([0.5, 0.5]), design_eps=0.5)
    assert select_information_set(tie, 1).tolist() == [0]


def test_select_information_set_validation():
    sp = evolve_spectrum(G2, 0.5, 2)
    with pytest.raises(ValueError):
        select_information_set(sp, 5)


def test_bler_upper_bound_examples():
    sp1 = evolve_spectrum(G2, 0.5, 1)
    assert bler_upper_bound(sp1, 0) == 0.0
    assert bler_upper_bound(sp1, 1) == pytest.approx(0.25, abs=1e-15)
    sp2 = evolve_spectrum(G2, 0.5, 2)
    assert bler_upper_bound(sp2, 2) == pytest.approx(0.5, abs=1e-15)


def test_bler_upper_bound_nondecreasing_and_consistent():
    sp = evolve_spectrum(GE, 0.5, 3)
    prev = 0.0
    for K in range(sp.size + 1):
        b = bler_upper_bound(sp, K)
        assert b >= prev - 1e-15
        assert b <= K + 1e-12
        assert b == pytest.approx(sp.z[select_information_set(sp, K)].sum(), abs=0)
        prev = b


def test_bound_curve_rows():
    from polarkit import bound_curve, bounds_csv_text

    sp = evolve_spectrum(G2, 0.5, 4)
    rows = bound_curve(sp, [0.25, 0.5])
    assert rows[0][:2] == (0.25, 4)
    assert rows[1][:2] == (0.5, 8)
    assert rows[0][2] == pytest.approx(bler_upper_bound(sp, 4), abs=0)
    text = bounds_csv_text(rows)
    assert text.startswith("rate,K,bound\n")
    assert len(text.strip().split("\n")) == 3
    with pytest.raises(ValueError):
        bound_curve(sp, [1.5])


def test_spectrum_csv_header_and_identity():
    from polarkit import spectrum_csv_text

    text = spectrum_csv_text(evolve_spectrum(G2, 0.5, 2))
    lines = text.strip().split("\n")
    assert lines[0] == "index,erasure_prob,capacity"
    assert len(lines) == 5
    for line in lines[1:]:
        _, z, cap = line.split(",")
        assert float(z) + float(cap) == pytest.approx(1.0, abs=1e-12)
