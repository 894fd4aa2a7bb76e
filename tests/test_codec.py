import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
    BudgetExceededError,
    DecodingIntegrityError,
    PolarCode,
    Symbol,
    encode,
    genie_erasure_flags,
    kernel_step_decide,
    map_oracle_decode,
    parse_kernel,
    reference_generator,
    sc_decode,
    stride_permutation,
    symbols_from_str,
    symbols_to_str,
)
from polarkit.codec import _encode_batch, _map_decode_batch, decode_batch

G2 = parse_kernel("10,11")
G101 = parse_kernel("100,110,011")
GE = parse_kernel("1000,1001,0101,1111")


def uncoded(kernel, depth):
    n = kernel.l**depth
    return PolarCode(
        kernel=kernel,
        depth=depth,
        frozen_mask=np.zeros(n, np.uint8),
        frozen_values=np.zeros(n, np.uint8),
    )


def random_invertible_kernels(seed, sizes):
    from polarkit import Kernel, gf2

    rng = np.random.default_rng(seed)
    out = []
    for l in sizes:
        while True:
            m = rng.integers(0, 2, (l, l), dtype=np.uint8)
            if gf2.rank(m) == l:
                out.append(Kernel(m))
                break
    return out


def all_patterns(n):
    return np.array(list(itertools.product([0, 1, 2], repeat=n)), dtype=np.uint8)


def patterns_with_few_erasures(n, max_erasures):
    out = []
    for n_erased in range(max_erasures + 1):
        for pos in itertools.combinations(range(n), n_erased):
            mask = np.zeros(n, dtype=np.uint8)
            mask[list(pos)] = 1
            known = np.flatnonzero(mask == 0)
            for vals in range(1 << known.size):
                y = np.full(n, 2, dtype=np.uint8)
                y[known] = (vals >> np.arange(known.size)) & 1
                out.append(y)
    return np.array(out, dtype=np.uint8)


# ------------------------------------------------------------------ stride


def test_stride_reverse_shuffle_4():
    assert stride_permutation(4, 2).tolist() == [0, 2, 1, 3]


def test_stride_16_4_first_class():
    assert stride_permutation(16, 4)[:4].tolist() == [0, 4, 8, 12]


def test_stride_identity_when_l_equals_n():
    assert stride_permutation(4, 4).tolist() == [0, 1, 2, 3]


def test_stride_requires_divisibility():
    with pytest.raises(ValueError):
        stride_permutation(10, 4)


# ------------------------------------------------------------------ encode


def test_encode_ge_single_level():
    assert encode(uncoded(GE, 1), [1, 1, 0, 0]).tolist() == [0, 0, 0, 1]


def test_encode_zero_is_zero():
    code = uncoded(G101, 2)
    assert not encode(code, np.zeros(9, np.uint8)).any()


def test_encode_g2_single_level():
    assert encode(uncoded(G2, 1), [1, 0]).tolist() == [1, 0]


def test_encode_rejects_bad_length():
    with pytest.raises(ValueError):
        encode(uncoded(G2, 2), [1, 0])


@pytest.mark.parametrize(
    "kernel,max_depth", [(G2, 6), (G101, 3), (GE, 3)]
)
def test_encode_equals_permuted_kronecker(kernel, max_depth):
    rng = np.random.default_rng(0)
    for depth in range(max_depth + 1):
        n = kernel.l**depth
        ref = reference_generator(kernel, depth)
        u = rng.integers(0, 2, (100, n), dtype=np.uint8)
        assert np.array_equal(_encode_batch(kernel, u), (u @ ref) % 2)


@pytest.mark.parametrize(
    "desc,max_depth", [("100,100,110", 3), ("10000,11000,10100,10010,11111", 2)]
)
def test_encode_zero_and_heavy_kernel_columns(desc, max_depth):
    # a singular kernel with an all-zero column, and a column of weight 5
    kernel = parse_kernel(desc)
    rng = np.random.default_rng(1)
    for depth in range(max_depth + 1):
        ref = reference_generator(kernel, depth)
        u = rng.integers(0, 2, (50, kernel.l**depth), dtype=np.uint8)
        assert np.array_equal(_encode_batch(kernel, u), (u @ ref) % 2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_encode_linearity(data):
    code = uncoded(G101, 2)
    u = np.array(data.draw(st.lists(st.integers(0, 1), min_size=9, max_size=9)))
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=9, max_size=9)))
    assert np.array_equal(
        encode(code, (u ^ v)), encode(code, u) ^ encode(code, v)
    )


# --------------------------------------------------------------- decisions


def test_decide_g2_both_known():
    assert kernel_step_decide(G2, 0, [], [1, 0]) is Symbol.ONE


def test_decide_g2_ambiguous():
    assert kernel_step_decide(G2, 0, [], [Symbol.ERASED, 0]) is Symbol.ERASED


def test_decide_ge_last_input_direct_observation():
    # column 2 of the kernel touches only the last input
    sym = kernel_step_decide(GE, 3, [0, 0, 0], [2, 2, 0, 2])
    assert sym is Symbol.ZERO
    sym = kernel_step_decide(GE, 3, [1, 1, 0], [2, 2, 1, 2])
    assert sym is Symbol.ONE


def test_decide_inconsistent_observations_raise():
    # x0 = u0^u1, x1 = u1; with u0 = 0 committed, x0 != x1 is impossible
    with pytest.raises(DecodingIntegrityError):
        kernel_step_decide(G2, 1, [0], [1, 0])


def test_decide_validation():
    with pytest.raises(ValueError):
        kernel_step_decide(G2, 2, [0, 0], [0, 0])
    with pytest.raises(ValueError):
        kernel_step_decide(G2, 1, [], [0, 0])
    with pytest.raises(ValueError):
        kernel_step_decide(G2, 0, [], [0, 3])


def test_decide_brute_force_agreement_n2():
    # exhaustive check against direct enumeration of consistent inputs
    for y0, y1 in itertools.product([0, 1, 2], repeat=2):
        consistent = [
            (u0, u1)
            for u0, u1 in itertools.product([0, 1], repeat=2)
            if (y0 == 2 or (u0 ^ u1) == y0) and (y1 == 2 or u1 == y1)
        ]
        vals = {u0 for u0, _ in consistent}
        expected = Symbol.ERASED if len(vals) == 2 else Symbol(vals.pop())
        assert kernel_step_decide(G2, 0, [], [y0, y1]) is expected


# ------------------------------------------------------------------ codes


def test_construct_standard_frozen_set():
    code = PolarCode.construct(G2, 2, 2, 0.5)
    # spectrum (0.9375, 0.5625, 0.4375, 0.0625): positions 2,3 are information
    assert code.frozen_mask.tolist() == [1, 1, 0, 0]
    assert code.K == 2 and code.N == 4


def test_construct_with_frozen_bits():
    code = PolarCode.construct(G2, 2, 2, 0.5, frozen_bits=[1, 0])
    assert code.frozen_values.tolist() == [1, 0, 0, 0]


def test_code_requires_invertible_kernel():
    with pytest.raises(ValueError):
        PolarCode(
            kernel=parse_kernel("10,10"),
            depth=1,
            frozen_mask=np.zeros(2, np.uint8),
            frozen_values=np.zeros(2, np.uint8),
        )


def test_code_json_round_trip():
    code = PolarCode.construct(GE, 2, 7, 0.4, frozen_bits=[1] * 9)
    d = code.to_json_dict()
    assert d["index_base"] == 0
    back = PolarCode.from_json_dict(d)
    assert np.array_equal(back.frozen_mask, code.frozen_mask)
    assert np.array_equal(back.frozen_values, code.frozen_values)
    assert back.kernel == code.kernel
    assert back.depth == code.depth and back.design_eps == code.design_eps


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_code_json_masks_match_per_character_text(data):
    # Lengths 1 to 243, most of them not a multiple of 8; the per-character
    # conversions that the code files were first written with are the oracle.
    kernel, depth = data.draw(
        st.sampled_from([(G2, 0), (G2, 1), (G101, 1), (G2, 3), (G101, 2),
                         (GE, 2), (G101, 4), (G2, 7), (G101, 5)]),
        label="code",
    )
    n = kernel.l**depth
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    mask = np.array(data.draw(bits, label="mask"), dtype=np.uint8)
    values = np.array(data.draw(bits, label="values"), dtype=np.uint8)
    code = PolarCode(kernel=kernel, depth=depth, frozen_mask=mask, frozen_values=values)
    d = code.to_json_dict()
    assert d["frozen_mask"] == "".join(str(int(b)) for b in code.frozen_mask)
    assert d["frozen_values"] == "".join(str(int(b)) for b in code.frozen_values)
    back = PolarCode.from_json_dict(d)
    for field in ("frozen_mask", "frozen_values"):
        want = np.array([int(c) for c in d[field]], dtype=np.uint8)
        got = getattr(back, field)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert back.to_json_dict() == d


def test_symbols_str_round_trip():
    y = symbols_from_str("01e10")
    assert y.tolist() == [0, 1, 2, 1, 0]
    assert symbols_to_str(y) == "01e10"
    with pytest.raises(ValueError):
        symbols_from_str("01x")


# ------------------------------------------------------------ sc vs oracle


def test_sc_decode_no_erasures_inverts():
    rng = np.random.default_rng(3)
    for kernel, depth in [(G2, 3), (G101, 2), (GE, 1)]:
        code = uncoded(kernel, depth)
        u = rng.integers(0, 2, code.N, dtype=np.uint8)
        res = sc_decode(code, encode(code, u))
        assert np.array_equal(res.u_hat, u)
        assert not res.frame_erased
        assert not res.erased_flags.any()


def test_sc_decode_all_erased():
    code = PolarCode.construct(G2, 2, 2, 0.5)
    res = sc_decode(code, symbols_from_str("eeee"))
    assert res.frame_erased
    assert res.erased_flags[code.info_set].all()
    assert not res.erased_flags[code.frozen_mask == 1].any()


def test_sc_decode_uses_frozen_knowledge():
    # freeze position 0 to 0; y = (e, 1) still decodes u1 = 1
    code = PolarCode(
        kernel=G2,
        depth=1,
        frozen_mask=np.array([1, 0], np.uint8),
        frozen_values=np.zeros(2, np.uint8),
    )
    res = sc_decode(code, symbols_from_str("e1"))
    assert res.u_hat.tolist() == [0, 1]
    assert not res.frame_erased


def test_sc_matches_map_ge_every_mask():
    pats = all_patterns(4)
    for mask_bits in range(16):
        mask = np.array([(mask_bits >> i) & 1 for i in range(4)], np.uint8)
        code = PolarCode(
            kernel=GE, depth=1, frozen_mask=mask, frozen_values=np.zeros(4, np.uint8)
        )
        u_sc, f_sc = decode_batch(code, pats)
        u_mp, f_mp = _map_decode_batch(code, pats)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)


def test_sc_matches_map_ge_nonzero_frozen_values():
    pats = all_patterns(4)
    rng = np.random.default_rng(8)
    for mask_bits in (0b0011, 0b0101, 0b1110):
        mask = np.array([(mask_bits >> i) & 1 for i in range(4)], np.uint8)
        vals = (rng.integers(0, 2, 4, dtype=np.uint8)) * mask
        code = PolarCode(kernel=GE, depth=1, frozen_mask=mask, frozen_values=vals)
        u_sc, f_sc = decode_batch(code, pats)
        u_mp, f_mp = _map_decode_batch(code, pats)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)


def g2n3_codes():
    for K in (0, 2, 4, 6, 8):
        yield PolarCode.construct(G2, 3, K, 0.5)
    # adversarial masks: alternating, and freezing the most reliable channels
    yield PolarCode(
        kernel=G2,
        depth=3,
        frozen_mask=np.array([1, 0, 1, 0, 1, 0, 1, 0], np.uint8),
        frozen_values=np.zeros(8, np.uint8),
    )
    from polarkit import evolve_spectrum, select_information_set

    sp = evolve_spectrum(G2, 0.5, 3)
    worst_mask = np.zeros(8, np.uint8)
    worst_mask[select_information_set(sp, 4)] = 1  # freeze the good channels
    yield PolarCode(
        kernel=G2, depth=3, frozen_mask=worst_mask, frozen_values=np.zeros(8, np.uint8)
    )


def test_sc_matches_map_g2_depth3():
    pats = patterns_with_few_erasures(8, 4)
    rng = np.random.default_rng(23)
    pats = np.vstack([pats, rng.integers(0, 3, (1000, 8)).astype(np.uint8)])
    for code in g2n3_codes():
        u_sc, f_sc = decode_batch(code, pats)
        u_mp, f_mp = _map_decode_batch(code, pats)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)


def test_map_oracle_scalar_wrapper():
    code = PolarCode.construct(GE, 1, 2, 0.5)
    res = map_oracle_decode(code, symbols_from_str("e0e1"))
    alt = sc_decode(code, symbols_from_str("e0e1"))
    assert np.array_equal(res.u_hat, alt.u_hat)
    assert np.array_equal(res.erased_flags, alt.erased_flags)
    assert res.frame_erased == alt.frame_erased


def test_map_oracle_budget():
    code = PolarCode.construct(G2, 4, 8, 0.5)
    with pytest.raises(BudgetExceededError):
        map_oracle_decode(code, np.zeros(16, np.uint8))


# -------------------------------------------------------------- round trips


def test_round_trip_random_frames():
    rng = np.random.default_rng(7)
    for kernel, depth in [(G2, 5), (G101, 3), (GE, 2)]:
        code = PolarCode.construct(kernel, depth, kernel.l**depth // 2, 0.5)
        u = np.tile(code.frozen_values, (1000, 1))
        u[:, code.info_set] = rng.integers(
            0, 2, (1000, code.info_set.size), dtype=np.uint8
        )
        x = _encode_batch(kernel, u)
        u_hat, flags = decode_batch(code, x)
        assert np.array_equal(u_hat, u)
        assert not flags.any()


def test_depth_zero_code_round_trip():
    code = PolarCode.construct(G2, 0, 1, 0.5)
    assert code.N == 1 and code.K == 1
    assert encode(code, [1]).tolist() == [1]
    res = sc_decode(code, np.array([1], np.uint8))
    assert res.u_hat.tolist() == [1] and not res.frame_erased
    res = sc_decode(code, np.array([2], np.uint8))
    assert res.frame_erased and res.u_hat.tolist() == [0]


def test_round_trip_nonzero_frozen_values():
    rng = np.random.default_rng(9)
    code = PolarCode.construct(G2, 4, 8, 0.5, frozen_bits=rng.integers(0, 2, 8))
    u = code.frozen_values.copy()
    u[code.info_set] = rng.integers(0, 2, 8, dtype=np.uint8)
    res = sc_decode(code, encode(code, u))
    assert np.array_equal(res.u_hat, u)


# -------------------------------------------------- structural properties


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_genie_determination_anti_monotone(data):
    """Erasing one more symbol never turns an undetermined input determined."""
    kernel, depth = data.draw(
        st.sampled_from([(G2, 3), (G101, 2), (GE, 1)]), label="code"
    )
    n = kernel.l**depth
    erased = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    known = np.flatnonzero(~erased)
    if known.size == 0:
        return
    extra = data.draw(st.sampled_from(list(known)))
    worse = erased.copy()
    worse[extra] = True
    flags_a, flags_b = genie_erasure_flags(kernel, depth, np.vstack([erased, worse]))
    assert not (flags_a & ~flags_b).any()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_erasure_anti_monotonicity_first_difference(data):
    """On channel output, erasing one more symbol never turns the first
    differing decision from erased to determined (up to the first flag; after
    a defaulted ambiguity both frames are dead and a removed observation may
    legitimately dissolve a contradiction)."""
    kernel, depth = data.draw(
        st.sampled_from([(G2, 3), (G101, 2), (GE, 1)]), label="code"
    )
    n = kernel.l**depth
    code = PolarCode.construct(kernel, depth, n // 2, 0.5)
    u = code.frozen_values.copy()
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=code.K, max_size=code.K)
    )
    u[code.info_set] = bits
    x = encode(code, u)
    erased = np.array(
        data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    known = np.flatnonzero(~erased)
    if known.size == 0:
        return
    extra = data.draw(st.sampled_from(list(known)))
    worse = erased.copy()
    worse[extra] = True
    a = sc_decode(code, np.where(erased, np.uint8(2), x))
    b = sc_decode(code, np.where(worse, np.uint8(2), x))
    diff = np.flatnonzero((a.u_hat != b.u_hat) | (a.erased_flags != b.erased_flags))
    if not diff.size:
        return
    first = diff[0]
    flags_any = np.flatnonzero(a.erased_flags | b.erased_flags)
    first_flag = flags_any[0] if flags_any.size else n
    if first <= first_flag:
        assert not (a.erased_flags[first] == 1 and b.erased_flags[first] == 0)


_CONTRACT_CODES = [
    pytest.param(kernel, depth, id=f"{name}-d{depth}")
    for name, kernel, depth in [("G2", G2, 2), ("G2", G2, 6), ("G3", G101, 2),
                                ("G3", G101, 4), ("Ge", GE, 2), ("Ge", GE, 3)]
] + [
    pytest.param(kernel, depth, id=f"l{kernel.l}-d{depth}")
    for kernel, depth in zip(random_invertible_kernels(808, [3, 5, 6, 7, 8]),
                             [3, 2, 2, 2, 2])
]


@pytest.mark.parametrize("inputs", ["honest", "random", "poisoning"])
@pytest.mark.parametrize("batch", [1, 500])
@pytest.mark.parametrize("kernel, depth", _CONTRACT_CODES)
def test_frozen_positions_never_flagged(kernel, depth, batch, inputs):
    # Whatever the symbols, the decoder gives every frozen position its
    # frozen value and never flags it, so callers may tally whole rows.
    rng = np.random.default_rng([kernel.l, depth, batch])
    n = kernel.l**depth
    frozen_bits = rng.integers(0, 2, n - n // 2)
    frozen_bits[0] = 1  # nonzero frozen values
    code = PolarCode.construct(kernel, depth, n // 2, 0.5, frozen_bits=frozen_bits)
    frozen = code.frozen_mask == 1
    if inputs == "random":
        ys = rng.integers(0, 3, (batch, n)).astype(np.uint8)
    else:
        # Honest frames carry the frozen values; poisoning ones carry random
        # bits there, which the decoder finds to clash with the frozen values
        # wherever the channel reveals enough of them.
        u = rng.integers(0, 2, (batch, n), dtype=np.uint8)
        if inputs == "honest":
            u[:, frozen] = code.frozen_values[frozen]
        ys = _encode_batch(kernel, u)
        ys[rng.random((batch, n)) < 0.3] = Symbol.ERASED
    u_hat, flags = decode_batch(code, ys)
    assert (u_hat[:, frozen] == code.frozen_values[frozen]).all()
    assert not flags[:, frozen].any()
    for row in range(min(batch, 4)):
        assert sc_decode(code, ys[row]).frame_erased == flags[row].any()


def test_batch_decode_equals_scalar_decode():
    rng = np.random.default_rng(13)
    code = PolarCode.construct(G101, 2, 4, 0.5)
    ys = rng.integers(0, 3, (64, 9)).astype(np.uint8)
    u_b, f_b = decode_batch(code, ys)
    for row in range(64):
        res = sc_decode(code, ys[row])
        assert np.array_equal(res.u_hat, u_b[row])
        assert np.array_equal(res.erased_flags, f_b[row])


def test_decode_batch_leaves_no_reference_cycle():
    # With the cyclic collector off, the outputs must die with their last
    # reference: nothing of the call (its recursive closure) may hold them.
    code = PolarCode.construct(G101, 3, 13, 0.5)
    ys = np.random.default_rng(5).integers(0, 3, (40, 27)).astype(np.uint8)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        u_hat, flags = decode_batch(code, ys)
        refs = weakref.ref(u_hat), weakref.ref(flags)
        del u_hat, flags
        assert [r() is None for r in refs] == [True, True]
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------------------ genie screen


def test_genie_flags_match_decoder_on_honest_output():
    rng = np.random.default_rng(21)
    for kernel, depth in [(G2, 4), (G101, 2), (GE, 2)]:
        n = kernel.l**depth
        code = PolarCode.construct(kernel, depth, n // 2, 0.5)
        u = np.tile(code.frozen_values, (500, 1))
        u[:, code.info_set] = rng.integers(0, 2, (500, code.K), dtype=np.uint8)
        x = _encode_batch(kernel, u)
        erased = rng.random((500, n)) < 0.5
        y = np.where(erased, np.uint8(2), x)
        u_hat, flags = decode_batch(code, y)
        frame_sc = (
            (flags[:, code.info_set] == 1)
            | (u_hat[:, code.info_set] != u[:, code.info_set])
        ).any(axis=1)
        gflags = genie_erasure_flags(kernel, depth, erased)
        assert np.array_equal(gflags[:, code.info_set].any(axis=1), frame_sc)


def test_genie_flags_prefix_agreement():
    # restricted to information positions (the genie flags undetermined frozen
    # channels too, the decoder never does), the decoder's flags match the
    # genie's up to and including the first flagged information bit
    rng = np.random.default_rng(2)
    kernel, depth = G2, 3
    code = PolarCode.construct(kernel, depth, 4, 0.5)
    info = code.info_set
    u = np.tile(code.frozen_values, (300, 1))
    u[:, info] = rng.integers(0, 2, (300, 4), dtype=np.uint8)
    x = _encode_batch(kernel, u)
    erased = rng.random((300, 8)) < 0.4
    y = np.where(erased, np.uint8(2), x)
    _, flags = decode_batch(code, y)
    gflags = genie_erasure_flags(kernel, depth, erased)
    for t in range(300):
        g_info = gflags[t][info]
        d_info = flags[t][info] == 1
        g = np.flatnonzero(g_info)
        d = np.flatnonzero(d_info)
        first = min(
            g[0] if g.size else info.size - 1, d[0] if d.size else info.size - 1
        )
        assert np.array_equal(g_info[: first + 1], d_info[: first + 1])


# ------------------------------------------------ decoder vs MAP, exhaustive


@pytest.mark.parametrize(
    "kernel", [G101] + random_invertible_kernels(606, [3, 3, 4, 4, 5, 5]),
    ids=repr,
)
def test_sc_matches_map_every_input_every_mask(kernel):
    l = kernel.l
    pats = all_patterns(l)
    rng = np.random.default_rng(l)
    for mask_bits in range(1 << l):
        mask = ((mask_bits >> np.arange(l)) & 1).astype(np.uint8)
        vals = rng.integers(0, 2, l, dtype=np.uint8) * mask
        code = PolarCode(kernel=kernel, depth=1, frozen_mask=mask, frozen_values=vals)
        u_sc, f_sc = decode_batch(code, pats)
        u_mp, f_mp = _map_decode_batch(code, pats)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)


def test_sc_matches_map_g101_depth2_random_frozen_values():
    # depth 2 has inner rate-0 subtrees whose frozen values re-encode to
    # nonzero words
    pats = all_patterns(9)
    rng = np.random.default_rng(99)
    masks = [np.repeat([1, 0, 0], 3), np.repeat([1, 1, 0], 3)]
    masks += [rng.integers(0, 2, 9) for _ in range(10)]
    for mask in masks:
        mask = mask.astype(np.uint8)
        vals = rng.integers(0, 2, 9, dtype=np.uint8) * mask
        code = PolarCode(kernel=G101, depth=2, frozen_mask=mask, frozen_values=vals)
        u_sc, f_sc = decode_batch(code, pats)
        u_mp, f_mp = _map_decode_batch(code, pats)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)


@pytest.mark.parametrize("kernel,depth", [(G2, 6), (G101, 3)])
def test_batch_decode_of_random_symbols_equals_per_row_decode(kernel, depth):
    # uniformly random symbols are mostly inconsistent with the frozen values,
    # so frames are poisoned at different positions within one batch
    rng = np.random.default_rng(64 + depth)
    n = kernel.l**depth
    frozen_bits = rng.integers(0, 2, n - n // 2)
    code = PolarCode.construct(kernel, depth, n // 2, 0.5, frozen_bits=frozen_bits)
    ys = rng.integers(0, 3, (200, n)).astype(np.uint8)
    u_b, f_b = decode_batch(code, ys)
    for row in range(ys.shape[0]):
        res = sc_decode(code, ys[row])
        assert np.array_equal(res.u_hat, u_b[row])
        assert np.array_equal(res.erased_flags, f_b[row])


def test_genie_flags_of_singular_kernel_position_no_output_determines():
    # Under 11,11 no set of outputs determines u_0; u_1 is known once either
    # output is (given u_0).
    erased = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=bool)
    flags = genie_erasure_flags(parse_kernel("11,11"), 1, erased)
    assert np.array_equal(flags, [[1, 0], [1, 0], [1, 0], [1, 1]])


def test_genie_flags_match_det_table_on_every_known_set():
    # At depth 1 the screen must reproduce the DET table exactly, whichever
    # of its OR-of-ANDs or AND-of-ORs forms it evaluates.
    from polarkit import Kernel
    from polarkit.codec import _round_tables

    rng = np.random.default_rng(9)
    kernels = [
        Kernel(np.array(m, dtype=np.uint8).reshape(3, 3))
        for m in itertools.product((0, 1), repeat=9)
    ]
    kernels += [
        Kernel(rng.integers(0, 2, (l, l), dtype=np.uint8))
        for l in (2, 4, 5)
        for _ in range(20)
    ]
    for kernel in kernels:
        l = kernel.l
        kappa = np.arange(1 << l)
        erased = ((kappa[:, None] >> np.arange(l)) & 1) == 0
        flags = genie_erasure_flags(kernel, 1, erased)
        det, _ = _round_tables(kernel)
        assert np.array_equal(flags, ~det.T), kernel.descriptor()


def test_decision_tables_match_gf2_solve_entry_by_entry():
    # An independent reference for DET and LAM: one gf2.solve of
    # m[t:, cols] x = e_0 per (position, known mask), on every 3x3 kernel and
    # on random kernels of sizes 4..7, singular ones included.
    from polarkit import Kernel, gf2
    from polarkit.codec import _round_tables

    rng = np.random.default_rng(23)
    kernels = [
        Kernel(np.array(m, dtype=np.uint8).reshape(3, 3))
        for m in itertools.product((0, 1), repeat=9)
    ]
    kernels += [
        Kernel(rng.integers(0, 2, (l, l), dtype=np.uint8))
        for l in (4, 5, 6, 7)
        for _ in range(2)
    ]
    for kernel in kernels:
        l, m, desc = kernel.l, kernel.matrix, kernel.descriptor()
        rows = np.array(kernel.row_bits())
        det, lam = _round_tables(kernel)
        assert det.shape == lam.shape == (l, 1 << l)
        for t in range(l):
            target = np.eye(1, l - t, dtype=np.uint8)[0]
            for kappa in range(1 << l):
                cols = [c for c in range(l) if (kappa >> c) & 1]
                sol = gf2.solve(m[t:, cols], target)
                where = (desc, t, kappa)
                assert det[t, kappa] == (sol is not None), where
                if sol is None:
                    assert lam[t, kappa] == 0, where
                    continue
                want = sum(1 << c for c, x in zip(cols, sol) if x)
                assert lam[t, kappa] == want, where
                assert int(lam[t, kappa]) & ~kappa == 0, where  # LAM within kappa
                # Row r >= t has odd parity on LAM exactly when r = t.
                parity = np.bitwise_count(rows[t:] & int(lam[t, kappa])) & 1
                assert parity.tolist() == [1] + [0] * (l - 1 - t), where


def test_decoding_refuses_kernels_above_size_12_before_table_work(monkeypatch):
    from polarkit import Kernel, gf2

    kernel = Kernel(np.eye(13, dtype=np.uint8))
    mask = np.eye(1, 13, dtype=np.uint8)[0]
    code = PolarCode(
        kernel=kernel, depth=1, frozen_mask=mask, frozen_values=np.zeros(13, np.uint8)
    )

    def no_table_work(*args, **kwargs):
        raise AssertionError("decision tables built for a 13x13 kernel")

    # DET is the tables' first step; the node plan refuses the kernel before
    # any of it.
    monkeypatch.setattr(gf2, "bottom_up_reduce", no_table_work)
    with pytest.raises(BudgetExceededError, match="above size 12"):
        decode_batch(code, np.full((1, 13), Symbol.ERASED, dtype=np.uint8))


def test_code_depth_beyond_spectrum_budget_refused_before_power():
    # 2^(10^30) is never formed: the depth is checked against the budget first.
    with pytest.raises(BudgetExceededError, match="spectrum budget"):
        PolarCode(kernel=G2, depth=10**30, frozen_mask=[0], frozen_values=[0])
    with pytest.raises(BudgetExceededError, match="spectrum budget"):
        PolarCode(kernel=GE, depth=13, frozen_mask=[0], frozen_values=[0])


@pytest.mark.parametrize("eps", [float("nan"), -0.1, 1.5])
def test_code_design_eps_outside_unit_interval_refused(eps):
    with pytest.raises(ValueError, match="design erasure rate"):
        PolarCode(
            kernel=G2, depth=0, frozen_mask=[0], frozen_values=[0], design_eps=eps
        )


def test_genie_flags_of_empty_batch():
    flags = genie_erasure_flags(G2, 3, np.zeros((0, 8), dtype=bool))
    assert flags.shape == (0, 8)


# ------------------------------------------- received-symbol checks, layouts


@pytest.mark.parametrize(
    "word",
    [
        np.array([256, 1, 0, 1]),  # a uint8 cast would read 0
        np.array([258, 1, 0, 1]),  # a uint8 cast would read "erased"
        np.array([0.5, 1, 1, 1]),
        np.array([-1, 1, 0, 1]),
        np.array([np.nan, 1, 0, 1]),
        np.array([3, 1, 0, 1], dtype=np.uint8),
    ],
    ids=["256", "258", "half", "negative", "nan", "uint8-3"],
)
def test_decoders_reject_symbols_outside_0_1_2_before_narrowing(word):
    code = PolarCode.construct(GE, 1, 2, 0.5)
    with pytest.raises(ValueError, match="received symbols"):
        sc_decode(code, word)
    with pytest.raises(ValueError, match="received symbols"):
        decode_batch(code, word[None, :])
    with pytest.raises(ValueError, match="received symbols"):
        map_oracle_decode(code, word)


def test_decoders_accept_integer_valued_symbols_of_any_dtype():
    code = PolarCode.construct(GE, 1, 2, 0.5)
    word = np.array([2, 0, 2, 1], dtype=np.uint8)
    want = sc_decode(code, word)
    for other in (word.astype(np.int64), word.astype(np.float64), word.tolist()):
        for decode in (sc_decode, map_oracle_decode):
            got = decode(code, other)
            assert np.array_equal(got.u_hat, want.u_hat)
            assert np.array_equal(got.erased_flags, want.erased_flags)


@pytest.mark.parametrize("kernel,depth", [(G2, 4), (G101, 3), (GE, 2)])
def test_encode_of_non_c_contiguous_input_equals_c_input(kernel, depth):
    rng = np.random.default_rng(41)
    n = kernel.l**depth
    u = rng.integers(0, 2, (7, n), dtype=np.uint8)
    want = _encode_batch(kernel, u)
    assert np.array_equal(_encode_batch(kernel, np.asfortranarray(u)), want)
    backwards = np.ascontiguousarray(u[::-1, ::-1])[::-1, ::-1]
    assert not backwards.flags.c_contiguous
    assert np.array_equal(_encode_batch(kernel, backwards), want)
    reversed_columns = u[:, ::-1]
    assert np.array_equal(
        _encode_batch(kernel, reversed_columns),
        _encode_batch(kernel, reversed_columns.copy()),
    )


def test_decode_of_fortran_ordered_batch_equals_c_ordered():
    rng = np.random.default_rng(42)
    code = PolarCode.construct(G101, 3, 9, 0.5, frozen_bits=rng.integers(0, 2, 18))
    ys = rng.integers(0, 3, (300, 27)).astype(np.uint8)
    u_c, f_c = decode_batch(code, ys)
    u_f, f_f = decode_batch(code, np.asfortranarray(ys))
    assert np.array_equal(u_c, u_f) and np.array_equal(f_c, f_f)


# --------------------------------- decoder vs MAP: wide tables, rate-1 leaves


def oracle_batches(code, rng, frames):
    """Honest words at several erasure rates, random symbols, and random
    erasure-free words (all messages known, mostly poisoned)."""
    n = code.N
    u = np.tile(code.frozen_values, (frames, 1))
    u[:, code.info_set] = rng.integers(0, 2, (frames, code.K), dtype=np.uint8)
    x = _encode_batch(code.kernel, u)
    eps = rng.choice([0.05, 0.2, 0.5, 0.8], (frames, 1))
    honest = np.where(rng.random((frames, n)) < eps, np.uint8(2), x)
    symbols = rng.integers(0, 3, (frames, n)).astype(np.uint8)
    bits = rng.integers(0, 2, (frames, n)).astype(np.uint8)
    return [honest, symbols, bits]


def assert_sc_matches_map(code, batches):
    for ys in batches:
        u_sc, f_sc = decode_batch(code, ys)
        u_mp, f_mp = _map_decode_batch(code, ys)
        assert np.array_equal(u_sc, u_mp)
        assert np.array_equal(f_sc, f_mp)
        # Small batches reach the rate-1 leaves whenever every frame of the
        # batch knows its messages or is poisoned.
        for row in range(0, ys.shape[0], 37):
            u_one, f_one = decode_batch(code, ys[row : row + 2])
            assert np.array_equal(u_one, u_mp[row : row + 2])
            assert np.array_equal(f_one, f_mp[row : row + 2])


@pytest.mark.parametrize(
    "kernel", random_invertible_kernels(707, [7, 8, 12]), ids=lambda k: f"l={k.l}"
)
def test_sc_matches_map_on_wide_kernels(kernel):
    # l = 7 fills the uint8 child tables; l >= 8 takes the uint16 ones.
    rng = np.random.default_rng(kernel.l)
    for _ in range(6):
        mask = rng.integers(0, 2, kernel.l).astype(np.uint8)
        vals = rng.integers(0, 2, kernel.l, dtype=np.uint8) * mask
        code = PolarCode(kernel=kernel, depth=1, frozen_mask=mask, frozen_values=vals)
        assert_sc_matches_map(code, oracle_batches(code, rng, 150))


@pytest.mark.parametrize(
    "kernel,depth,random_masks,frames",
    # the oracle of G_e at depth 2 enumerates 2^16 inputs per frame
    [(G2, 3, 4, 120), (G101, 2, 4, 120), (GE, 2, 2, 40)],
    ids=["G2-depth3", "G3-depth2", "Ge-depth2"],
)
def test_sc_matches_map_with_rate1_leaves(kernel, depth, random_masks, frames):
    rng = np.random.default_rng(17 * depth + kernel.l)
    n = kernel.l**depth
    # K = N, K = N - 1 (the last or the least reliable input frozen), random
    masks = [np.zeros(n, np.uint8), np.eye(1, n, n - 1, dtype=np.uint8)[0]]
    masks += [PolarCode.construct(kernel, depth, n - 1, 0.5).frozen_mask]
    masks += [(rng.random(n) < rng.random()).astype(np.uint8)
              for _ in range(random_masks)]
    for mask in masks:
        vals = rng.integers(0, 2, n, dtype=np.uint8) * mask
        code = PolarCode(kernel=kernel, depth=depth, frozen_mask=mask, frozen_values=vals)
        assert_sc_matches_map(code, oracle_batches(code, rng, frames))


# ------------------------------------------- decoder: known-message leaves

LEAF_FRAMES = ("known", "erased", "contradicting", "contradicting-erased", "random")


@st.composite
def leaf_batches(draw, codes):
    """A code with a random frozen set (at least one frozen input) and random
    frozen values, and a batch that mixes honest words with and without
    erasures, random symbols, and words of an input with one frozen value
    flipped. Such a word is live and knows its messages at every node above
    the flipped input, yet contradicts a frozen value there, so the leaf
    rule must descend; after that input it is poisoned. Every batch holds
    one such erasure-free word."""
    kernel, depth = draw(st.sampled_from(codes))
    kinds = draw(st.lists(st.sampled_from(LEAF_FRAMES), max_size=6))
    kinds.insert(draw(st.integers(0, len(kinds))), "contradicting")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = kernel.l**depth
    mask = (rng.random(n) < rng.random()).astype(np.uint8)
    mask[rng.integers(n)] = 1
    values = rng.integers(0, 2, n, dtype=np.uint8) * mask
    code = PolarCode(kernel=kernel, depth=depth, frozen_mask=mask, frozen_values=values)
    rows = []
    for kind in kinds:
        u = values.copy()
        u[code.info_set] = rng.integers(0, 2, code.K)
        if kind.startswith("contradicting"):
            u[rng.choice(np.flatnonzero(mask))] ^= 1
        y = _encode_batch(kernel, u[None])[0]
        if kind.endswith("erased"):
            y[rng.random(n) < rng.random()] = Symbol.ERASED
        if kind == "random":
            y = rng.integers(0, 3, n).astype(np.uint8)
        rows.append(y)
    return code, np.array(rows, dtype=np.uint8)


@settings(max_examples=200, deadline=None)
@given(leaf_batches([(G2, 2), (G2, 3), (G101, 1), (GE, 1)]))
def test_known_message_leaves_match_map(case):
    code, ys = case
    u_sc, f_sc = decode_batch(code, ys)
    u_mp, f_mp = _map_decode_batch(code, ys)
    assert np.array_equal(u_sc, u_mp)
    assert np.array_equal(f_sc, f_mp)


@settings(max_examples=60, deadline=None)
@given(leaf_batches([(G2, 6), (G101, 4), (GE, 3)]))
def test_known_message_leaves_batch_rows_equal_single_frames(case):
    code, ys = case
    u_b, f_b = decode_batch(code, ys)
    for row in range(ys.shape[0]):
        u_one, f_one = decode_batch(code, ys[row : row + 1])
        assert np.array_equal(u_one[0], u_b[row])
        assert np.array_equal(f_one[0], f_b[row])


@pytest.mark.parametrize("kernel", [GE, G101], ids=["Ge-depth2", "G3-depth2"])
def test_leaf_test_with_known_erased_and_poisoning_frames_in_every_order(kernel):
    # Three frames: one knows every message, one has a single erased message,
    # and one is an erasure-free word of an input with a frozen value flipped,
    # live and fully known at the root yet clashing with a frozen value there,
    # and poisoned from the flipped input on. In every row order, each row
    # decodes as it does alone and as the MAP oracle decides.
    rng = np.random.default_rng(2028)
    n = kernel.l**2
    # K = N/2, and K = N - 1 with only the last input frozen, where every
    # node before it is rate-1
    masks = [PolarCode.construct(kernel, 2, n // 2, 0.5).frozen_mask]
    masks += [np.eye(1, n, n - 1, dtype=np.uint8)[0]]
    for mask in masks:
        values = rng.integers(0, 2, n, dtype=np.uint8) * mask
        code = PolarCode(kernel=kernel, depth=2, frozen_mask=mask, frozen_values=values)
        frozen = np.flatnonzero(mask)
        for p in range(n):
            u = np.tile(values, (3, 1))
            u[:, code.info_set] = rng.integers(0, 2, (3, code.K))
            u[2, frozen[p % frozen.size]] ^= 1
            rows = _encode_batch(kernel, u)
            rows[1, p] = Symbol.ERASED
            u_mp, f_mp = _map_decode_batch(code, rows)
            alone = [decode_batch(code, rows[i : i + 1]) for i in range(3)]
            for order in map(list, itertools.permutations(range(3))):
                u_b, f_b = decode_batch(code, rows[order])
                assert np.array_equal(u_b, u_mp[order])
                assert np.array_equal(f_b, f_mp[order])
                for row, i in enumerate(order):
                    assert np.array_equal(u_b[row], alone[i][0][0])
                    assert np.array_equal(f_b[row], alone[i][1][0])


def test_decode_batch_of_no_frames_is_empty():
    code = PolarCode.construct(G101, 2, 4, 0.5)
    u_hat, flags = decode_batch(code, np.zeros((0, 9), np.uint8))
    for out in (u_hat, flags):
        assert out.shape == (0, 9) and out.dtype == np.uint8
