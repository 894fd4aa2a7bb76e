"""The pruned frame screen of run_monte_carlo against the full per-position
screen and against the decoder."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import Kernel, PolarCode, StopRule, codec, gf2, parse_kernel
from polarkit import run_monte_carlo
from polarkit.codec import (
    _encode_batch,
    _kron_encode,
    _monotone_forms,
    _node_plan,
    _round_tables,
    _screen_known_planes,
    _screen_levels,
    _screen_positions,
    _ScreenLevel,
    decode_batch,
)
from polarkit.kernels import digit_reversal_permutation
from polarkit.sim import _bit_transpose, _known_rows

G2 = parse_kernel("10,11")
G3 = parse_kernel("100,101,111")
G101 = parse_kernel("100,110,011")
GE = parse_kernel("1000,1001,0101,1111")


def pruned_frames(code, known):
    return _screen_known_planes(code.kernel, _node_plan(code), known.copy())


def reference_frames(code, known):
    """Full screen, then the OR of the unknown planes of the information set."""
    full = _screen_positions(code.kernel, code.depth, known.copy())
    return np.bitwise_or.reduce(~full[code.info_set], axis=0)


def code_with_mask(kernel, depth, mask, rng):
    mask = np.asarray(mask, dtype=np.uint8)
    values = rng.integers(0, 2, mask.size, dtype=np.uint8) * mask
    return PolarCode(kernel=kernel, depth=depth, frozen_mask=mask, frozen_values=values)


def mask_with_k(n, k, rng):
    mask = np.ones(n, dtype=np.uint8)
    mask[rng.choice(n, size=k, replace=False)] = 0
    return mask


@pytest.mark.parametrize(
    "kernel,depth", [(G2, 6), (G3, 4), (G101, 3), (GE, 3)], ids=repr
)
@pytest.mark.parametrize("k_info", ["0", "1", "N-1", "N", "N/2"])
def test_pruned_screen_equals_full_screen_at_extreme_rates(kernel, depth, k_info):
    rng = np.random.default_rng(depth * 31 + kernel.l)
    n = kernel.l**depth
    k = {"0": 0, "1": 1, "N-1": n - 1, "N": n, "N/2": n // 2}[k_info]
    known = rng.integers(0, 256, (n, 24), dtype=np.uint8)
    # Sparse erasures as well as uniform planes, so that both frame verdicts
    # occur at every rate.
    known[:, 12:] |= rng.integers(0, 256, (n, 12), dtype=np.uint8)
    known[:, 18:] |= rng.integers(0, 256, (n, 6), dtype=np.uint8)
    for code in (
        PolarCode.construct(kernel, depth, k, 0.5),
        code_with_mask(kernel, depth, mask_with_k(n, k, rng), rng),
    ):
        assert np.array_equal(pruned_frames(code, known), reference_frames(code, known))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pruned_screen_equals_full_screen_on_random_masks(data):
    kernel, depth = data.draw(
        st.sampled_from([(G2, 5), (G2, 7), (G3, 3), (G101, 4), (GE, 2), (GE, 3)]),
        label="code",
    )
    n = kernel.l**depth
    mask = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="mask")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    code = code_with_mask(kernel, depth, mask, rng)
    known = rng.integers(0, 256, (n, 16), dtype=np.uint8)
    known[:, 8:] |= rng.integers(0, 256, (n, 8), dtype=np.uint8)
    assert np.array_equal(pruned_frames(code, known), reference_frames(code, known))


@pytest.mark.parametrize(
    "kernel,depth", [(G2, 3), (G3, 2), (G101, 2), (GE, 1)], ids=repr
)
def test_pruned_screen_on_every_erasure_pattern_matches_decoder(kernel, depth):
    # Every frozen mask for N <= 8, sampled ones for N = 9; each over all 2^N
    # erasure patterns. The decoder's verdict on the all-zero codeword is
    # independent ground truth: over the BEC the frame error depends only on
    # the erasure pattern.
    n = kernel.l**depth
    rng = np.random.default_rng(n)
    erased = np.array(list(itertools.product((False, True), repeat=n)))
    known = np.packbits(~erased.T, axis=1)
    if n <= 8:
        masks = itertools.product((0, 1), repeat=n)
    else:
        masks = [mask_with_k(n, k, rng) for k in range(n + 1) for _ in range(3)]
    zero_word = np.where(erased, np.uint8(2), np.uint8(0))
    for mask in masks:
        mask = np.array(mask, dtype=np.uint8)
        code = PolarCode(
            kernel=kernel, depth=depth, frozen_mask=mask, frozen_values=np.zeros(n)
        )
        frames = np.unpackbits(pruned_frames(code, known), count=erased.shape[0]) == 1
        u_hat, flags = decode_batch(code, zero_word)
        info = code.info_set
        decoded = ((flags[:, info] == 1) | (u_hat[:, info] != 0)).any(axis=1)
        assert np.array_equal(frames, decoded), mask
        assert np.array_equal(pruned_frames(code, known), reference_frames(code, known))


@pytest.mark.parametrize("k", [729, 1], ids=["K=729", "K=1"])
def test_pruned_screen_on_channel_chunk_of_non_word_aligned_code(k):
    # eps 0.45 samples 64-bit subuniforms, and N = 3^7 = 2187 is not a
    # multiple of 64: the planes come from the padded rows of _known_rows.
    rng = np.random.default_rng(k)
    depth, n, trials = 7, 2187, 1024
    rows = _known_rows(5, 0.45, n, 0, trials)
    known = _bit_transpose(rows, trials, 64 * (-(-n // 64)))[:n].view(np.uint8)
    constructed = PolarCode.construct(G3, depth, k, 0.45)
    for code in (constructed, code_with_mask(G3, depth, mask_with_k(n, k, rng), rng)):
        assert np.array_equal(pruned_frames(code, known), reference_frames(code, known))
    if k == 729:  # about 2% of the frames err at this rate
        assert np.unpackbits(pruned_frames(constructed, known)).any()


def test_node_plan_is_computed_once_per_code():
    frozen_bits = np.random.default_rng(3).integers(0, 2, 64 - 20)
    code = PolarCode.construct(GE, 3, 20, 0.5, frozen_bits=frozen_bits)
    assert _node_plan(code) is _node_plan(code)
    plan = _node_plan(code)
    assert not plan.encoded.flags.writeable
    covered = np.zeros(code.N, dtype=int)
    for marks in plan.rate0:
        size = code.N // marks.size
        assert not marks.flags.writeable
        for lo in np.flatnonzero(marks) * size:
            assert code.frozen_mask[lo : lo + size].all()
            values = code.frozen_values[None, lo : lo + size]
            expected = _kron_encode(code.kernel.matrix, values)[0]
            assert np.array_equal(plan.encoded[lo : lo + size], expected)
            covered[lo : lo + size] += 1
    # The reached rate-0 nodes are disjoint, and nothing else is encoded.
    assert covered.max() == 1 and not plan.encoded[covered == 0].any()
    assert plan.encoded.any()


def test_node_plan_is_freed_with_its_code():
    # The plan lives on its code, so nothing keeps it once the code is gone.
    code = PolarCode.construct(G3, 4, 40, 0.5)
    encoded = weakref.ref(_node_plan(code).encoded)
    del code
    gc.collect()
    assert encoded() is None


def test_decision_tables_are_built_once_per_code(monkeypatch):
    # Repeated decodes and a Monte Carlo run of a code read its plan's tables
    # and the screen's forms; each new code builds them once more.
    calls = []
    round_tables = codec._round_tables

    def counted(kernel):
        calls.append(kernel)
        return round_tables(kernel)

    monkeypatch.setattr(codec, "_round_tables", counted)
    rng = np.random.default_rng(5)
    for built in (1, 2):
        code = PolarCode.construct(GE, 3, 32, 0.5)
        for batch in (1, 7, 40):
            ys = rng.integers(0, 3, (batch, code.N))
            u_hat, _ = decode_batch(code, ys)
            assert u_hat.shape == (batch, code.N)
        report = run_monte_carlo(code, 0.45, StopRule(20, 4096), master_seed=built)
        assert report.frame_errors == 20
        assert calls == [GE] * built
    plan = _node_plan(code)
    for arr in (plan.inverse, plan.lamx, plan.par, plan.row_bits):
        assert not arr.flags.writeable


def random_invertible_kernel(l, rng):
    while True:
        m = rng.integers(0, 2, (l, l), dtype=np.uint8)
        if gf2.rank(m) == l:
            return Kernel(m)


_LAYOUT_RNG = np.random.default_rng(2015)
LAYOUT_CODES = [(G3, 3), (GE, 3)] + [
    (random_invertible_kernel(l, _LAYOUT_RNG), 2) for l in (5, 6, 7)
]
# The pruned screen, which views whole words as uint64, sees planes one byte
# wide (8 trials), one word wide (64), five bytes (40) and three words (192);
# the first two keep input order and the others are digit-reversed. The full
# screen reads the same planes as 1, 8, 5 and 24 bytes.
PLANE_TRIALS = [8, 64, 40, 192]


def erasures_at_spread_rates(n, trials, rng):
    """(trials, n) erasure patterns at rates from 0 to 0.7, so that every
    code sees both frame verdicts."""
    rates = np.linspace(0.0, 0.7, trials)[:, None]
    return rng.random((trials, n)) < rates


@pytest.mark.parametrize("trials", PLANE_TRIALS, ids=lambda t: f"{t}trials")
@pytest.mark.parametrize(
    "kernel,depth",
    LAYOUT_CODES,
    ids=[f"l={kernel.l}-depth{depth}" for kernel, depth in LAYOUT_CODES],
)
def test_screen_at_every_plane_width_matches_full_screen_and_decoder(
    kernel, depth, trials
):
    rng = np.random.default_rng(trials * 100 + kernel.l)
    n = kernel.l**depth
    erased = erasures_at_spread_rates(n, trials, rng)
    known = np.packbits(~erased.T, axis=1)
    full = _screen_positions(kernel, depth, known.copy())
    # The full screen of each byte column alone (one-element-wide planes, in
    # input order) equals that column of the full screen of all of them.
    for j in range(known.shape[1]):
        column = _screen_positions(kernel, depth, known[:, j : j + 1].copy())
        assert np.array_equal(column[:, 0], full[:, j])
    undetermined = np.unpackbits(~full, axis=1, count=trials).T == 1
    for code in (
        PolarCode.construct(kernel, depth, n // 2, 0.5),
        code_with_mask(kernel, depth, mask_with_k(n, n // 3, rng), rng),
    ):
        frames = pruned_frames(code, known)
        assert np.array_equal(frames, reference_frames(code, known))
        # The decoder on honest words: the same frames err, and each erring
        # frame is first flagged where the genie screen first fails.
        u = rng.integers(0, 2, (trials, n), dtype=np.uint8)
        u[:, code.frozen_mask == 1] = code.frozen_values[code.frozen_mask == 1]
        y = np.where(erased, np.uint8(2), _encode_batch(kernel, u))
        u_hat, flags = decode_batch(code, y)
        info = code.info_set
        wrong = (u_hat[:, info] != u[:, info]) | (flags[:, info] == 1)
        errs = wrong.any(axis=1)
        assert np.array_equal(np.unpackbits(frames, count=trials) == 1, errs)
        assert 0 < errs.sum() < trials
        screened = undetermined[:, info]
        assert np.array_equal(screened.any(axis=1), errs)
        first = np.argmax(screened[errs], axis=1)
        assert np.array_equal(first, np.argmax(flags[errs][:, info], axis=1))


@pytest.mark.parametrize(
    "width,dtype",
    [(1, np.uint8), (1, np.uint64), (5, np.uint8), (3, np.uint64)],
    ids=["1xuint8", "1xuint64", "5xuint8", "3xuint64"],
)
@pytest.mark.parametrize("kernel,depth", [(G2, 4), (G3, 3), (GE, 3)], ids=repr)
def test_screen_level_output_layout_depends_only_on_plane_width(
    kernel, depth, width, dtype
):
    # After one level, child t of the root holds input t of every kernel
    # operation: in input order for planes one element wide, and in the
    # child's own digit-reversed order for wider planes, the decoder's layout.
    l, n = kernel.l, kernel.l**depth
    rng = np.random.default_rng(n + width)
    nbytes = width * np.dtype(dtype).itemsize
    planes = rng.integers(0, 256, (n, nbytes), dtype=np.uint8)
    planes |= rng.integers(0, 256, planes.shape, dtype=np.uint8)
    keep_all = _ScreenLevel((slice(None),) * l, info=None, mixed=None)
    forms = _monotone_forms(_round_tables(kernel)[0])
    got = _screen_levels(forms, (keep_all,), planes.copy().view(dtype))[1]
    # One level is one kernel round of operation b over inputs b*l..b*l+l-1.
    ops = [
        _screen_positions(kernel, 1, planes[b * l : (b + 1) * l].copy())
        for b in range(n // l)
    ]
    natural = np.stack(ops, axis=1).reshape(n, nbytes).view(dtype)
    if width > 1:
        perm = digit_reversal_permutation(l, depth - 1)
        natural = natural.reshape(l, n // l, width)[:, perm].reshape(n, width)
    assert np.array_equal(got, natural)
