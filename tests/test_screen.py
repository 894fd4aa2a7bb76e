"""The pruned frame screen of run_monte_carlo against the full per-position
screen and against the decoder."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import PolarCode, parse_kernel
from polarkit.codec import (
    _kron_encode,
    _node_plan,
    _screen_known_planes,
    _screen_positions,
    decode_batch,
)
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
