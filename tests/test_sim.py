import sys
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (
    BecChannel,
    PolarCode,
    StopRule,
    bec_transmit,
    compare_reports,
    parse_kernel,
    run_monte_carlo,
    wilson_interval,
)
from polarkit import sim
from polarkit.sim import _assemble_inputs, _message_bits, _run_direct, sim_csv_text

G2 = parse_kernel("10,11")
GE = parse_kernel("1000,1001,0101,1111")


def test_transmit_eps0_is_identity():
    x = np.tile([0, 1, 1, 0], 25)
    assert np.array_equal(bec_transmit(x, BecChannel(0.0, 1, 0)), x)


def test_transmit_eps1_erases_everything():
    x = np.zeros(64, np.uint8)
    assert (bec_transmit(x, BecChannel(1.0, 1, 0)) == 2).all()


def test_transmit_never_flips_bits():
    x = np.tile([0, 1], 500)
    y = bec_transmit(x, BecChannel(0.7, 3, 5))
    known = y != 2
    assert np.array_equal(y[known], x[known])


def test_transmit_concentration():
    x = np.zeros(100_000, np.uint8)
    frac = (bec_transmit(x, BecChannel(0.5, 7, 0)) == 2).mean()
    assert abs(frac - 0.5) < 0.01


def test_transmit_deterministic_per_trial():
    x = np.zeros(256, np.uint8)
    a = bec_transmit(x, BecChannel(0.4, 9, 3))
    b = bec_transmit(x, BecChannel(0.4, 9, 3))
    c = bec_transmit(x, BecChannel(0.4, 9, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_transmit_rejects_bad_eps():
    with pytest.raises(ValueError):
        BecChannel(1.5, 0, 0)


@pytest.mark.parametrize("k", [0, 1, 5, 8])
def test_assembled_inputs_are_the_per_trial_message_bits(k):
    # K = 5 leaves part of Philox's four-word buffer unread before the next
    # trial; trial ids and the seed reach the top of the 64-bit key range.
    rng = np.random.default_rng(k)
    mask = np.ones(16, np.uint8)
    mask[rng.choice(16, k, replace=False)] = 0
    values = rng.integers(0, 2, 16, dtype=np.uint8) * mask
    code = PolarCode(kernel=G2, depth=4, frozen_mask=mask, frozen_values=values)
    ids = [2**64 - 1, 0, 2**64 - 2, 7, 2**63, 2**64 - 1]
    for seed in (0, 2**64 - 1):
        u = _assemble_inputs(code, ids, seed)
        assert np.array_equal(u[:, mask == 1], np.tile(values[mask == 1], (6, 1)))
        bits = np.array([_message_bits(seed, j, k) for j in ids]).reshape(6, k)
        assert np.array_equal(u[:, code.info_set], bits)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)  # no trials: no information


@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
def test_monte_carlo_refuses_eps_outside_the_unit_interval(eps):
    code = PolarCode.construct(G2, 3, 4, 0.5)
    with pytest.raises(ValueError, match="erasure probability must be in"):
        run_monte_carlo(code, eps, StopRule(5, 100), master_seed=1)


def test_decoder_disagreeing_with_the_screen_is_an_error(monkeypatch):
    # At eps 0 the decoder resolves every frame, so a screen that flags every
    # trial of the chunk must trip the screen/decoder agreement check.
    def flag_everything(kernel, plan, known):
        return np.full(known.shape[1], 0xFF, dtype=np.uint8)

    monkeypatch.setattr(sim, "_screen_known_planes", flag_everything)
    code = PolarCode.construct(G2, 3, 4, 0.5)
    with pytest.raises(AssertionError, match="screen flagged a frame the decoder"):
        run_monte_carlo(code, 0.0, StopRule(5, 100), master_seed=1)


@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_fast_path_equals_direct_loop(eps):
    code = PolarCode.construct(G2, 4, 8, 0.5)
    stop = StopRule(min_frame_errors=25, max_trials=400)
    assert run_monte_carlo(code, eps, stop, master_seed=11) == _run_direct(
        code, eps, stop, master_seed=11
    )


def test_fast_path_equals_direct_loop_word_aligned():
    code = PolarCode.construct(G2, 6, 16, 0.5)  # N = 64 hits the packed path
    stop = StopRule(min_frame_errors=30, max_trials=300)
    for seed in (0, 11, 987654321987654321):
        assert run_monte_carlo(code, 0.5, stop, master_seed=seed) == _run_direct(
            code, 0.5, stop, master_seed=seed
        )


def test_batch_size_does_not_change_results(monkeypatch):
    from polarkit import sim

    code = PolarCode.construct(GE, 2, 4, 0.5)
    stop = StopRule(min_frame_errors=20, max_trials=500)
    a = run_monte_carlo(code, 0.5, stop, master_seed=5)
    monkeypatch.setattr(sim, "_CHUNK_TRIALS", 13)
    b = run_monte_carlo(code, 0.5, stop, master_seed=5)
    monkeypatch.setattr(sim, "_CHUNK_TRIALS", 499)
    c = run_monte_carlo(code, 0.5, stop, master_seed=5)
    assert a == b == c


@pytest.mark.parametrize(
    "kernel, depth, k, max_trials, want",
    [
        (G2, 10, 512, 8292, [8192, 128]),
        # 2^23 symbols hold 3,835 trials of N = 2187, rounded down to 3,776
        # (1 MiB of planes, as at N = 1024), and 128 trials of N = 65,536.
        (parse_kernel("100,110,111"), 7, 1093, 8000, [3776, 3776, 448]),
        (G2, 16, 32768, 300, [128, 128, 64]),
    ],
    ids=["N1024", "N2187", "N65536"],
)
def test_chunks_are_sized_from_the_code_length(
    monkeypatch, kernel, depth, k, max_trials, want
):
    # A chunk is 2^13 trials at short lengths and at most 2^23 symbols at
    # long ones, always a multiple of 64 trials (the last one padded up).
    from polarkit import sim

    sizes = []
    known_rows = sim._known_rows

    def recording_rows(master_seed, eps, n, trial_start, trials):
        sizes.append(trials)
        return known_rows(master_seed, eps, n, trial_start, trials)

    monkeypatch.setattr(sim, "_known_rows", recording_rows)
    code = PolarCode.construct(kernel, depth, k, 0.3)
    stop = StopRule(min_frame_errors=max_trials + 1, max_trials=max_trials)
    got = run_monte_carlo(code, 0.3, stop, master_seed=4)
    assert sizes == want
    if code.N == 1 << 16:
        # The report of the long code does not depend on its chunk size.
        monkeypatch.setattr(sim, "_CHUNK_TRIALS", 13)
        assert run_monte_carlo(code, 0.3, stop, master_seed=4) == got


def test_reports_reproducible():
    code = PolarCode.construct(G2, 5, 8, 0.5)
    stop = StopRule(min_frame_errors=10, max_trials=300)
    a = run_monte_carlo(code, 0.45, stop, master_seed=77)
    b = run_monte_carlo(code, 0.45, stop, master_seed=77)
    assert a == b
    assert sim_csv_text([a]) == sim_csv_text([b])


def test_stop_rule_cuts_at_exact_trial():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    report = run_monte_carlo(code, 0.9, StopRule(5, 100_000), master_seed=1)
    assert report.frame_errors == 5
    direct = _run_direct(code, 0.9, StopRule(5, 100_000), master_seed=1)
    assert report.trials == direct.trials


def test_extreme_eps_short_circuits():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    r0 = run_monte_carlo(code, 0.0, StopRule(5, 200), master_seed=2)
    assert r0.fer == 0.0 and r0.ber == 0.0 and r0.trials == 200
    r1 = run_monte_carlo(code, 1.0, StopRule(5, 200), master_seed=2)
    assert r1.fer == 1.0 and r1.frame_errors == 5


def test_fer_monotone_in_channel_quality():
    code = PolarCode.construct(G2, 4, 8, 0.5)
    stop = StopRule(min_frame_errors=100, max_trials=20_000)
    lo = run_monte_carlo(code, 0.3, stop, master_seed=3)
    hi = run_monte_carlo(code, 0.5, stop, master_seed=3)
    assert lo.frame_errors >= 100 and hi.frame_errors >= 100
    assert lo.fer <= hi.fer


def test_measured_fer_respects_union_bound():
    from polarkit import bler_upper_bound, evolve_spectrum

    code = PolarCode.construct(G2, 5, 8, 0.5)
    r = run_monte_carlo(code, 0.5, StopRule(100, 50_000), master_seed=14)
    bound = bler_upper_bound(evolve_spectrum(G2, 0.5, 5), 8)
    half = (r.fer_ci_high - r.fer_ci_low) / 2
    assert r.fer <= bound + 2 * half


def test_ber_counts_flagged_or_wrong():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    r = run_monte_carlo(code, 0.6, StopRule(50, 500), master_seed=4)
    assert r.bit_erasures <= r.bit_errors
    assert r.ber == pytest.approx(r.bit_errors / (r.K * r.trials))
    assert r.fer == pytest.approx(r.frame_errors / r.trials)
    assert r.fer_ci_low <= r.fer <= r.fer_ci_high


def test_compare_reports_self():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    r = run_monte_carlo(code, 0.5, StopRule(20, 300), master_seed=6)
    verdict = compare_reports(r, r)
    assert verdict.indistinguishable
    assert verdict.gap == 0.0


def test_compare_reports_distinguishable():
    code = PolarCode.construct(G2, 4, 8, 0.5)
    a = run_monte_carlo(code, 0.3, StopRule(200, 3000), master_seed=8)
    b = run_monte_carlo(code, 0.3, StopRule(200, 3000), master_seed=9)
    bad = type(a)(**{**a.__dict__, "fer_ci_low": 0.9, "fer_ci_high": 0.95})
    verdict = compare_reports(bad, b)
    assert not verdict.indistinguishable
    assert verdict.gap > 0


def test_compare_reports_rejects_mismatched_eps():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    a = run_monte_carlo(code, 0.4, StopRule(5, 50), master_seed=1)
    b = run_monte_carlo(code, 0.5, StopRule(5, 50), master_seed=1)
    with pytest.raises(ValueError):
        compare_reports(a, b)


def test_compare_reports_rejects_mismatched_rates():
    a = run_monte_carlo(
        PolarCode.construct(G2, 3, 4, 0.5), 0.5, StopRule(5, 50), master_seed=1
    )
    b = run_monte_carlo(
        PolarCode.construct(G2, 3, 2, 0.5), 0.5, StopRule(5, 50), master_seed=1
    )
    with pytest.raises(ValueError):
        compare_reports(a, b)


def test_sim_csv_layout():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    r = run_monte_carlo(code, 0.5, StopRule(5, 100), master_seed=12)
    text = sim_csv_text([r])
    header, row = text.strip().split("\n")
    assert header == (
        "epsilon,N,K,trials,bit_errors,bit_erasures,frame_errors,ber,fer,"
        "ci_low,ci_high,seed"
    )
    fields = row.split(",")
    assert fields[0] == "0.5" and fields[1] == "8" and fields[2] == "4"
    assert fields[-1] == "12"


@pytest.mark.parametrize("rows,cols", [(64, 64), (128, 1024), (640, 192)])
def test_bit_transpose_matches_unpacked_transpose(rows, cols):
    from polarkit.sim import _bit_transpose

    rng = np.random.default_rng(rows + cols)
    bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64).reshape(-1)
    before = words.copy()
    got = _bit_transpose(words, rows, cols)
    want = np.packbits(bits.T.copy(), axis=1, bitorder="little").view(np.uint64)
    assert np.array_equal(got, want)
    assert np.array_equal(words, before)


def test_bit_transpose_on_monte_carlo_shapes():
    from polarkit.sim import _bit_transpose

    # A default chunk of trials against N = 2187, padded to 35 words.
    rows, cols = 8192, 2240
    rng = np.random.default_rng(2187)
    bits = rng.integers(0, 2, (rows, cols), dtype=np.uint8)
    words = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    before = words.copy()
    got = _bit_transpose(words, rows, cols)
    want = np.packbits(bits.T.copy(), axis=1, bitorder="little").view(np.uint64)
    assert np.array_equal(got, want)
    assert np.array_equal(words, before)

    # Every single bit of a 64x128 matrix lands at its transposed place.
    rows, cols = 64, 128
    for r in range(rows):
        for c in range(cols):
            words = np.zeros((rows, cols // 64), dtype=np.uint64)
            words[r, c // 64] = np.uint64(1) << np.uint64(c % 64)
            got = _bit_transpose(words, rows, cols)
            assert words[r, c // 64] == np.uint64(1) << np.uint64(c % 64)
            assert np.count_nonzero(got) == 1
            assert got[c, r // 64] == np.uint64(1) << np.uint64(r % 64)


@pytest.mark.parametrize("spare", [0, 1, 640], ids=["exact", "one_word", "next_chunk"])
def test_bit_transpose_writes_into_a_given_buffer(spare):
    # A buffer of at least cols * rows / 64 words takes the transpose in its
    # first words, as the Monte Carlo loop's last, shorter chunk does.
    from polarkit.sim import _bit_transpose

    rows, cols = 128, 192
    rng = np.random.default_rng(spare)
    words = rng.integers(0, 2**64, (rows, cols // 64), dtype=np.uint64)
    want = _bit_transpose(words, rows, cols)
    out = np.full(cols * rows // 64 + spare, 7, dtype=np.uint64)
    got = _bit_transpose(words, rows, cols, out=out)
    assert np.array_equal(got, want) and got.shape == (cols, rows // 64)
    assert np.shares_memory(got, out) and got.flags.c_contiguous
    assert np.array_equal(got.reshape(-1), out[: got.size])
    assert (out[got.size :] == 7).all()


def test_monte_carlo_chunks_reuse_one_plane_buffer(monkeypatch):
    # Chunks of 200, 200 and 100 trials, padded to 256, 256 and 128: every
    # transpose after the first writes into the previous chunk's planes, the
    # last one into their first half, and the report does not change.
    code = PolarCode.construct(G2, 6, 32, 0.5)
    stop = StopRule(501, 500)
    want = run_monte_carlo(code, 0.45, stop, master_seed=3)
    calls = []
    transpose = sim._bit_transpose

    def recording_transpose(words, rows, cols, out=None):
        planes = transpose(words, rows, cols, out=out)
        calls.append((rows, out, planes))
        return planes

    monkeypatch.setattr(sim, "_bit_transpose", recording_transpose)
    monkeypatch.setattr(sim, "_CHUNK_TRIALS", 200)
    got = run_monte_carlo(code, 0.45, stop, master_seed=3)
    assert sim_csv_text([got]) == sim_csv_text([want])
    assert got == _run_direct(code, 0.45, stop, master_seed=3)
    assert [rows for rows, _, _ in calls] == [256, 256, 128]
    first = calls[0][2]
    assert calls[0][1] is None
    for (_, _, before), (_, out, planes) in zip(calls, calls[1:]):
        assert out is before and np.shares_memory(planes, first)
    assert calls[-1][2].size == first.size // 2


@pytest.mark.parametrize("decode_frames", [1, 16, 10**9])
def test_deferred_decoding_equals_direct_loop(monkeypatch, decode_frames):
    from polarkit import sim

    # One event per chunk (the trial it starts at) and per decode (the trial
    # ids it decodes), in call order.
    events = []
    known_rows, decode_flagged = sim._known_rows, sim._decode_flagged

    def marking_rows(master_seed, eps, n, trial_start, trials):
        events.append(("chunk", trial_start))
        return known_rows(master_seed, eps, n, trial_start, trials)

    def recording_decode(code, trial_ids, rows, master_seed):
        events.append(("decode", trial_ids.copy()))
        return decode_flagged(code, trial_ids, rows, master_seed)

    monkeypatch.setattr(sim, "_DECODE_FRAMES", decode_frames)
    monkeypatch.setattr(sim, "_known_rows", marking_rows)
    monkeypatch.setattr(sim, "_decode_flagged", recording_decode)
    code = PolarCode.construct(G2, 4, 8, 0.5)
    stop = StopRule(200, 2000)
    want = _run_direct(code, 0.6, stop, master_seed=21)
    assert want.frame_errors == 200
    for chunk_trials in (13, 64, sim._CHUNK_TRIALS):
        events.clear()
        monkeypatch.setattr(sim, "_CHUNK_TRIALS", chunk_trials)
        got = run_monte_carlo(code, 0.6, stop, master_seed=21)
        assert got == want
        decoded = [ids for kind, ids in events if kind == "decode"]
        flagged = np.concatenate(decoded)
        assert flagged.size == want.frame_errors
        assert np.unique(flagged).size == flagged.size
        # A flush decodes in batches of at most _DECODE_FRAMES, however many
        # frames are pending (with the default chunk, all 200 at once).
        assert max(ids.size for ids in decoded) <= decode_frames
        if decode_frames > want.frame_errors:
            assert [ids.size for ids in decoded] == [want.frame_errors]
        # Flushes happen as the run goes: when a chunk starts, fewer than
        # _DECODE_FRAMES flagged frames of the earlier chunks are still
        # waiting (with a cap of 1, every chunk is decoded before the next).
        done = 0
        for kind, x in events:
            if kind == "decode":
                done += x.size
            else:
                waiting = np.count_nonzero(flagged < x) - done
                assert 0 <= waiting < decode_frames


@pytest.mark.parametrize(
    "frames, symbols, cap", [(16, 1 << 24, 16), (1 << 10, 2600, 10)]
)
def test_flush_decodes_within_the_frame_and_symbol_caps(
    monkeypatch, frames, symbols, cap
):
    # At rate 3/4 and eps 0.5 nearly every frame of a 512-trial chunk is
    # flagged, far more than either cap lets one decode take (2,600 symbols
    # are 10 frames of N = 256, and shrink the chunks to 64 trials).
    from polarkit import sim

    monkeypatch.setattr(sim, "_CHUNK_TRIALS", 512)
    code = PolarCode.construct(G2, 8, 192, 0.5)
    stop = StopRule(1200, 1536)
    want = run_monte_carlo(code, 0.5, stop, master_seed=8)
    assert want.frame_errors > 1000

    sizes = []
    decode_batch = sim.decode_batch

    def counting_decode(code, ys):
        sizes.append(ys.shape[0])
        return decode_batch(code, ys)

    monkeypatch.setattr(sim, "_DECODE_FRAMES", frames)
    monkeypatch.setattr(sim, "_BATCH_SYMBOLS", symbols)
    monkeypatch.setattr(sim, "decode_batch", counting_decode)
    got = run_monte_carlo(code, 0.5, stop, master_seed=8)
    assert got == want
    assert sum(sizes) == want.frame_errors
    assert max(sizes) == cap


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a call holds its arguments until it returns, so the "
    "decoder cannot free the words it is passed",
)
@pytest.mark.parametrize(
    "kernel, depth, k, frames, bound",
    [("100,110,011", 6, 243, 252, 4.7), ("1000,1001,0101,1111", 4, 128, 1826, 4.3)],
    ids=["G3-N729", "Ge-N256"],
)
def test_flagged_decode_peak_memory_per_symbol(kernel, depth, k, frames, bound):
    # Measured in bytes per symbol (G_3 at N = 729 with 252 frames, G_e at
    # N = 256 with 1,826): 4.19 and 3.64. The inputs are held packed, the
    # encoder's spare buffer takes its transpose, the outputs are allocated
    # by the first leaf that writes them, the second mask overwrites the node's
    # messages and a node's prior waits for its first child, so the peak
    # falls at a level-1 node's mask build. With full inputs, the outputs
    # allocated first and a fresh bool array per second mask the same
    # batches took 5.70 and 5.51; holding the words twice, with a full-size
    # temporary per mask, took 8.4 (G_3).
    from polarkit.codec import _node_plan, _screen_known_planes

    code = PolarCode.construct(parse_kernel(kernel), depth, k, 0.5)
    n, trials = code.N, 2048
    rows = sim._known_rows(9, 0.45, n, 0, trials)
    planes = sim._bit_transpose(rows, trials, 64 * -(-n // 64))
    frame_plane = _screen_known_planes(
        code.kernel, _node_plan(code), planes[:n].view(np.uint8)
    )
    ids = np.flatnonzero(np.unpackbits(frame_plane, count=trials, bitorder="little"))
    assert ids.size == frames
    held = rows[ids]
    want = sim._decode_flagged(code, ids, held, 9)  # warms the per-code caches
    tracemalloc.start()
    try:
        got = sim._decode_flagged(code, ids, held, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak <= bound * ids.size * n


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_refused(seed):
    # Seeds are Philox key words; reducing them modulo 2^64 would alias -1
    # and 2^64 - 1.
    code = PolarCode.construct(G2, 3, 4, 0.5)
    with pytest.raises(ValueError, match="master seed"):
        run_monte_carlo(code, 0.5, StopRule(5, 100), master_seed=seed)
    with pytest.raises(ValueError, match="master seed"):
        BecChannel(0.5, master_seed=seed)


def test_transmit_rejects_negative_trial_index():
    with pytest.raises(ValueError, match="trial index"):
        BecChannel(0.3, 1, -1)


def test_transmit_refuses_trial_ids_beyond_64_bits():
    # Trial ids are Philox key words, as seeds are.
    with pytest.raises(ValueError, match=r"trial index must be in \[0, 2\*\*64\)"):
        bec_transmit([1, 0, 1, 1], BecChannel(0.3, 1, 2**64))


@pytest.mark.parametrize("trial", [1.5, "3", None, True])
def test_transmit_refuses_trial_ids_that_are_not_integers(trial):
    with pytest.raises(TypeError, match="trial index must be an integer"):
        BecChannel(0.3, 1, trial)


def test_channel_takes_numpy_integer_trial_ids():
    ch = BecChannel(0.3, 1, np.uint64(2**64 - 1))
    assert type(ch.trial_index) is int and ch == BecChannel(0.3, 1, 2**64 - 1)


def test_stop_rule_refuses_more_than_2_to_the_64_trials():
    assert StopRule(1, 2**64).max_trials == 2**64  # trial ids 0 .. 2^64 - 1
    with pytest.raises(ValueError, match="max_trials"):
        StopRule(1, 2**64 + 1)


@pytest.mark.parametrize("n", [1024, 1001])
@pytest.mark.parametrize("eps", [0.45, 0.5], ids=["k64", "k1"])
@pytest.mark.parametrize("trial", [2**61, 2**64 - 1], ids=["2^61", "2^64-1"])
def test_high_trial_ids_read_their_documented_stream_position(n, eps, trial):
    # Symbol p of trial j reads the k bits at stream offset (j*N + p)*k; here
    # the block number of that word passes 2^64 (at N = 1001 its low 64-bit
    # word is odd). Philox.advance, which adds to the whole 256-bit counter,
    # reads the same words independently. N = 1024 at k = 1 is the raw path.
    seed = 9
    k, threshold = {0.45: (64, int(0.45 * 2**64)), 0.5: (1, 1)}[eps]
    assert (k, threshold) == sim._subuniform(eps)
    word, skip = divmod(trial * n * k, 64)
    block, lane = divmod(word, 4)
    bg = np.random.Philox(key=np.array([seed, 2**62], dtype=np.uint64))
    bg.advance(block)
    words = bg.random_raw(lane + -(-(skip + n * k) // 64))[lane:]
    if k == 1:
        fields = np.unpackbits(words.view(np.uint8), bitorder="little")[skip:]
    else:
        fields = words
    y = bec_transmit(np.ones(n, np.uint8), BecChannel(eps, seed, trial))
    assert np.array_equal(y == 2, fields[:n] < threshold)


def test_long_g3_report_is_pinned():
    # G_3 at depth 9 (N = 19,683, not a multiple of 64): every frame fails
    # at eps 0.45 and one batch decodes all 64 of them. The counts were
    # recorded with tallies over the information set alone.
    code = PolarCode.construct(parse_kernel("100,110,011"), 9, 9841, 0.5)
    report = run_monte_carlo(code, 0.45, StopRule(65, 64), master_seed=5)
    assert (report.K, report.trials, report.frame_errors) == (9841, 64, 64)
    assert (report.bit_errors, report.bit_erasures) == (626_559, 626_346)
    assert type(report.bit_errors) is int and type(report.bit_erasures) is int
    assert sim_csv_text([report]).split("\n")[1] == (
        "0.45,19683,9841,64,626559,626346,64,0.994816012092,1,0.943375940207,1,5"
    )


@pytest.mark.parametrize(
    "errors, trials",
    [(2, 5000.0), (1.5, 5000), ("3", 10), (None, 10), (True, 10)],
)
def test_stop_rule_refuses_values_that_are_not_integers(errors, trials):
    with pytest.raises(TypeError, match="must be an integer"):
        StopRule(errors, trials)


def test_stop_rule_takes_numpy_integers():
    stop = StopRule(np.int64(3), np.uint16(40))
    assert stop == StopRule(3, 40) and type(stop.max_trials) is int
    code = PolarCode.construct(G2, 3, 4, 0.5)
    assert run_monte_carlo(code, 0.9, stop, 1) == _run_direct(code, 0.9, stop, 1)


def test_subuniform_finer_than_64_bits_falls_back_to_64():
    # No k-bit field resolves 2^-70: every symbol arrives.
    assert sim._subuniform(2**-70) == (64, 0)
    assert sim._subuniform(2**-64) == (64, 1)


# N a multiple of 64 (G_2, G_e) and not (G_3); _run_direct checks the first.
_CHUNKING_CODES = (
    PolarCode.construct(GE, 3, 32, 0.5),
    PolarCode.construct(G2, 6, 32, 0.5),
    PolarCode.construct(parse_kernel("100,110,011"), 4, 40, 0.5),
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reports_do_not_depend_on_chunking(data):
    # Chunk size, decode budget, symbol budget and sub-block size only change
    # how the work is cut up, never the report.
    code = data.draw(st.sampled_from(_CHUNKING_CODES), label="code")
    # k = 1, 2, 4 and 64 bits per symbol; eps 0.5 at N = 64 is the raw path.
    eps = data.draw(st.sampled_from([0.5, 0.75, 0.3125, 0.45]), label="eps")
    constants = {
        "_CHUNK_TRIALS": data.draw(st.integers(1, 200)),
        "_DECODE_FRAMES": data.draw(st.integers(1, 40)),
        "_BATCH_SYMBOLS": data.draw(st.integers(1, 1 << 14)),
        # below N = 81, sub-blocks are 64-symbol segments of one row
        "_BLOCK_SYMBOLS": data.draw(st.integers(64, 256)),
    }
    frames = constants["_DECODE_FRAMES"]
    # An error budget that a chunk reaches part-way, or one that fills the
    # pending frames to a whole number of flushes.
    errors = data.draw(
        st.integers(1, 100) | st.integers(1, 3).map(lambda m: m * frames),
        label="min_frame_errors",
    )
    stop = StopRule(errors, data.draw(st.integers(1, 300), label="max_trials"))
    want = sim_csv_text([run_monte_carlo(code, eps, stop, master_seed=29)])
    with patch.multiple(sim, **constants):
        got = run_monte_carlo(code, eps, stop, master_seed=29)
    assert sim_csv_text([got]) == want
    if code is _CHUNKING_CODES[0]:
        assert got == _run_direct(code, eps, stop, master_seed=29)


@pytest.mark.parametrize("seed", [0.9, 1.5, True])
def test_seeds_that_are_not_integers_are_refused(seed):
    # A float is never truncated to a key word: 0.9 would run seed 0.
    code = PolarCode.construct(G2, 3, 4, 0.5)
    with pytest.raises(TypeError, match="master seed must be an integer"):
        run_monte_carlo(code, 0.5, StopRule(5, 100), master_seed=seed)
    with pytest.raises(TypeError, match="master seed must be an integer"):
        BecChannel(0.5, master_seed=seed)


def test_numpy_integer_seeds_are_reported_as_int():
    code = PolarCode.construct(G2, 3, 4, 0.5)
    report = run_monte_carlo(code, 0.5, StopRule(5, 100), master_seed=np.uint64(7))
    assert type(report.master_seed) is int
    assert report == run_monte_carlo(code, 0.5, StopRule(5, 100), master_seed=7)
    assert type(BecChannel(0.5, np.int64(7)).master_seed) is int


def test_flush_holds_back_fewer_frames_than_one_decode_batch(monkeypatch):
    # 2,600 symbols make a decode batch 10 frames of N = 256 and a chunk 64
    # trials, nearly all of them flagged at rate 3/4 and eps 0.5. A flush
    # starts once one batch is pending, so fewer than 10 flagged frames wait
    # whenever a chunk starts, and the rows held do not grow with N.
    monkeypatch.setattr(sim, "_CHUNK_TRIALS", 512)
    code = PolarCode.construct(G2, 8, 192, 0.5)
    stop = StopRule(1200, 1536)
    want = run_monte_carlo(code, 0.5, stop, master_seed=8)

    flagged, decoded, waiting = [0], [0], []
    screen, decode_batch, known_rows = (
        sim._screen_known_planes, sim.decode_batch, sim._known_rows
    )

    def counting_screen(kernel, plan, known):
        plane = screen(kernel, plan, known)
        flagged[0] += int(np.unpackbits(plane).sum())
        return plane

    def counting_decode(code, ys):
        decoded[0] += ys.shape[0]
        return decode_batch(code, ys)

    def chunk_start(*args):
        waiting.append(flagged[0] - decoded[0])
        return known_rows(*args)

    monkeypatch.setattr(sim, "_BATCH_SYMBOLS", 2600)
    monkeypatch.setattr(sim, "_screen_known_planes", counting_screen)
    monkeypatch.setattr(sim, "decode_batch", counting_decode)
    monkeypatch.setattr(sim, "_known_rows", chunk_start)
    got = run_monte_carlo(code, 0.5, stop, master_seed=8)
    assert got == want and decoded[0] == want.frame_errors
    assert len(waiting) == -(-want.trials // 64) > 10
    assert max(waiting) < 10
