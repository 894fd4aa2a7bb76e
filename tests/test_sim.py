import numpy as np
import pytest

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
from polarkit.sim import _run_direct, sim_csv_text

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


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1.0 and hi == 1.0


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


def test_batch_size_does_not_change_results():
    code = PolarCode.construct(GE, 2, 4, 0.5)
    stop = StopRule(min_frame_errors=20, max_trials=500)
    a = run_monte_carlo(code, 0.5, stop, master_seed=5)
    b = run_monte_carlo(code, 0.5, stop, master_seed=5, batch_size=13)
    c = run_monte_carlo(code, 0.5, stop, master_seed=5, batch_size=499)
    assert a == b == c


@pytest.mark.parametrize("batch_size", [0, -1])
def test_run_monte_carlo_rejects_batch_size_below_one(batch_size, monkeypatch):
    import polarkit.sim

    def no_sampling(*args):
        raise AssertionError("sampled before checking batch_size")

    monkeypatch.setattr(polarkit.sim, "_known_rows", no_sampling)
    code = PolarCode.construct(G2, 3, 4, 0.5)
    stop = StopRule(min_frame_errors=5, max_trials=100)
    with pytest.raises(ValueError, match="batch_size"):
        run_monte_carlo(code, 0.5, stop, master_seed=5, batch_size=batch_size)


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


@pytest.mark.parametrize("decode_frames", [1, 10**9])
def test_deferred_decoding_equals_direct_loop(monkeypatch, decode_frames):
    from polarkit import sim

    calls = []
    decode_batch = sim.decode_batch

    def counting_decode(code, ys):
        calls.append(ys.shape[0])
        return decode_batch(code, ys)

    monkeypatch.setattr(sim, "_DECODE_FRAMES", decode_frames)
    monkeypatch.setattr(sim, "decode_batch", counting_decode)
    code = PolarCode.construct(G2, 4, 8, 0.5)
    stop = StopRule(200, 2000)
    want = _run_direct(code, 0.6, stop, master_seed=21)
    assert want.frame_errors == 200
    for batch_size in (13, 64, None):
        calls.clear()
        kwargs = {} if batch_size is None else {"batch_size": batch_size}
        got = run_monte_carlo(code, 0.6, stop, master_seed=21, **kwargs)
        assert got == want
        assert sum(calls) == want.frame_errors
        if decode_frames == 1:
            # Each chunk's flagged frames are decoded before the next chunk.
            chunk = batch_size or 1 << 13
            assert max(calls) <= chunk
            assert len(calls) >= -(-want.frame_errors // chunk)
        else:
            assert calls == [want.frame_errors]
