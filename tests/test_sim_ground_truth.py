"""Ground truth for the Monte Carlo channel: an independent reader of the
documented randomness layout, and exact FERs of small codes by enumerating
every erasure pattern."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polarkit import (
    PolarCode,
    StopRule,
    encode,
    evolve_spectrum,
    genie_erasure_flags,
    map_oracle_decode,
    parse_kernel,
    run_monte_carlo,
)
from polarkit import sim
from polarkit.codec import _screen_positions
from polarkit.sim import _bit_transpose, _erasure_block, _known_rows

G2 = parse_kernel("10,11")
G3 = parse_kernel("100,110,011")
GE = parse_kernel("1000,1001,0101,1111")


def _reference_erasures(seed, eps, n, trial_start, trials):
    """Symbol p of trial j reads the k bits at stream offset (j*N + p)*k and
    is erased iff they are below floor(eps * 2**k); k is the smallest power
    of two (at most 64) for which eps * 2**k is an integer, else 64."""
    frac = Fraction(eps)
    k = next((k for k in (1, 2, 4, 8, 16, 32) if (frac * 2**k).denominator == 1), 64)
    threshold = math.floor(frac * 2**k)
    first = trial_start * n * k
    end = (trial_start + trials) * n * k
    key = np.array([seed, 1 << 62], dtype=np.uint64)
    words = np.random.Philox(key=key).random_raw(-(-end // 64))
    stream = int.from_bytes(words.astype("<u8").tobytes(), "little")
    mask = (1 << k) - 1
    out = np.zeros((trials, n), dtype=bool)
    for j in range(trials):
        for p in range(n):
            out[j, p] = (stream >> (first + (j * n + p) * k)) & mask < threshold
    return out


# eps 0 and 1, then k = 1, 2, 2, 4, 8, 16, 32, 64, 64
SAMPLER_EPS = [
    0.0,
    1.0,
    0.5,
    0.25,
    0.75,
    5 / 16,
    15 / 128,
    19661 / 65536,
    1234567 / 2**32,
    0.45,
    0.3,
]


@pytest.mark.parametrize("eps", SAMPLER_EPS)
@pytest.mark.parametrize("n", [1, 7, 9, 27, 64, 65, 128])
def test_sampler_matches_bitstream_reader(monkeypatch, eps, n):
    # Small sub-blocks, so that rows straddle sub-block boundaries.
    monkeypatch.setattr(sim, "_BLOCK_SYMBOLS", 100)
    seed = 987654321987654321
    for trial_start, trials in ((0, 5), (3, 9), (37, 4)):
        want = _reference_erasures(seed, eps, n, trial_start, trials)
        rows = _known_rows(seed, eps, n, trial_start, trials)
        assert rows.dtype == np.uint64 and rows.shape == (trials, -(-n // 64))
        bits = np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")
        assert not bits[:, n:].any(), "padding bits must be clear"
        assert np.array_equal(bits[:, :n] == 0, want)
        assert np.array_equal(_erasure_block(seed, eps, n, trial_start, trials), want)


def _exact_fer(code, eps, use_map):
    """Exact FER of SC decoding on the BEC, from all 2^N erasure patterns."""
    n, info = code.N, code.info_set
    erased = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1 == 1
    if use_map:
        u = code.frozen_values.copy()
        x = encode(code, u)
        bad = np.zeros(len(erased), dtype=bool)
        for i, pattern in enumerate(erased):
            res = map_oracle_decode(code, np.where(pattern, 2, x))
            bad[i] = ((res.erased_flags[info] == 1) | (res.u_hat[info] != u[info])).any()
    else:
        bad = genie_erasure_flags(code.kernel, code.depth, erased)[:, info].any(axis=1)
    hist = np.bincount(erased[bad].sum(axis=1), minlength=n + 1)
    return sum(int(h) * eps**s * (1 - eps) ** (n - s) for s, h in enumerate(hist))


@pytest.mark.parametrize("kernel,depth,k", [(G2, 2, 2), (G2, 3, 4)])
def test_exact_fer_map_oracle_agrees_with_screen(kernel, depth, k):
    code = PolarCode.construct(kernel, depth, k, 0.5)
    for eps in (0.5, 0.3, 0.1):
        assert _exact_fer(code, eps, use_map=True) == pytest.approx(
            _exact_fer(code, eps, use_map=False), abs=1e-15
        )


ORACLE_CASES = [
    (G2, 3, 4, True),  # N = 8: flags from the MAP oracle, no screen
    (G3, 2, 4, False),  # N = 9: not a multiple of 8 or 64
    (GE, 2, 6, False),
    (G2, 4, 8, False),
]


@pytest.mark.parametrize("kernel,depth,k,use_map", ORACLE_CASES)
@pytest.mark.parametrize("eps", [0.5, 0.25, 15 / 128, 0.45, 0.3])
def test_monte_carlo_fer_matches_exact_fer(kernel, depth, k, use_map, eps):
    code = PolarCode.construct(kernel, depth, k, 0.5)
    exact = _exact_fer(code, eps, use_map)
    trials = 1 << 16
    report = run_monte_carlo(
        code, eps, StopRule(min_frame_errors=trials + 1, max_trials=trials), 20240509
    )
    assert report.trials == trials
    z = (report.fer - exact) / math.sqrt(exact * (1 - exact) / trials)
    assert abs(z) <= 4, f"fer {report.fer:.5f} vs exact {exact:.5f}, z = {z:.2f}"
    # A frame error is the union of the genie flags of the information set.
    zs = evolve_spectrum(kernel, eps, depth).z[code.info_set]
    assert zs.max() - 1e-12 <= exact <= zs.sum() + 1e-12


#: two-sided tail of a 5-sigma normal deviation: the per-position bound of the
#: erasure-rate test, about 3e-3 family-wise over its 5,000 or so positions
_FIVE_SIGMA = math.erfc(5 / math.sqrt(2))


def _binomial_two_sided(count, trials, p):
    """Exact two-sided binomial tail of `count` successes in `trials`,
    2 * min(P(X <= count), P(X >= count)), for a small mean trials * p."""
    if p == 0.0:
        return 1.0 if count == 0 else 0.0
    mean = trials * p
    top = min(trials, max(count, int(mean + 40 * math.sqrt(mean) + 40)))
    j = np.arange(top + 1)
    log_pmf = (
        math.lgamma(trials + 1)
        - np.array([math.lgamma(i + 1) + math.lgamma(trials - i + 1) for i in j])
        + j * math.log(p)
        + (trials - j) * math.log1p(-p)
    )
    pmf = np.exp(log_pmf)
    return min(1.0, 2 * min(pmf[: count + 1].sum(), pmf[count:].sum()))


# eps 0.5 and 0.45 are the k = 1 and k = 64 channel paths, 19661/65536 k = 16
ERASURE_RATE_CASES = [
    (GE, 5, 0.5),
    (G2, 10, 0.5),
    (G3, 7, 0.45),
    (GE, 5, 19661 / 65536),
]


@pytest.mark.parametrize(
    "kernel,depth,eps", ERASURE_RATE_CASES, ids=["Ge-0.5", "G2-0.5", "G3-0.45", "Ge-k16"]
)
def test_screen_erasure_rates_match_spectrum_at_full_length(kernel, depth, eps):
    # The channel sampler, the bit transpose and the full genie screen of
    # 2^16 trials give each input's erasure count, which is binomial with the
    # rate of evolve_spectrum. Dense positions take a normal bound, sparse
    # ones (variance below 100) an exact binomial tail.
    n, trials, chunk = kernel.l**depth, 1 << 16, 1 << 13
    width = 64 * (-(-n // 64))
    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, trials, chunk):
        rows = _known_rows(20240509, eps, n, start, chunk)
        known = _bit_transpose(rows, chunk, width)[:n].view(np.uint8)
        determined = _screen_positions(kernel, depth, known)
        counts += chunk - np.bitwise_count(determined).sum(axis=1, dtype=np.int64)
    z = evolve_spectrum(kernel, eps, depth).z
    var = trials * z * (1 - z)
    dense = np.flatnonzero(var >= 100)
    dev = (counts[dense] - trials * z[dense]) / np.sqrt(var[dense])
    worst = np.argmax(np.abs(dev))
    assert abs(dev[worst]) <= 5, (dense[worst], dev[worst])
    for i in np.flatnonzero(var < 100).tolist():
        # The rarer outcome keeps the binomial mean small.
        rare, p = (counts[i], z[i]) if z[i] <= 0.5 else (trials - counts[i], 1 - z[i])
        tail = _binomial_two_sided(int(rare), trials, float(p))
        assert tail >= _FIVE_SIGMA, (i, int(counts[i]), float(z[i]), tail)
