"""Seeded BEC channel and Monte Carlo BER/FER estimation.

Randomness layout (fixed for byte-exact reproducibility, all streams Philox
counter-based so results are independent of execution order and batching):

* Channel noise: the raw 64-bit word stream of ``Philox(key=(seed, 2**62))``,
  read as a bitstream with bit t of word w at stream position 64*w + t.
  Erasure decisions use k-bit subuniforms, k being the smallest of
  {1, 2, 4, 8, 16, 32, 64} for which eps * 2**k is an exact integer (64
  otherwise): symbol p of trial j reads the k bits at offset (j*N + p)*k and
  is erased iff their value is below floor(eps * 2**k). The threshold is
  computed in exact integer arithmetic, so the erasure probability matches
  the requested float to within 2**-64. Trial ids, like seeds, lie in
  [0, 2**64); the Philox counter is wide enough for every one of them.

* Message bits: trial j draws K doubles from ``Philox(key=(seed, j))``; bit
  = (double < 0.5).

Every eps goes through one channel path. `_known_rows` turns the stream into
trial-major packed "known" rows (bit p of a row set iff symbol p arrived,
rows padded to whole 64-bit words). Each k divides 64, so no subuniform
straddles a word and the symbols are read in order from a view of the words
(the words themselves for k = 64), with no index gather; for k = 1 with
threshold 1 and N a multiple of 64 the rows are the raw words. Otherwise the
rows are filled in sub-blocks of at most _BLOCK_SYMBOLS (2**16) symbols:
whole trials up to N = 2**16, else segments of one row, each a multiple of
64 symbols. A call with two or more sub-blocks fills the first half of them
on a helper thread while the caller fills the rest; each sub-block draws its
own words from the keyed stream, so the rows do not depend on the split.

A bit transpose turns a chunk's rows into one bitplane per output position,
eight trials per byte. A chunk is min(_CHUNK_TRIALS, max(64, S // N rounded
down to a multiple of 64)) trials, S being the symbol budget _BATCH_SYMBOLS
(2**23): 2**13 trials up to N = 1024, at most S symbols below N = 2**17,
so that a chunk's planes take at most 1 MiB (S bits, as at N = 1024), and
64 trials, more than S symbols, once N > 2**17. The transpose runs the six
delta-swap rounds of a 64x64 bit transpose over every tile of the chunk at
once, with the tiles stored row-slab major so that each round works on
contiguous runs, frees the rounds' scratch, and copies the tiles into the
plane layout. A run keeps one plane buffer: the screen consumes (and
overwrites) a chunk's planes, so the next chunk's transpose copies into the
same buffer, a shorter last chunk into its first part, and no plane array is
allocated after the first chunk until a flush frees the buffer.

Most trials decode without any ambiguity, and over the BEC the frame-error
event depends only on the erasure pattern: the first ambiguous information
decision of the decoder coincides with the first genie-aided ambiguity
(before it, every decision is determined and correct). run_monte_carlo
therefore screens the bitplanes in bulk with the bit-packed genie recursion,
pruned by the code's node plan (`codec._node_plan`, built once per code):
subtrees whose inputs are all frozen are skipped, and a subtree whose inputs
are all information bits is replaced by the OR of its unknown message
planes, so the screen returns the frame-error plane of the chunk directly
(`codec._screen_known_planes`). The screen alone fixes the frame-error count
and the stop: a chunk ends early at its flagged trial that spends the error
budget, then decides once whether the run stops. Flagged trials wait, with
their known rows, until one decode batch (at most _DECODE_FRAMES frames and
_BATCH_SYMBOLS symbols) is pending or the run stops. That flush frees the
spent chunk (its rows, plane buffer and frame-error plane), then decodes
them in such batches. Fewer than one batch waits between chunks, so at any N
a flush holds at most one batch more than its chunk's own flagged rows. A
batch keeps its frames' inputs only as packed bits (N/8 bytes a frame) from
the encode to the tallies; the full input rows are freed once encoded.
The tallies are exactly those of decoding every trial individually
(verified in tests against the literal per-trial loop).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .codec import (
    PolarCode,
    Symbol,
    _encode_batch,
    _node_plan,
    _screen_known_planes,
    decode_batch,
)
from . import gf2
from .errors import _SEED_LIMIT, check_integer, check_key_word, check_unit_interval

_CHANNEL_TAG = 1 << 62

#: two-sided 95% normal quantile, used by the Wilson interval
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class BecChannel:
    """Binary erasure channel with deterministic per-trial noise.

    Identical (master_seed, trial_index, input) triples always produce
    identical outputs; distinct trials read disjoint segments of one keyed
    counter-based stream, so transmissions may run in any order.
    """

    eps: float
    master_seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        eps = check_unit_interval(self.eps, "erasure probability")
        seed = check_key_word(self.master_seed, "master seed")
        trial = check_key_word(self.trial_index, "trial index")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "trial_index", trial)


@dataclass(frozen=True)
class StopRule:
    """Stop after `min_frame_errors` frame errors or `max_trials` trials,
    whichever comes first."""

    min_frame_errors: int = 100
    max_trials: int = 100_000

    def __post_init__(self):
        for name in ("min_frame_errors", "max_trials"):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, 1))
        if self.max_trials > _SEED_LIMIT:
            raise ValueError("max_trials must be <= 2**64: trial ids are 64-bit")


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo tallies with a 95% Wilson interval on the FER.

    Erased (flagged) information decisions count as bit errors; a frame is
    errored iff any information bit is flagged or wrong.
    """

    code_id: str
    eps: float
    N: int
    K: int
    trials: int
    bit_errors: int
    bit_erasures: int
    frame_errors: int
    ber: float
    fer: float
    fer_ci_low: float
    fer_ci_high: float
    master_seed: int


@dataclass(frozen=True)
class ReportComparison:
    indistinguishable: bool
    gap: float
    message: str


def _subuniform(eps: float) -> tuple[int, int]:
    """Bits per symbol and integer erasure threshold for eps in [0, 1]."""
    num, den = float(eps).as_integer_ratio()  # den is a power of two
    for k in (1, 2, 4, 8, 16, 32, 64):
        if den <= (1 << k):
            return k, (num << k) // den
    return 64, (num << 64) // den


def _channel_words(master_seed: int, word_start: int, count: int) -> np.ndarray:
    """Words [word_start, word_start + count) of the keyed channel stream.

    Word w is lane w % 4 of the Philox block after counter w // 4; the block
    number fills the counter's two low 64-bit words, so every trial below
    2**64 reads its own stream position at any N and k."""
    key = np.array([master_seed, _CHANNEL_TAG], dtype=np.uint64)
    block, lane = divmod(word_start, 4)
    counter = np.array([block & (_SEED_LIMIT - 1), block >> 64, 0, 0], dtype=np.uint64)
    bg = np.random.Philox(key=key, counter=counter)
    return bg.random_raw(lane + count)[lane:]


_TRANSPOSE_MASKS = [
    (32, np.uint64(0xFFFFFFFF00000000)),
    (16, np.uint64(0xFFFF0000FFFF0000)),
    (8, np.uint64(0xFF00FF00FF00FF00)),
    (4, np.uint64(0xF0F0F0F0F0F0F0F0)),
    (2, np.uint64(0xCCCCCCCCCCCCCCCC)),
    (1, np.uint64(0xAAAAAAAAAAAAAAAA)),
]


def _bit_transpose(
    words: np.ndarray, rows: int, cols: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Transpose a bit matrix packed row-major into uint64 words (LSB first).

    rows and cols must both be multiples of 64; returns the packed transpose
    of shape (cols, rows // 64). It is written into `out` when given: a
    C-contiguous uint64 array of at least cols * rows // 64 words, of which
    it fills (and returns a view of) the first that many, so a buffer sized
    for one chunk serves every shorter chunk after it.

    Each 64x64 tile is transposed by six delta-swap rounds (Warren, Hacker's
    Delight, 7-3): round s swaps the s-bit blocks above the diagonal of every
    2s x 2s block with those below it. The tiles are laid out row-slab
    major, slab i holding row i of every tile, so the two halves of a round
    are contiguous runs of s whole slabs instead of strided single words.
    The rounds' scratch is freed before the final strided copy into the
    (cols, tiles) layout, so that copy adds only its destination.
    """
    tiles, w = rows // 64, cols // 64
    # copy(): the rounds below must never alias the caller's words
    x = words.reshape(tiles, 64, w).transpose(1, 0, 2).copy()
    slab = tiles * w
    tmp = np.empty(32 * slab, dtype=np.uint64)
    for s, m in _TRANSPOSE_MASKS:
        sh = np.uint64(s)
        # Slabs whose index has bit s clear pair with the slabs s further
        # on; both halves are views, so the swap runs in place.
        v = x.reshape(32 // s, 2, s * slab)
        a, b = v[:, 0], v[:, 1]
        t = tmp.reshape(32 // s, s * slab)
        np.left_shift(b, sh, out=t)
        t ^= a
        t &= m
        a ^= t
        t >>= sh
        b ^= t
    del tmp, t
    if out is None:
        out = np.empty(cols * tiles, dtype=np.uint64)
    planes = out.reshape(-1)[: cols * tiles].reshape(cols, tiles)
    planes.reshape(w, 64, tiles)[...] = x.transpose(2, 0, 1)
    return planes


#: symbols sampled per sub-block of _known_rows; bounds its temporaries (a
#: sub-block is whole trials up to N = _BLOCK_SYMBOLS, else a segment of one
#: trial's row, a multiple of 64 symbols long)
_BLOCK_SYMBOLS = 1 << 16

#: the most frames one decode takes; a flush starts once one decode batch is
#: pending, frees the spent chunk, then decodes in batches
_DECODE_FRAMES = 1 << 10

#: symbols one chunk or one decode takes at most, but never fewer than 64
#: trials or one frame: a chunk is S // N trials (rounded down to a multiple
#: of 64) once N > 1024 and 64 trials once N > 2**17, and a decode takes
#: fewer than _DECODE_FRAMES frames once N > 8,192. Below N = 2**17 a chunk's
#: planes fit in 1 MiB of cache; a smaller budget costs time, as each
#: decode_batch call has a fixed cost of order N
_BATCH_SYMBOLS = 1 << 23

#: trials per chunk at short lengths, where the symbol budget allows more
_CHUNK_TRIALS = 1 << 13


def _known_rows(
    master_seed: int, eps: float, n: int, trial_start: int, trials: int
) -> np.ndarray:
    """Packed "known" rows for trials [trial_start, trial_start + trials).

    Returns a (trials, ceil(n/64)) uint64 array: bit p of row j (LSB first)
    is set iff symbol p of trial trial_start + j is received. Padding bits
    are clear.
    """
    k, threshold = _subuniform(eps)
    n64 = -(-n // 64)
    if k == 1 and threshold == 1 and n % 64 == 0:
        # The known bits are the raw channel bits, already in row order.
        words = _channel_words(master_seed, trial_start * n // 64, trials * n64)
        return words.astype("<u8", copy=False).reshape(trials, n64)
    rows = np.zeros((trials, n64), dtype="<u8")
    row_bytes = rows.view(np.uint8)
    # k divides 64, so no symbol straddles a word: symbol s is element s of
    # the stream viewed as k-bit fields.
    per_word = 64 // k

    def fill(blocks: list[tuple[int, int, int, int]]) -> None:
        """Write the known bits of each sub-block into its bytes of rows."""
        for a, b, p0, p1 in blocks:
            width = p1 - p0
            s0, count = (trial_start + a) * n + p0, (b - a) * width
            w0 = s0 // per_word
            words = _channel_words(master_seed, w0, -(-(s0 + count) // per_word) - w0)
            words = words.astype("<u8", copy=False)
            lo = s0 - w0 * per_word
            if k >= 8:
                vals = words.view(f"<u{k // 8}")[lo : lo + count]
            elif k == 1:
                vals = np.unpackbits(words.view(np.uint8), bitorder="little")
                vals = vals[lo : lo + count]
            else:
                shifts = np.arange(0, 8, k, dtype=np.uint8)
                fields = words.view(np.uint8)[:, None] >> shifts
                fields &= np.uint8((1 << k) - 1)
                vals = fields.reshape(-1)[lo : lo + count]
            known = (vals >= vals.dtype.type(threshold)).reshape(b - a, width)
            c0 = p0 // 8
            row_bytes[a:b, c0 : c0 + -(-width // 8)] = np.packbits(
                known, axis=1, bitorder="little"
            )
            # Free this block before the next one is drawn.
            del words, vals, known

    blocks = _sub_blocks(n, trials)
    if len(blocks) < 2:
        fill(blocks)
        return rows
    # Each sub-block draws its own words and writes its own bytes, so the two
    # halves run at once: a helper thread fills the first while this thread
    # fills the second (Philox releases the GIL while it draws).
    half = len(blocks) // 2
    errors: list[BaseException] = []

    def fill_first_half() -> None:
        try:
            fill(blocks[:half])
        except BaseException as exc:  # re-raised below, in the calling thread
            errors.append(exc)

    helper = threading.Thread(target=fill_first_half, name="known-rows")
    helper.start()
    try:
        fill(blocks[half:])
    finally:
        helper.join()
    if errors:
        raise errors[0]
    return rows


def _sub_blocks(n: int, trials: int) -> list[tuple[int, int, int, int]]:
    """Sub-blocks (a, b, p0, p1) of `trials` rows of n symbols: symbols
    [p0, p1) of trials [a, b), contiguous in the stream, in stream order."""
    if n <= _BLOCK_SYMBOLS:
        step = _BLOCK_SYMBOLS // max(n, 1)
        return [(a, min(trials, a + step), 0, n) for a in range(0, trials, step)]
    # A multiple of 64 symbols, so each segment starts on a whole byte.
    seg = _BLOCK_SYMBOLS & ~63
    return [
        (j, j + 1, p, min(n, p + seg)) for j in range(trials) for p in range(0, n, seg)
    ]


def _erasure_block(
    master_seed: int, eps: float, n: int, trial_start: int, trials: int
) -> np.ndarray:
    """Bool erasure rows (True = erased) for trials [trial_start,
    trial_start + trials)."""
    rows = _known_rows(master_seed, eps, n, trial_start, trials)
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little") == 0


def bec_transmit(x, ch: BecChannel) -> np.ndarray:
    """Transmit a bit vector: each symbol is independently erased with
    probability eps, never flipped."""
    bits = gf2.as_bits(x, 1)
    erased = _erasure_block(ch.master_seed, ch.eps, bits.shape[0], ch.trial_index, 1)[0]
    return np.where(erased, np.uint8(Symbol.ERASED), bits)


def _message_bits(master_seed: int, trial_index: int, k: int) -> np.ndarray:
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return (gen.random(k) < 0.5).astype(np.uint8)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Zero (or full) success counts yield an exact one-sided interval.
    """
    if trials <= 0:
        return 0.0, 1.0
    p, z = successes / trials, _Z95
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    low = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    high = 1.0 if successes == trials else min(1.0, (centre + half) / denom)
    return low, high


def _assemble_inputs(code: PolarCode, trial_indices, master_seed: int) -> np.ndarray:
    """Rows of frozen values and `_message_bits`, from one Philox rekeyed
    per trial; a double below 0.5 is a raw word with its top bit clear."""
    u = np.tile(code.frozen_values, (len(trial_indices), 1))
    info = code.info_set
    bg = np.random.Philox(0)
    state = bg.state  # counter 0 and an empty buffer, as when new
    for row, j in enumerate(trial_indices):
        state["state"]["key"] = np.array([master_seed, j], dtype=np.uint64)
        bg.state = state
        u[row, info] = bg.random_raw(info.size) >> 63 == 0
    return u


def _received_words(code: PolarCode, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The codewords of input rows `u`, erased where their packed known rows
    have a clear bit. Inputs passed as a temporary are freed once encoded."""
    y = _encode_batch(code.kernel, u)
    del u
    # Symbols are 0 or 1, and an erasure bit shifted left once is 2 ==
    # Symbol.ERASED, so the maximum erases exactly the erased symbols.
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=code.N, bitorder="little")
    bits ^= 1  # 1 where erased
    bits <<= 1
    return np.maximum(y, bits, out=y)


def _decode_flagged(
    code: PolarCode, trial_ids: np.ndarray, rows: np.ndarray, master_seed: int
) -> tuple[int, int]:
    """Bit errors and bit erasures of the screen-flagged trials `trial_ids`,
    decoded in one batch from their packed known rows. The decoder never
    errs at or flags a frozen position, so the tallies run over whole rows."""
    u = [_assemble_inputs(code, trial_ids, master_seed)]
    # Only the packed inputs are held through the decode: the full rows and
    # then the received words are temporaries of the calls below, freed once
    # encoded and once digit-reversed.
    inputs = np.packbits(u[0], axis=1)
    bad, flags = decode_batch(code, _received_words(code, u.pop(), rows))
    # 1 where a decision is wrong (decisions and bits are 0 or 1)
    bad ^= np.unpackbits(inputs, axis=1, count=code.N)
    bad |= flags  # or flagged
    if not bad.any(axis=1).all():
        raise AssertionError("screen flagged a frame the decoder resolved")
    return int(np.count_nonzero(bad)), int(np.count_nonzero(flags))


def run_monte_carlo(
    code: PolarCode, eps: float, stop: StopRule, master_seed: int
) -> SimReport:
    """Estimate BER/FER of a code on the BEC by seeded Monte Carlo.

    Repeats [draw information bits, encode, transmit, SC-decode, tally] until
    the stop rule fires, cutting exactly at the trial that records the
    min_frame_errors-th frame error. Results are byte-identical for identical
    (code, eps, stop, master_seed) regardless of chunk size or decode budget.
    """
    eps = check_unit_interval(eps, "erasure probability")
    master_seed = check_key_word(master_seed, "master seed")
    n, plan = code.N, _node_plan(code)
    n64 = -(-n // 64)
    size = min(_CHUNK_TRIALS, max(64, (_BATCH_SYMBOLS // n) & ~63))
    step = max(1, min(_DECODE_FRAMES, _BATCH_SYMBOLS // n))
    trials = frame_errors = bit_errors = bit_erasures = pending = 0
    # Flagged trials and their known rows, not yet decoded.
    pending_ids: list[np.ndarray] = []
    pending_rows: list[np.ndarray] = []
    # The last chunk's planes: the screen has consumed them, so the next
    # transpose overwrites them (chunks never grow) instead of allocating.
    planes = None
    done = False  # StopRule asks for at least one trial
    while not done:
        chunk = min(size, stop.max_trials - trials)
        padded = -(-chunk // 64) * 64
        rows = _known_rows(master_seed, eps, n, trials, padded)
        planes = _bit_transpose(rows, padded, 64 * n64, out=planes)
        frame_plane = _screen_known_planes(
            code.kernel, plan, planes[:n].view(np.uint8)
        )
        frames = np.unpackbits(frame_plane, count=chunk, bitorder="little")
        # The screen alone decides frame errors. Keep the flagged trials up to
        # the error budget; if they reach it, the run ends at the last one.
        flagged = np.flatnonzero(frames)[: stop.min_frame_errors - frame_errors]
        if flagged.size:
            pending_ids.append(trials + flagged)
            pending_rows.append(rows[flagged])
            pending += flagged.size
            frame_errors += flagged.size
        if frame_errors >= stop.min_frame_errors:
            chunk = int(flagged[-1]) + 1
        trials += chunk
        done = trials >= stop.max_trials or frame_errors >= stop.min_frame_errors
        if pending and (pending >= step or done):
            # The spent chunk is not read again; free it before decoding.
            del rows, frame_plane
            planes = None
            ids, held = np.concatenate(pending_ids), np.concatenate(pending_rows)
            pending_ids.clear()
            pending_rows.clear()
            for a in range(0, pending, step):
                b = a + step
                errors, erasures = _decode_flagged(
                    code, ids[a:b], held[a:b], master_seed
                )
                bit_errors += errors
                bit_erasures += erasures
            pending = 0
            del ids, held
    return _report(
        code, eps, trials, bit_errors, bit_erasures, frame_errors, master_seed
    )


def _run_direct(
    code: PolarCode, eps: float, stop: StopRule, master_seed: int
) -> SimReport:
    """Literal per-trial reference loop; used to validate run_monte_carlo."""
    from .codec import encode, sc_decode

    info = code.info_set
    trials = frame_errors = bit_errors = bit_erasures = 0
    while trials < stop.max_trials and frame_errors < stop.min_frame_errors:
        j = trials
        u = code.frozen_values.copy()
        u[info] = _message_bits(master_seed, j, info.size)
        y = bec_transmit(encode(code, u), BecChannel(eps, master_seed, j))
        res = sc_decode(code, y)
        bad = (res.erased_flags[info] == 1) | (res.u_hat[info] != u[info])
        bit_errors += int(bad.sum())
        bit_erasures += int((res.erased_flags[info] == 1).sum())
        frame_errors += int(bad.any())
        trials += 1
    return _report(
        code, eps, trials, bit_errors, bit_erasures, frame_errors, master_seed
    )


def _report(
    code: PolarCode,
    eps: float,
    trials: int,
    bit_errors: int,
    bit_erasures: int,
    frame_errors: int,
    master_seed: int,
) -> SimReport:
    """The SimReport of a finished run, with its Wilson interval."""
    k = code.K
    lo, hi = wilson_interval(frame_errors, trials)
    return SimReport(
        code_id=code.code_id(),
        eps=eps,
        N=code.N,
        K=k,
        trials=trials,
        bit_errors=bit_errors,
        bit_erasures=bit_erasures,
        frame_errors=frame_errors,
        ber=bit_errors / (k * trials) if k else 0.0,
        fer=frame_errors / trials,
        fer_ci_low=lo,
        fer_ci_high=hi,
        master_seed=master_seed,
    )


def compare_reports(a: SimReport, b: SimReport) -> ReportComparison:
    """Verdict on whether two FER estimates are statistically distinguishable.

    "Indistinguishable" means the 95% intervals overlap. Reports must share
    the channel erasure rate and the code rate.
    """
    if a.eps != b.eps:
        raise ValueError(f"reports ran at different eps: {a.eps} vs {b.eps}")
    if abs(a.K / a.N - b.K / b.N) > 1e-12:
        raise ValueError(
            f"reports have different rates: {a.K}/{a.N} vs {b.K}/{b.N}"
        )
    overlap = a.fer_ci_low <= b.fer_ci_high and b.fer_ci_low <= a.fer_ci_high
    if overlap:
        msg = (
            f"statistically indistinguishable: fer {a.fer:.3g} "
            f"[{a.fer_ci_low:.3g}, {a.fer_ci_high:.3g}] vs {b.fer:.3g} "
            f"[{b.fer_ci_low:.3g}, {b.fer_ci_high:.3g}]"
        )
        return ReportComparison(True, 0.0, msg)
    gap = max(a.fer_ci_low - b.fer_ci_high, b.fer_ci_low - a.fer_ci_high)
    msg = (
        f"distinguishable: fer {a.fer:.3g} vs {b.fer:.3g}, "
        f"interval gap {gap:.3g}"
    )
    return ReportComparison(False, gap, msg)


_SIM_CSV_HEADER = (
    "epsilon,N,K,trials,bit_errors,bit_erasures,frame_errors,ber,fer,"
    "ci_low,ci_high,seed"
)


def sim_csv_text(reports) -> str:
    lines = [_SIM_CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.eps:.12g},{r.N},{r.K},{r.trials},{r.bit_errors},"
            f"{r.bit_erasures},{r.frame_errors},{r.ber:.12g},{r.fer:.12g},"
            f"{r.fer_ci_low:.12g},{r.fer_ci_high:.12g},{r.master_seed}"
        )
    return "\n".join(lines) + "\n"
