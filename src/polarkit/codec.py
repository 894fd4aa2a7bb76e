"""Polar encoder and successive-cancellation decoder over the BEC.

The transform of depth n is the plain Kronecker power G^(x n) of the kernel
with its output positions digit-reversed (equivalently, the kernel applied to
consecutive blocks of l inputs at every level, followed by the stride
permutation). The encoder multiplies by G^(x n) one base-l digit of the index
at a time and then reverses the digits of the positions.

The SC decoder digit-reverses the received word once, which turns the code
into the plain Kronecker power z = u G^(x n), and then follows Arıkan's block
recursion ("Channel polarization", IEEE Trans. IT 2009). A node of size m
splits its inputs into l contiguous blocks of m/l. For block t it computes
all m/l messages at once with an exact GF(2) determination test over the l
message columns, recurses, and folds the block's re-encoding into the
already-decided part of every column. Over the BEC every message is a known
0, a known 1 or an erasure. A node whose inputs are all frozen is not
descended into: its re-encoding is that of the frozen values (Alamdar-Yazdi
and Kschischang, IEEE Comm. Letters 2011).

Kernels are invertible, so every received word agrees with some input, and
the sequential-MAP set of inputs that agree with the word and the decisions so
far can empty only at a frozen input whose message is known and differs from
its frozen value. One poison bit per frame records that event; afterwards
every information decision of the frame defaults to zero with the erasure
flag set, exactly as the brute-force sequential MAP oracle decides, so the
decoder matches it bit for bit on every input, honest or not.

All indices (bits, channels, rounds) are 0-based; serialised artifacts use
0-based indices as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from . import gf2
from .errors import BudgetExceededError, DecodingIntegrityError
from .bec import evolve_spectrum, select_information_set
from .kernels import Kernel, digit_reversal_permutation


class Symbol(IntEnum):
    """One BEC symbol."""

    ZERO = 0
    ONE = 1
    ERASED = 2


_SYMBOL_CHARS = {Symbol.ZERO: "0", Symbol.ONE: "1", Symbol.ERASED: "e"}
_CHAR_SYMBOLS = {"0": 0, "1": 1, "e": 2}


def symbols_from_str(text: str) -> np.ndarray:
    """Decode a received-vector fixture string of '0', '1', 'e' characters."""
    try:
        return np.array([_CHAR_SYMBOLS[c] for c in text], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"invalid symbol character {exc.args[0]!r}") from None


def symbols_to_str(symbols) -> str:
    return "".join(_SYMBOL_CHARS[Symbol(int(s))] for s in symbols)


def stride_permutation(N: int, l: int) -> np.ndarray:
    """Source indices of the l-ary reverse shuffle on N symbols.

    Output position p takes input `perm[p]`; the output lists the positions
    congruent to 0 mod l first, then 1 mod l, and so on, each class in
    ascending order.
    """
    if l < 1 or N < 1 or N % l:
        raise ValueError(f"stride permutation needs l | N, got N={N}, l={l}")
    return np.arange(N).reshape(N // l, l).T.reshape(N)


@dataclass(frozen=True, eq=False)
class PolarCode:
    """A polar code: kernel, recursion depth, frozen structure, design point.

    `frozen_mask[i] = 1` marks position i frozen; `frozen_values` carries the
    frozen bits at those positions (zero elsewhere).
    """

    kernel: Kernel
    depth: int
    frozen_mask: np.ndarray
    frozen_values: np.ndarray
    design_eps: float = 0.5

    def __post_init__(self):
        if not self.kernel.invertible:
            raise ValueError("polar codes require an invertible kernel")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        n = self.kernel.l**self.depth
        mask = gf2.as_bits(self.frozen_mask, 1)
        vals = gf2.as_bits(self.frozen_values, 1)
        if mask.shape[0] != n or vals.shape[0] != n:
            raise ValueError(f"frozen mask/values must have length {n}")
        vals = vals * mask  # values at information positions are meaningless
        mask.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "frozen_mask", mask)
        object.__setattr__(self, "frozen_values", vals)

    @property
    def N(self) -> int:
        return self.kernel.l**self.depth

    @property
    def K(self) -> int:
        return int(self.N - self.frozen_mask.sum())

    @property
    def info_set(self) -> np.ndarray:
        return np.flatnonzero(self.frozen_mask == 0)

    @classmethod
    def construct(
        cls,
        kernel: Kernel,
        depth: int,
        K: int,
        design_eps: float = 0.5,
        frozen_bits=None,
    ) -> "PolarCode":
        """Standard construction: freeze the complement of the K most
        reliable channels of the depth-`depth` spectrum at `design_eps`."""
        spectrum = evolve_spectrum(kernel, design_eps, depth)
        info = select_information_set(spectrum, K)
        mask = np.ones(spectrum.size, dtype=np.uint8)
        mask[info] = 0
        values = np.zeros(spectrum.size, dtype=np.uint8)
        if frozen_bits is not None:
            frozen_positions = np.flatnonzero(mask)
            bits = gf2.as_bits(frozen_bits, 1)
            if bits.shape[0] != frozen_positions.shape[0]:
                raise ValueError("frozen_bits length must equal N - K")
            values[frozen_positions] = bits
        return cls(
            kernel=kernel,
            depth=depth,
            frozen_mask=mask,
            frozen_values=values,
            design_eps=design_eps,
        )

    def code_id(self) -> str:
        return (
            f"{self.kernel.descriptor()}|depth={self.depth}"
            f"|K={self.K}|design_eps={self.design_eps:g}"
        )

    def to_json_dict(self) -> dict:
        return {
            "kernel": self.kernel.to_json_dict(),
            "depth": self.depth,
            "design_eps": self.design_eps,
            "frozen_mask": "".join(str(int(b)) for b in self.frozen_mask),
            "frozen_values": "".join(str(int(b)) for b in self.frozen_values),
            "index_base": 0,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PolarCode":
        """Inverse of `to_json_dict`; raises KeyError, TypeError or ValueError
        on a malformed descriptor."""
        if not isinstance(d, dict):
            raise TypeError("code descriptor must be a JSON object")
        if d.get("index_base", 0) != 0:
            raise ValueError(
                f"unsupported index_base {d['index_base']!r}: indices are 0-based"
            )
        depth = d["depth"]
        if not isinstance(depth, int) or isinstance(depth, bool):
            raise TypeError(f"code depth must be an integer, got {depth!r}")
        kernel = Kernel.from_json_dict(d["kernel"])
        mask = np.array([int(c) for c in d["frozen_mask"]], dtype=np.uint8)
        vals = np.array([int(c) for c in d["frozen_values"]], dtype=np.uint8)
        return cls(
            kernel=kernel,
            depth=depth,
            frozen_mask=mask,
            frozen_values=vals,
            design_eps=float(d["design_eps"]),
        )


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: decisions, ambiguity flags, and the frame verdict.

    `erased_flags[i] = 1` marks an information decision that was ambiguous
    (or contradictory) and defaulted to zero; frozen positions are never
    flagged. `frame_erased` is true iff any information position is flagged.
    """

    u_hat: np.ndarray
    erased_flags: np.ndarray
    frame_erased: bool


# --------------------------------------------------------------------------
# encoding


def _kron_encode(g: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Rows of `u` times the plain Kronecker power of `g` over GF(2).

    `u` has shape (B, l^k); the kernel is applied along each base-l digit of
    the column index in turn.
    """
    l = g.shape[0]
    x = u.astype(np.uint8)
    if u.shape[1] == 1:
        return x
    # Output column c of each block is the XOR of the input rows r with
    # g[r, c] = 1.
    sources = [[r for r, bit in enumerate(col) if bit] for col in g.T.tolist()]
    y = np.empty_like(x)
    step = 1
    while step < u.shape[1]:
        xb, yb = x.reshape(-1, l, step), y.reshape(-1, l, step)
        for c, rs in enumerate(sources):
            out = yb[:, c]
            if len(rs) < 2:
                out[...] = xb[:, rs[0]] if rs else 0
                continue
            np.bitwise_xor(xb[:, rs[0]], xb[:, rs[1]], out=out)
            for r in rs[2:]:
                np.bitwise_xor(out, xb[:, r], out=out)
        x, y = y, x
        step *= l
    return x.reshape(u.shape)


def _encode_batch(kernel: Kernel, bits: np.ndarray) -> np.ndarray:
    """Encode a (B, N) batch of input rows; returns a (B, N) codeword batch."""
    depth = round(math.log(bits.shape[1], kernel.l))
    z = _kron_encode(kernel.matrix, bits)
    return z[:, digit_reversal_permutation(kernel.l, depth)]


def encode(code: PolarCode, u) -> np.ndarray:
    """Map an input vector (frozen positions already holding their values)
    to its codeword."""
    bits = gf2.as_bits(u, 1)
    if bits.shape[0] != code.N:
        raise ValueError(f"input length {bits.shape[0]} != N={code.N}")
    return _encode_batch(code.kernel, bits[None, :])[0]


# --------------------------------------------------------------------------
# one-round decision primitive


@functools.lru_cache(maxsize=128)
def _round_tables(kernel: Kernel):
    """Per (position, known-mask) decision tables for one kernel round.

    For every decision position t and every subset `kappa` of non-erased
    observation columns:
      DET[t, kappa]   -- is u_t determined?
      LAM[t, kappa]   -- column mask whose residual parity gives the value

    The returned arrays are immutable and shared between concurrent decodes.
    """
    l = kernel.l
    if l > 12:
        raise BudgetExceededError(
            f"decoding tables enumerate 2^{l} observation masks; kernels above "
            "size 12 are not supported"
        )
    m = kernel.matrix
    det = np.zeros((l, 1 << l), dtype=bool)
    lam = np.zeros((l, 1 << l), dtype=np.uint32)
    e0 = np.zeros(l, dtype=np.uint8)
    for t in range(l):
        target = e0[: l - t].copy()
        target[0] = 1
        for kappa in range(1 << l):
            cols = [c for c in range(l) if (kappa >> c) & 1]
            a = m[t:, cols] if cols else np.zeros((l - t, 0), dtype=np.uint8)
            sol = gf2.solve(a, target)
            if sol is not None:
                det[t, kappa] = True
                lam[t, kappa] = sum(1 << cols[j] for j in range(len(cols)) if sol[j])
    for arr in (det, lam):
        arr.setflags(write=False)
    return det, lam


_PARITY8 = np.array([bin(x).count("1") & 1 for x in range(256)], dtype=np.uint8)


def _parity(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint32(16))
    x = x ^ (x >> np.uint32(8))
    return _PARITY8[x & np.uint32(0xFF)]


def kernel_step_decide(k: Kernel, pos: int, prior, observed) -> Symbol:
    """Decide input `pos` of one kernel round from l observed symbols.

    `prior` holds the already-decided inputs 0..pos-1 of the round. Their
    contribution is subtracted from the non-erased observations; the residual
    system then determines u_pos iff the unit vector selecting it lies in the
    column span of the kernel restricted to rows pos..l-1 and the non-erased
    columns. Raises DecodingIntegrityError if the non-erased residuals are
    mutually inconsistent, which cannot happen on honest erasure-channel
    output.
    """
    l = k.l
    if not 0 <= pos < l:
        raise ValueError(f"position {pos} out of range for l={l}")
    prior = gf2.as_bits(prior, 1)
    if prior.shape[0] != pos:
        raise ValueError(f"expected {pos} prior bits, got {prior.shape[0]}")
    obs = np.asarray(observed)
    if obs.shape != (l,):
        raise ValueError(f"expected {l} observed symbols")
    if not np.isin(obs, (0, 1, 2)).all():
        raise ValueError("observed symbols must be 0, 1, or erased")
    cols = np.flatnonzero(obs != Symbol.ERASED)
    contrib = (prior @ k.matrix[:pos, cols]) % 2 if pos else np.zeros(len(cols))
    residual = (obs[cols].astype(np.uint8) ^ contrib.astype(np.uint8)) & 1
    a = k.matrix[pos:, cols]
    # Consistency: the residual must lie in the row space of `a`.
    if gf2.solve(a.T, residual) is None:
        raise DecodingIntegrityError(
            f"observations at columns {cols.tolist()} are inconsistent"
        )
    target = np.zeros(l - pos, dtype=np.uint8)
    target[0] = 1
    sol = gf2.solve(a, target)
    if sol is None:
        return Symbol.ERASED
    return Symbol(int((sol & residual).sum() & 1))


# --------------------------------------------------------------------------
# successive cancellation over batches


def decode_batch(code: PolarCode, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sc_decode over a (B, N) symbol batch -> (u_hat, flags).

    Each call builds its own decoder state (the decision tables are cached
    per kernel), so concurrent decodes of one code need no coordination.
    """
    ys = np.asarray(ys, dtype=np.uint8)
    if ys.ndim != 2 or ys.shape[1] != code.N:
        raise ValueError(f"expected shape (B, {code.N}), got {ys.shape}")
    if ys.size and not np.isin(ys, (0, 1, 2)).all():
        raise ValueError("received symbols must be 0, 1, or erased")
    l, batch = code.kernel.l, ys.shape[0]
    det, lam = _round_tables(code.kernel)
    row_bits = np.array(code.kernel.row_bits(), dtype=np.uint32)
    shifts = np.arange(l, dtype=np.uint32)[:, None]
    mask, values = code.frozen_mask, code.frozen_values
    u_hat = np.empty((batch, code.N), dtype=np.uint8)
    flags = np.zeros((batch, code.N), dtype=np.uint8)
    poison = np.zeros(batch, dtype=bool)

    def rec(msg: np.ndarray, lo: int) -> np.ndarray:
        """Decode inputs lo..lo+m-1 from their m messages; return the
        re-encoding of the decisions."""
        nonlocal poison
        m = msg.shape[1]
        if mask[lo : lo + m].all():
            # Rate-0 subtree: the decisions are the frozen values.
            enc = _kron_encode(code.kernel.matrix, values[None, lo : lo + m])
            u_hat[:, lo : lo + m] = values[lo : lo + m]
            poison |= ((msg <= 1) & (msg != enc)).any(axis=1)
            return np.broadcast_to(enc, msg.shape)
        if m == 1:
            bit = msg[:, 0]
            flag = poison | (bit > 1)
            u_hat[:, lo] = np.where(flag, 0, bit)
            flags[:, lo] = flag
            return u_hat[:, lo : lo + 1]
        v = msg.reshape(batch, l, m // l)
        known = (v <= 1).astype(np.uint32)
        kappa = (known << shifts).sum(axis=1, dtype=np.uint32)
        obs = ((v & known) << shifts).sum(axis=1, dtype=np.uint32)
        prior = np.zeros_like(kappa)
        for t in range(l):
            value = _parity(lam[t][kappa] & (obs ^ prior) & kappa)
            child = np.where(det[t][kappa], value, np.uint8(Symbol.ERASED))
            prior ^= rec(child, lo + t * (m // l)) * row_bits[t]
        return ((prior[:, None, :] >> shifts) & 1).astype(np.uint8).reshape(batch, m)

    rec(ys[:, digit_reversal_permutation(l, code.depth)], 0)
    return u_hat, flags


def sc_decode(code: PolarCode, y) -> DecodeResult:
    """Successive-cancellation decode of one received vector.

    Frozen positions take their frozen values and are never flagged;
    ambiguous information decisions default to zero with the erased flag set.
    """
    y = np.asarray(y, dtype=np.uint8)
    if y.ndim != 1 or y.shape[0] != code.N:
        raise ValueError(f"expected {code.N} received symbols, got shape {y.shape}")
    u_hat, flags = decode_batch(code, y[None, :])
    info = code.info_set
    return DecodeResult(
        u_hat=u_hat[0],
        erased_flags=flags[0],
        frame_erased=bool(flags[0][info].any()) if info.size else False,
    )


# --------------------------------------------------------------------------
# brute-force sequential MAP oracle (tests only; N <= 8)

_MAX_ORACLE_BLOCK = 8


def _map_decode_batch(code: PolarCode, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = code.N
    n_in = 1 << n
    u_all = ((np.arange(n_in)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(
        np.uint8
    )
    x_all = _encode_batch(code.kernel, u_all)
    batch = ys.shape[0]
    alive = np.ones((batch, n_in), dtype=bool)
    for p in range(n):
        known = ys[:, p] <= 1
        alive &= ~known[:, None] | (x_all[None, :, p] == ys[:, p, None])
    u_hat = np.empty((batch, n), dtype=np.uint8)
    flags = np.zeros((batch, n), dtype=np.uint8)
    for i in range(n):
        if code.frozen_mask[i]:
            decided = np.full(batch, code.frozen_values[i], dtype=np.uint8)
        else:
            has0 = (alive & (u_all[None, :, i] == 0)).any(axis=1)
            has1 = (alive & (u_all[None, :, i] == 1)).any(axis=1)
            decided = (has1 & ~has0).astype(np.uint8)
            # Ambiguous (both) and impossible (neither) default to 0, flagged.
            flags[:, i] = has0 == has1
        u_hat[:, i] = decided
        alive &= u_all[None, :, i] == decided[:, None]
    return u_hat, flags


def map_oracle_decode(code: PolarCode, y) -> DecodeResult:
    """Sequential MAP decode by brute-force marginalisation (ground truth).

    For each position in order, conditions on the decided prefix and
    marginalises uniformly over all later inputs; a decision is flagged when
    both values are equally likely (or both impossible). Matches sc_decode
    exactly and is restricted to N <= 8.
    """
    if code.N > _MAX_ORACLE_BLOCK:
        raise BudgetExceededError(
            f"MAP oracle limited to N <= {_MAX_ORACLE_BLOCK}, got N={code.N}"
        )
    y = np.asarray(y, dtype=np.uint8)
    if y.ndim != 1 or y.shape[0] != code.N:
        raise ValueError(f"expected {code.N} received symbols, got shape {y.shape}")
    if not np.isin(y, (0, 1, 2)).all():
        raise ValueError("received symbols must be 0, 1, or erased")
    u_hat, flags = _map_decode_batch(code, y[None, :])
    info = code.info_set
    return DecodeResult(
        u_hat=u_hat[0],
        erased_flags=flags[0],
        frame_erased=bool(flags[0][info].any()) if info.size else False,
    )


# --------------------------------------------------------------------------
# erasure-pattern screening

@functools.lru_cache(maxsize=128)
def _monotone_forms(kernel: Kernel) -> list[tuple[bool, list[list[int]]]]:
    """How the screen evaluates each round position's determination.

    Determination is monotone in the set of non-erased columns, so the DET
    table collapses to an OR of ANDs over the minimal determining column
    sets, or to an AND of ORs over the complements of the maximal
    non-determining sets. Position t gets whichever takes fewer array
    operations, as (is AND of ORs, column groups); ties go to the OR of ANDs,
    and a position nothing determines gets no groups.
    """
    det, _ = _round_tables(kernel)
    l = kernel.l
    bits = [1 << c for c in range(l)]

    def cols(kappa):
        return [c for c in range(l) if (kappa >> c) & 1]

    def cost(groups):  # a one-column group is still one copy
        return sum(max(1, len(g) - 1) for g in groups) + len(groups) - 1

    forms = []
    for t in range(l):
        terms = [
            cols(kappa)
            for kappa in range(1 << l)
            if det[t, kappa]
            and not any(kappa & b and det[t, kappa & ~b] for b in bits)
        ]
        clauses = [
            cols(~kappa & ((1 << l) - 1))
            for kappa in range(1 << l)
            if not det[t, kappa]
            and all(kappa & b or det[t, kappa | b] for b in bits)
        ]
        if terms and clauses and cost(clauses) < cost(terms):
            forms.append((True, clauses))
        else:
            forms.append((False, terms))
    return forms


def _screen_known_planes(
    kernel: Kernel, depth: int, known: np.ndarray
) -> np.ndarray:
    """Propagate bit-packed knownness planes from the channel to the inputs.

    `known` has shape (N, W): one bitplane row per output position, eight
    trials per byte. Returns the same shape for the N input positions: bit set
    iff that input is determined given all earlier inputs (genie-aided). The
    result depends only on the erasure pattern, not on transmitted values.
    """
    l = kernel.l
    forms = _monotone_forms(kernel)
    cur = known
    n_wires, width = known.shape
    m = l
    while m <= n_wires:
        v = cur.reshape(-1, l, m // l, width)
        out = np.empty((v.shape[0], m // l, l, width), dtype=np.uint8)
        buf = np.empty((v.shape[0], m // l, width), dtype=np.uint8)
        for t, (and_of_ors, groups) in enumerate(forms):
            acc = out[:, :, t, :]
            if not groups:  # no set of outputs determines position t
                acc[:] = 0
            inner, outer = np.bitwise_and, np.bitwise_or
            if and_of_ors:
                inner, outer = outer, inner
            # The first group is written straight into acc, later ones into
            # buf and combined in; a one-column group is that column
            # (x & x = x | x = x).
            for i, cols in enumerate(groups):
                dst = buf if i else acc
                inner(v[:, cols[0]], v[:, cols[-1]], out=dst)
                for c in cols[1:-1]:
                    inner(dst, v[:, c], out=dst)
                if i:
                    outer(acc, buf, out=acc)
        cur = out.reshape(n_wires, width)
        m *= l
    return cur


def genie_erasure_flags(kernel: Kernel, depth: int, erased: np.ndarray) -> np.ndarray:
    """Per-input ambiguity flags of genie-aided SC for a batch of patterns.

    `erased` has shape (B, N) with True marking an erased output. Row i of the
    result is True iff input i is undetermined when all earlier inputs are
    known correctly. The first flagged information position coincides with
    sc_decode's first flagged position on honest channel output, so any-flag
    over the information set equals the decoded frame-error indicator.
    """
    erased = np.asarray(erased, dtype=bool)
    n = kernel.l**depth
    if erased.ndim != 2 or erased.shape[1] != n:
        raise ValueError(f"expected shape (B, {n}), got {erased.shape}")
    batch = erased.shape[0]
    known = np.packbits(~erased.T, axis=1)
    flagged = _screen_known_planes(kernel, depth, known)
    out = np.unpackbits(flagged, axis=1, count=batch).T == 0
    return out
