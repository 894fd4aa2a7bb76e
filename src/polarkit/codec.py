"""Polar encoder and successive-cancellation decoder over the BEC.

The transform of depth n is the plain Kronecker power G^(x n) of the kernel
with its output positions digit-reversed (equivalently, the kernel applied to
consecutive blocks of l inputs at every level, followed by the stride
permutation). The encoder multiplies by G^(x n) one base-l digit of the index
at a time and then reverses the digits of the positions with
`_reverse_digits`, the codec's one digit reversal, which builds no index array.
The encoder and the decoder's root lay words out frames fastest, as the
transpose of a C-ordered (N, B) array: the decoder's reductions over a node's
columns (the masks' sums, `known.all`) are fast only so. C-ordered (B, N)
roots decoded flagged batches 1.4x slower.

The SC decoder digit-reverses the received word once, which turns the code
into the plain Kronecker power z = u G^(x n), and then follows Arıkan's block
recursion ("Channel polarization", IEEE Trans. IT 2009). A node of size m
splits its inputs into l contiguous blocks of m/l. For block t it computes
all m/l messages at once with an exact GF(2) determination test over the l
message columns, recurses, and folds the block's re-encoding into the
already-decided part of every column. Over the BEC every message is a known
0, a known 1 or an erasure. A node whose inputs are all frozen is not
descended into: its re-encoding is that of the frozen values (Alamdar-Yazdi
and Kschischang, IEEE Comm. Letters 2011), computed once per code in the
code's node plan. Any other node of size m > 1 is a leaf when every frame
of the batch is poisoned (see below) or knows all m messages, and no live
frame's u, the messages times the inverse kernel power, differs from a
frozen value at a frozen input of the node (that frame would be poisoned
deeper in the tree): the live frames decide u, and the re-encoding is the
messages. This generalises the rate-1 node of Sarkis et al. ("Fast polar
decoders", IEEE JSAC 2014). The leaf test reads the node's knownness array,
the one that builds its determination masks when it descends, so each node
makes one knownness pass either way. Otherwise the whole batch descends;
descending only the frames with an erased message measured slower.

A node packs the l message columns of each kernel operation into words in
the narrowest dtype that holds l + 1 bits (uint8 for l < 8, uint16 up to
l = 12), and each child message is one gather from two per-kernel tables.
An encode of B frames holds two (B, N) arrays. A decode of B words of length
N holds its decisions and flags (2 bytes per symbol) and, at each open node,
the node's two masks and its children's partial re-encoding, about 3/(l - 1)
packed words per symbol over all open levels. Words, messages and bools are
freed once read: the digit-reversed words once the root's masks are built,
and a caller's words at once if they are passed as a temporary (from Python
3.11; before it, a call holds its arguments until it returns). A node's
second mask is built in its own messages, its partial re-encoding is
allocated once its first child returns, and the decisions and flags by the
first leaf that writes them, whatever the root (an empty batch takes the
same path). So `sim._decode_flagged`, which also holds the frames' inputs
packed, peaks at a level-1 node, at 3.6-4.5 bytes per symbol (B * N) for G_e
and G_3: the outputs, the root's three packed words per kernel operation
(3/l per symbol) and that node's messages with its masks, or with its
known-message leaf's re-encoding.

The genie screen runs the same recursion on bit-packed knownness planes of
many trials at once. It has two entry points over one per-level routine:
the full screen (`_screen_positions`), which yields every input's
determination and backs `genie_erasure_flags`, and the pruned frame screen
(`_screen_known_planes`) of the Monte Carlo runs, which skips all-frozen
subtrees, reduces all-information subtrees to an OR of their unknown
message planes (Sarkis et al., "Fast polar decoders", IEEE JSAC 2014) and
returns only the frame-error plane.

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

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from . import gf2
from .errors import DecodingIntegrityError, check_integer, check_invertible
from .errors import check_unit_interval
from .bec import _MAX_ORACLE_BLOCK, evolve_spectrum, select_information_set
from .kernels import Kernel, check_size_budget


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
    N, l = check_integer(N, "N", 1), check_integer(l, "l", 1)
    if N % l:
        raise ValueError(f"stride permutation needs l | N, got N={N}, l={l}")
    return np.arange(N).reshape(N // l, l).T.reshape(N)


@dataclass(frozen=True, eq=False)
class PolarCode:
    """A polar code: kernel, recursion depth, frozen structure, design point.

    `frozen_mask[i] = 1` marks position i frozen; `frozen_values` carries the
    frozen bits at those positions (zero elsewhere). The code holds its
    decoding plan (`_node_plan`) from its first decode or screen on.
    """

    kernel: Kernel
    depth: int
    frozen_mask: np.ndarray
    frozen_values: np.ndarray
    design_eps: float = 0.5

    def __post_init__(self):
        check_invertible(self.kernel)
        object.__setattr__(self, "depth", check_integer(self.depth, "depth"))
        n = check_size_budget(self.kernel.l, self.depth)
        eps = check_unit_interval(self.design_eps, "design erasure rate")
        object.__setattr__(self, "design_eps", eps)
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
        reliable channels of the depth-`depth` spectrum at `design_eps`.

        A singular kernel, and a K outside [0, N], are refused before the
        spectrum is evolved."""
        check_invertible(kernel)
        depth = check_integer(depth, "depth")
        n = check_size_budget(kernel.l, depth)
        check_integer(K, "K", maximum=n)
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
            "frozen_mask": (self.frozen_mask + ord("0")).tobytes().decode("ascii"),
            "frozen_values": (self.frozen_values + ord("0")).tobytes().decode("ascii"),
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
        kernel = Kernel.from_json_dict(d["kernel"])
        texts = d["frozen_mask"], d["frozen_values"]
        if not all(isinstance(t, str) for t in texts):
            raise TypeError("frozen mask and values must be strings")
        # Non-ASCII characters become '?': only '0' and '1' map into {0, 1}.
        mask, vals = (
            np.frombuffer(t.encode("ascii", "replace"), np.uint8) - ord("0")
            for t in texts
        )
        return cls(
            kernel=kernel,
            depth=d["depth"],
            frozen_mask=mask,
            frozen_values=vals,
            design_eps=d["design_eps"],
        )


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output: decisions, ambiguity flags, and the frame verdict.

    `erased_flags[i] = 1` marks an information decision that was ambiguous
    (or contradictory) and defaulted to zero; frozen positions always hold
    their frozen values and are never flagged. `frame_erased` is true iff
    any position is flagged.
    """

    u_hat: np.ndarray
    erased_flags: np.ndarray
    frame_erased: bool


# --------------------------------------------------------------------------
# encoding


def _kron_encode(g: np.ndarray, u: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Rows of `u` times the plain Kronecker power of `g` over GF(2).

    `u` has shape (B, l^k); the kernel is applied along each base-l digit of
    the column index in turn, then the positions digit-reversed if `reverse`.
    """
    l = g.shape[0]
    # A C-ordered copy, frames last: the reshapes below are views (the XORs
    # land in x and y), and each XOR runs over step * B contiguous bytes.
    x = u.T.astype(np.uint8, order="C")
    # Output column c of each block is the XOR of the input rows r with
    # g[r, c] = 1.
    sources = [[r for r, bit in enumerate(col) if bit] for col in g.T.tolist()]
    y = np.empty_like(x)
    step = u.shape[0]
    while step < x.size:
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
    # The spare buffer (the last round's source) takes the result, so the
    # final copy adds no third (B, N) array.
    if reverse:
        return _reverse_digits(x, l, out=y).T
    out = y.reshape(u.shape)
    out[...] = x.T
    return out


def _reverse_digits(a: np.ndarray, l: int, out: np.ndarray | None = None) -> np.ndarray:
    """The N = l^n rows of an (N, W) array in base-l digit-reversed order,
    C-ordered: in the first N * W elements of the contiguous buffer `out`, if
    given. Axis j of the (l,) * n + (W,) reshape holds digit j of the row."""
    n = round(math.log(a.shape[0], l))
    shape = (l,) * n + a.shape[1:]
    out = np.empty(a.size, a.dtype) if out is None else out.reshape(-1)[: a.size]
    out.reshape(shape)[...] = a.reshape(shape).transpose(*range(n - 1, -1, -1), n)
    return out.reshape(a.shape)


def _encode_batch(kernel: Kernel, bits: np.ndarray) -> np.ndarray:
    """Encode a (B, N) batch of input rows into codewords, frames fastest."""
    return _kron_encode(kernel.matrix, bits, reverse=True)


def encode(code: PolarCode, u) -> np.ndarray:
    """Map an input vector (frozen positions already holding their values)
    to its codeword."""
    bits = gf2.as_bits(u, 1)
    if bits.shape[0] != code.N:
        raise ValueError(f"input length {bits.shape[0]} != N={code.N}")
    return _encode_batch(code.kernel, bits[None, :])[0]


# --------------------------------------------------------------------------
# one-round decision primitive

#: most observation masks a kernel's decision tables enumerate: 2^l, so
#: kernels up to 12x12
_MAX_TABLE_MASKS = 1 << 12


def _round_tables(kernel: Kernel):
    """Per (position, known-mask) decision tables for one kernel round.

    For every decision position t and every subset `kappa` of non-erased
    observation columns:
      DET[t, kappa]   -- is u_t determined?
      LAM[t, kappa]   -- column mask whose residual parity gives the value

    Both come from one `gf2.bottom_up_reduce`, with every (t, kappa) as a
    lane. Each column c in kappa, cut to rows t..l-1, is shifted above a tag
    bit c of its own, and the target e_t is reduced modulo those columns.
    The result is the least member of the target's coset: a bare tag exactly
    when e_t lies in the columns' span, i.e. when u_t is determined. The tag
    then marks columns that sum to e_t, with every free column (one in the
    span of lower-indexed columns) left out, since a free column and lower
    ones sum to a bare tag led by its own bit: `gf2.solve`'s solution with
    free variables zero. LAM is 0 where DET fails.

    The returned arrays are immutable. Each code's `_node_plan` builds them
    once, for its decoder and its screen; the full screen behind
    `genie_erasure_flags` builds them once per call.
    """
    l = kernel.l
    check_size_budget(2, l, _MAX_TABLE_MASKS, "decoding-table mask")
    idx = np.arange(l, dtype=np.uint32)
    cols = (1 << idx) @ kernel.matrix  # column c, row i at bit i
    # axes (c, t): column c of rows t..l-1 (row i at bit l + i - t), tag bit c
    tagged = (cols[:, None] >> idx) << l | (1 << idx[:, None])
    known = (np.arange(1 << l, dtype=np.uint32) >> idx[:, None, None]) & 1
    # lanes (t, kappa); on top, the target e_t, at bit l for every t
    rows = np.insert(tagged[:, :, None] * known, 0, 1 << l, axis=0)
    out = gf2.bottom_up_reduce(rows)[0]
    det = out < (1 << l)
    lam = np.where(det, out, 0).astype(np.uint32)
    for arr in (det, lam):
        arr.setflags(write=False)
    return det, lam


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
    pos = check_integer(pos, "position", maximum=l - 1)
    prior = gf2.as_bits(prior, 1)
    if prior.shape[0] != pos:
        raise ValueError(f"expected {pos} prior bits, got {prior.shape[0]}")
    obs = np.asarray(observed)
    if obs.shape != (l,):
        raise ValueError(f"expected {l} observed symbols")
    obs = _symbols(obs)
    cols = np.flatnonzero(obs != Symbol.ERASED)
    contrib = (prior @ k.matrix[:pos, cols]) % 2 if pos else np.zeros(len(cols))
    residual = (obs[cols] ^ contrib.astype(np.uint8)) & 1
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
# per-code node plan

#: node classes: every input frozen, every input information, or both kinds
_RATE0, _RATE1, _MIXED = np.int8(0), np.int8(1), np.int8(2)


class _ScreenLevel(NamedTuple):
    """One level of the screen, over the nodes kept by the level above.

    Child t of kept node p has index p*l + t. `parents[t]` is the slice of
    kept nodes whose output t is computed, from the first to the last whose
    child t is not rate-0, or None when every child t is; `info` lists the
    rate-1 children, or is None if there are none; `mixed` lists the
    children kept for the next level, or is None when every child is kept.
    """

    parents: tuple[slice | None, ...]
    info: np.ndarray | None
    mixed: np.ndarray | None


class _NodePlan(NamedTuple):
    """The decoder's and the screen's per-code data: node classes of the
    decoding tree, in arrays, and the kernel's decision rule in the forms
    each recursion reads. Every array is read-only.

    Node i at level k covers inputs i*S..(i+1)*S-1, S = N / l^k. `root` is
    the class of the whole code and `levels` drive the pruned screen.
    `rate0[k]` marks the rate-0 nodes of level k whose parent is not rate-0,
    the ones the decoder reaches. Their input ranges are disjoint, so the
    (N,) array `encoded` holds over each one the re-encoding of its frozen
    values (and 0 elsewhere). `inverse` is the inverse kernel matrix, with
    which the decoder inverts a node's known messages.

    The child tables are over (l + 1)-bit values, in the narrowest dtype
    that holds them: `lamx[t, kappa]` is LAM where u_t is determined and bit
    l alone where it is not; `par` maps a value to the parity of its low l
    bits, or to ERASED when bit l is set; `row_bits` are the kernel's rows.
    Every observation word carries bit l, so a child message is one gather:
    par[lamx[t][kappa] & (obs ^ prior)]. `forms` are the screen's
    `_monotone_forms` of the same DET table.
    """

    root: int
    levels: tuple[_ScreenLevel, ...]
    rate0: tuple[np.ndarray, ...]
    encoded: np.ndarray
    inverse: np.ndarray
    lamx: np.ndarray
    par: np.ndarray
    row_bits: np.ndarray
    forms: tuple


def _node_plan(code: PolarCode) -> _NodePlan:
    """The code's plan, built at its first use and kept on the code, so
    every later call returns it and it is freed with the code. Concurrent
    first uses may each build one; all of them return the one kept."""
    if "_plan" in vars(code):
        return vars(code)["_plan"]
    # The tables come first: their budget refuses an undecodable kernel
    # before the plan or any channel work.
    det, lam = _round_tables(code.kernel)
    l, n = code.kernel.l, code.N
    sizes = [n // l**k for k in range(code.depth + 1)]
    classes, rate0 = [], []
    encoded = np.zeros(n, dtype=np.uint8)
    for size in sizes:
        frozen = code.frozen_mask.reshape(-1, size).sum(axis=1, dtype=np.int64)
        cls = np.where(frozen == size, _RATE0, np.where(frozen == 0, _RATE1, _MIXED))
        reached = cls == _RATE0
        if classes:
            reached &= np.repeat(classes[-1] != _RATE0, l)
        ids = np.flatnonzero(reached)
        values = code.frozen_values.reshape(-1, size)[ids]
        encoded.reshape(-1, size)[ids] = _kron_encode(code.kernel.matrix, values)
        reached.setflags(write=False)
        classes.append(cls)
        rate0.append(reached)
    levels = []
    kept = np.flatnonzero(classes[0] == _MIXED)
    for cls in classes[1:]:
        if not kept.size:
            break
        children = (kept[:, None] * l + np.arange(l)).reshape(-1)
        child_cls = cls[children]
        info = np.flatnonzero(child_cls == _RATE1)
        mixed = np.flatnonzero(child_cls == _MIXED)
        parents = []
        for t in range(l):
            needed = np.flatnonzero(child_cls[t::l] != _RATE0)
            parents.append(slice(needed[0], needed[-1] + 1) if needed.size else None)
        levels.append(
            _ScreenLevel(
                parents=tuple(parents),
                info=info if info.size else None,
                mixed=None if mixed.size == children.size else mixed,
            )
        )
        kept = children[mixed]
    # Row i of the inverse is the x with x G = e_i.
    g = code.kernel.matrix
    inverse = np.array([gf2.solve(g.T, e) for e in np.eye(l, dtype=np.uint8)])
    narrow = np.uint8 if l < 8 else np.uint16
    lamx = np.where(det, lam, 1 << l).astype(narrow)
    x = np.arange(2 << l)
    par = np.where(x >> l, Symbol.ERASED, np.bitwise_count(x) & 1).astype(np.uint8)
    row_bits = np.array(code.kernel.row_bits(), dtype=narrow)
    for arr in (encoded, inverse, lamx, par, row_bits):
        arr.setflags(write=False)
    plan = _NodePlan(int(classes[0][0]), tuple(levels), tuple(rate0), encoded,
                     inverse, lamx, par, row_bits, _monotone_forms(det))
    return vars(code).setdefault("_plan", plan)


# --------------------------------------------------------------------------
# successive cancellation over batches


def _symbols(y: np.ndarray) -> np.ndarray:
    """`y` as uint8 symbols, once every entry is checked to be 0, 1 or 2.

    The check runs on the caller's values, before the cast, which would
    wrap 256 to 0 and truncate 0.5; on uint8 input it is a single pass.
    """
    if y.dtype == np.uint8:
        ok = not y.size or y.max() <= Symbol.ERASED
    else:
        ok = np.isin(y, (0, 1, 2)).all()
    if not ok:
        raise ValueError("received symbols must be 0, 1, or erased")
    return y.astype(np.uint8, copy=False)


def decode_batch(code: PolarCode, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised sc_decode over a (B, N) symbol batch -> (u_hat, flags).

    Each call builds its own decoder state and reads the rest (the decision
    tables, the rate-0 re-encodings and the inverse kernel, all read-only)
    from the code's `_node_plan`, so concurrent decodes of one code need no
    coordination. Raises ValueError unless every symbol is 0, 1 or 2
    (erased). Whatever the symbols, frozen positions hold their frozen
    values and are never flagged.
    """
    ys = np.asarray(ys)
    if ys.ndim != 2 or ys.shape[1] != code.N:
        raise ValueError(f"expected shape (B, {code.N}), got {ys.shape}")
    ys = _symbols(ys)
    l, batch = code.kernel.l, ys.shape[0]
    plan = _node_plan(code)
    lamx, par, row_bits = plan.lamx, plan.par, plan.row_bits
    narrow = row_bits.dtype.type  # uint8 for l < 8, uint16 up to l = 12
    shifts = np.arange(l, dtype=narrow)[:, None]
    observed = narrow(1 << l)
    values, frozen = code.frozen_values, code.frozen_mask
    u_hat = flags = None
    poison = np.zeros(batch, dtype=bool)

    def allocate() -> None:
        """The outputs, allocated by the first leaf that writes them."""
        nonlocal u_hat, flags
        if u_hat is None:
            u_hat = np.empty((batch, code.N), dtype=np.uint8)
            flags = np.zeros((batch, code.N), dtype=np.uint8)

    def pack(bits: np.ndarray) -> np.ndarray:
        """Column masks of (B, l, m/l) bools: bit c of entry (b, j) is
        bits[b, c, j]. Where the masks fit in a byte (l < 8), the bools'
        bytes are shifted in place, so a mask adds only its (B, m/l)."""
        b = bits.view(np.uint8)
        if narrow is np.uint8:
            b <<= shifts
        else:
            b = b << shifts  # uint8 << uint16 widens to uint16
        return b.sum(axis=1, dtype=narrow)

    def rec(msg: np.ndarray, lo: int, k: int) -> np.ndarray | None:
        """Decode inputs lo..lo+m-1 (level k) from their m messages; return
        the re-encoding of the decisions (rows broadcast against the batch),
        or None at the root, whose re-encoding nobody reads."""
        nonlocal poison
        m = msg.shape[1]
        if plan.rate0[k][lo // m]:
            # Rate-0 subtree: the decisions are the frozen values.
            allocate()
            enc = plan.encoded[lo : lo + m]
            u_hat[:, lo : lo + m] = values[lo : lo + m]
            poison |= ((msg <= 1) & (msg != enc)).any(axis=1)
            return enc
        if m == 1:
            allocate()
            bit = msg[:, 0]
            flag = poison | (bit > 1)
            u_hat[:, lo] = np.where(flag, 0, bit)
            flags[:, lo] = flag
            return u_hat[:, lo : lo + 1]
        v = msg.reshape(batch, l, m // l)
        known = v <= 1
        if (known.all(axis=(1, 2)) | poison).all():
            # Known-message leaf, unless a live frame's inputs clash with a
            # frozen value of the node.
            decided = _kron_encode(plan.inverse, msg)
            cols = np.flatnonzero(frozen[lo : lo + m])
            clash = (decided[:, cols] != values[lo + cols]).any(axis=1)
            if not (clash & ~poison).any():
                allocate()
                decided[poison] = values[lo : lo + m]
                u_hat[:, lo : lo + m] = decided
                flags[poison, lo : lo + m] = frozen[lo : lo + m] ^ 1
                return msg
        kappa = pack(known)
        del known  # freed before the next mask is built
        # The node owns its messages (the root's digit-reversed copy, a
        # child's gather), so the second mask's bools overwrite them.
        obs = pack(np.equal(v, 1, out=v.view(bool)))
        obs |= observed
        # Freed here, so no open level holds its messages while the children
        # run: each child's messages, and what it returns, are temporaries
        # of the calls below.
        del v, msg
        # Child 0 reads the observations alone, and `prior` is allocated only
        # once it returns (arguments are evaluated in order); a rate-0 child
        # returns one row, which broadcasts into it.
        prior = np.multiply(
            rec(par[lamx[0][kappa] & obs], lo, k + 1),
            row_bits[0],
            out=np.empty_like(kappa),
        )
        for t in range(1, l):
            prior ^= rec(
                par[lamx[t][kappa] & (obs ^ prior)], lo + t * (m // l), k + 1
            ) * row_bits[t]
        if not k:
            return None
        unpacked = prior[:, None, :] >> shifts
        unpacked &= 1
        return unpacked.astype(np.uint8, copy=False).reshape(batch, m)

    # The root takes the only reference to the digit-reversed words, and
    # frees them once its masks are built; a caller that passes its words
    # as a temporary has them freed here.
    words = [_reverse_digits(ys.T, l).T]
    del ys
    try:
        rec(words.pop(), 0, 0)
    finally:
        # rec's closure refers to rec itself; without this the cycle would
        # keep this call's arrays alive until the cyclic collector runs.
        del rec
    return u_hat, flags


def sc_decode(code: PolarCode, y) -> DecodeResult:
    """Successive-cancellation decode of one received vector.

    Frozen positions take their frozen values and are never flagged;
    ambiguous information decisions default to zero with the erased flag set.
    """
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != code.N:
        raise ValueError(f"expected {code.N} received symbols, got shape {y.shape}")
    u_hat, flags = decode_batch(code, y[None, :])
    return DecodeResult(u_hat[0], flags[0], bool(flags.any()))


# --------------------------------------------------------------------------
# brute-force sequential MAP oracle (tests only; N <= 8)


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
    check_size_budget(code.kernel.l, code.depth, _MAX_ORACLE_BLOCK, "oracle block")
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != code.N:
        raise ValueError(f"expected {code.N} received symbols, got shape {y.shape}")
    u_hat, flags = _map_decode_batch(code, _symbols(y)[None, :])
    return DecodeResult(u_hat[0], flags[0], bool(flags.any()))


# --------------------------------------------------------------------------
# erasure-pattern screening
#
# The screen runs the genie-aided recursion on bit-packed knownness planes,
# one plane of W bytes per message, eight trials per byte, level by level.
# A node of size S holds its S messages contiguously, and child t of node p
# is node p*l + t of the next level, so after k levels a node's index is the
# base-l prefix (first k digits) of its input indices. Within a node the
# screen keeps the decoder's layout: the planes are digit-reversed once, so
# column c of the node's S/l kernel operations is the contiguous block of
# messages c*S/l..(c+1)*S/l-1, and child t receives output t of every
# operation in the child's own digit-reversed order. One array operation
# then runs over whole blocks. Planes one element wide keep input order,
# where operation b reads messages b*l..b*l+l-1: their reversal copies single
# words, at half the cost of a whole screen. Either way the size-1 nodes of
# the last level are in input order.


def _monotone_forms(det: np.ndarray) -> tuple:
    """How the screen evaluates each round position's determination, from
    the (l, 2^l) DET table of `_round_tables`.

    Determination is monotone in the set of non-erased columns, so the DET
    table collapses to an OR of ANDs over the minimal determining column
    sets, or to an AND of ORs over the complements of the maximal
    non-determining sets. Position t gets whichever takes fewer array
    operations, as (is AND of ORs, column groups); ties go to the OR of ANDs,
    and a position nothing determines gets no groups. The forms are tuples,
    so the code's `_node_plan` that holds them stays immutable.
    """
    l = det.shape[0]
    bits = [1 << c for c in range(l)]

    def cols(kappa):
        return tuple(c for c in range(l) if (kappa >> c) & 1)

    def cost(groups):  # a one-column group is still one copy
        return sum(max(1, len(g) - 1) for g in groups) + len(groups) - 1

    forms = []
    for t in range(l):
        terms = tuple(
            cols(kappa)
            for kappa in range(1 << l)
            if det[t, kappa]
            and not any(kappa & b and det[t, kappa & ~b] for b in bits)
        )
        clauses = tuple(
            cols(~kappa & ((1 << l) - 1))
            for kappa in range(1 << l)
            if not det[t, kappa]
            and all(kappa & b or det[t, kappa | b] for b in bits)
        )
        if terms and clauses and cost(clauses) < cost(terms):
            forms.append((True, clauses))
        else:
            forms.append((False, terms))
    return tuple(forms)


def _screen_round(forms, ops, out, parents, scratch) -> None:
    """One kernel round of the screen over the operations of a level.

    `ops` has shape (nodes, l, S/l, W): `ops[p, c]` holds column c of every
    kernel operation of node p. `out[p, t]`, of shape (S/l, W), receives the
    determination planes of input t of node p's operations, in the same
    operation order, for the nodes p in the slice `parents[t]` (none when it
    is None). `scratch` is a flat buffer of at least nodes * S/l * W words.
    """
    for t, ((and_of_ors, groups), rows) in enumerate(zip(forms, parents)):
        if rows is None:
            continue
        v, acc = ops[rows], out[rows, t]
        tmp = scratch[: acc.size].reshape(acc.shape)
        if not groups:  # no set of outputs determines this input
            acc[...] = 0
        inner, outer = np.bitwise_and, np.bitwise_or
        if and_of_ors:
            inner, outer = outer, inner
        # The first group is written straight into acc, later ones into tmp
        # and combined in; a one-column group is that column (x & x = x | x).
        for i, cols in enumerate(groups):
            dst = tmp if i else acc
            inner(v[:, cols[0]], v[:, cols[-1]], out=dst)
            for c in cols[1:-1]:
                inner(dst, v[:, c], out=dst)
            if i:
                outer(acc, tmp, out=acc)


def _screen_levels(forms, levels, planes: np.ndarray):
    """Run the screen's levels over (N, W) planes of unsigned words (uint8
    or uint64) in input order, overwriting `planes`, with the kernel's
    `_monotone_forms` (l = len(forms)).

    Each level is a `_ScreenLevel` over the nodes kept by the level above
    (the root first). Returns the AND of the planes of every message of
    every rate-1 child, and the (nodes * size, W) planes of the nodes kept
    by the last level, node-major; within a node of size above 1 they are
    in the layout of the comment above.
    """
    l = len(forms)
    n, width = planes.shape
    # Each level reads its parents from `src` and writes their children to
    # `dst`; the consumed parent planes then take the compacted children.
    src = planes.reshape(-1)
    dst = np.empty_like(src)
    scratch = np.empty(src.size // l, dtype=planes.dtype)
    info_known = np.full(width, ~planes.dtype.type(0), dtype=planes.dtype)
    digit_reversed = width > 1
    if digit_reversed:
        _reverse_digits(planes, l, out=dst)
        src, dst = dst, src
    nodes, size = 1, n
    for level in levels:
        span = nodes * size * width
        if digit_reversed:
            v = src[:span].reshape(nodes, l, size // l, width)
        else:
            v = src[:span].reshape(nodes, size // l, l, width).transpose(0, 2, 1, 3)
        out = dst[:span].reshape(nodes, l, size // l, width)
        _screen_round(forms, v, out, level.parents, scratch)
        children = out.reshape(nodes * l, size // l, width)
        size //= l
        # mode="clip" lets take() write straight into `out=` (the indices
        # are all in range); mode="raise" would buffer the copy.
        if level.info is not None:
            gathered = src[: level.info.size * size * width]
            gathered = gathered.reshape(level.info.size, size, width)
            np.take(children, level.info, axis=0, out=gathered, mode="clip")
            info_known &= np.bitwise_and.reduce(gathered.reshape(-1, width), axis=0)
        if level.mixed is None:
            nodes *= l
            src, dst = dst, src
        else:
            nodes = level.mixed.size
            kept = src[: nodes * size * width].reshape(nodes, size, width)
            np.take(children, level.mixed, axis=0, out=kept, mode="clip")
    return info_known, src[: nodes * size * width].reshape(nodes * size, width)


def _screen_positions(kernel: Kernel, depth: int, known: np.ndarray) -> np.ndarray:
    """Propagate bit-packed knownness planes from the channel to the inputs.

    The full screen: every node is kept at every level. `known` has shape
    (N, W): one bitplane row per output position, eight trials per byte; it
    is overwritten. Returns the same shape for the N input positions: bit
    set iff that input is determined given all earlier inputs (genie-aided).
    The result depends only on the erasure pattern, not on transmitted
    values.
    """
    keep_all = _ScreenLevel((slice(None),) * kernel.l, info=None, mixed=None)
    forms = _monotone_forms(_round_tables(kernel)[0])
    return _screen_levels(forms, (keep_all,) * depth, known)[1]


def _screen_known_planes(
    kernel: Kernel, plan: _NodePlan, known: np.ndarray
) -> np.ndarray:
    """Frame-error plane of a chunk, from its (N, W) knownness planes.

    The pruned screen, which `run_monte_carlo` uses: bit j of the returned
    (W,) plane is set iff genie-aided SC leaves some information input of
    trial j undetermined, i.e. iff the frame errs. `plan` is the code's
    `_node_plan`, which holds the screen's forms, so `kernel` is not read
    (it stays first, as `bench/tracing.py` reads `known` as the third
    argument); `known` is overwritten. Rate-0 children are dropped, since
    frozen inputs never set the flag. Over an invertible kernel a rate-1
    child leaves an input undetermined iff one of its messages is unknown:
    with every message known each round determines all l inputs, and with
    one erased two completions differ only in that message (the subtree map
    is a bijection), so even MAP, which determines at least what SC does,
    leaves an input open. Rate-1 children therefore reduce to an OR of their
    unknown planes and are dropped too; only mixed children descend. A
    rate-0 code has no levels, so its plane comes out all clear.
    """
    if plan.root == _RATE1:
        return ~np.bitwise_and.reduce(known, axis=0)
    # As whole 64-bit words the same bitwise operations take an eighth of
    # the element steps, which keeps narrow (long-code) chunks fast.
    words = known.view(np.uint64) if known.shape[1] % 8 == 0 else known
    return ~_screen_levels(plan.forms, plan.levels, words)[0].view(np.uint8)


def genie_erasure_flags(kernel: Kernel, depth: int, erased: np.ndarray) -> np.ndarray:
    """Per-input ambiguity flags of genie-aided SC for a batch of patterns.

    `erased` has shape (B, N) with True marking an erased output. Row i of the
    result is True iff input i is undetermined when all earlier inputs are
    known correctly. The first flagged information position coincides with
    sc_decode's first flagged position on honest channel output, so any-flag
    over the information set equals the decoded frame-error indicator.
    An l^depth above the spectrum budget raises BudgetExceededError.
    """
    erased = np.asarray(erased, dtype=bool)
    n = check_size_budget(kernel.l, check_integer(depth, "depth"))
    if erased.ndim != 2 or erased.shape[1] != n:
        raise ValueError(f"expected shape (B, {n}), got {erased.shape}")
    batch = erased.shape[0]
    known = np.packbits(~erased.T, axis=1)
    flagged = _screen_positions(kernel, depth, known)
    out = np.unpackbits(flagged, axis=1, count=batch).T == 0
    return out
