"""Exact erasure-channel analysis of polarisation kernels.

One application of an l x l kernel to l independent BECs splits them into l
synthetic channels, each again a BEC. For split channel i, the erasure
probability is a polynomial in the raw erasure rate that counts, per erasure
pattern over the l outputs, whether input i can be recovered from the
non-erased outputs once inputs 0..i-1 are known. This module builds those
count tables exactly, evolves them into full spectra, and scores spectra with
a normalised polarisation distance, information-set selection, and block-error
union bounds. The count tables and the spectrum evolution each have one
batch-native implementation over arrays of kernel row bits
(`batch_profiles`, `batch_curves`); the single-kernel calls
`one_step_profile` and `evolve_spectrum` are batches of one. A brute-force
split-channel computation over all channel outputs serves as the
ground-truth oracle for everything else.

Channel indices, like all indices in this package, are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf2
from .errors import BudgetExceededError
from .kernels import Kernel, reference_generator

_MAX_PROFILE_SIZE = 20
_MAX_ORACLE_BLOCK = 8
#: largest spectrum (and code length) l^depth accepted
_MAX_SPECTRUM_SIZE = 1 << 24
#: (kernel, erasure pattern) lanes per block of the count-table elimination
_BLOCK_LANES = 1 << 15
#: channel values per block of the distance-curve evolution (at least one
#: table per block)
_CURVE_VALUES = 1 << 16


@dataclass(frozen=True)
class TransitionProfile:
    """Erasure-pattern determination counts for one kernel application.

    ``counts[i][s]`` is the number of erasure patterns of cardinality s
    (over the l outputs) under which input i is NOT determined given inputs
    0..i-1. The induced polynomial

        Z_i(z) = sum_s counts[i][s] * z**s * (1-z)**(l-s)

    is the erasure probability (equivalently the Bhattacharyya parameter) of
    split channel i when each output is erased independently with
    probability z.
    """

    l: int
    counts: tuple[tuple[int, ...], ...]

    def multiset(self) -> tuple[tuple[int, ...], ...]:
        """Canonical form: the count rows sorted lexicographically."""
        return tuple(sorted(self.counts))


@dataclass(frozen=True)
class Spectrum:
    """Per-channel erasure probabilities after `depth` kernel applications.

    The z vector is kept in successive-cancellation index order (unsorted);
    sorting is a presentation concern only.
    """

    kernel: Kernel
    depth: int
    z: np.ndarray
    design_eps: float

    @property
    def size(self) -> int:
        return self.z.shape[0]


def batch_profiles(rows, l: int) -> np.ndarray:
    """Count tables of a batch of kernels, shape (M, l, l+1), dtype int64.

    `rows` is an (M, l) array of row bits as in `Kernel.row_bits`; entry
    [m, i, s] is `counts[i][s]` of kernel m's TransitionProfile. Every
    (kernel, erasure pattern) pair is one lane of `gf2.bottom_up_reduce`
    over the kernel's rows masked to the kept columns: input i is
    undetermined iff its row reduces to zero against the rows below it. The
    lanes run in blocks of _BLOCK_LANES. Kernels above size
    _MAX_PROFILE_SIZE raise BudgetExceededError before any work.
    """
    if l > _MAX_PROFILE_SIZE:
        raise BudgetExceededError(
            f"profile enumeration over 2^{l} erasure patterns exceeds the "
            f"supported kernel size of {_MAX_PROFILE_SIZE}"
        )
    rows = np.asarray(rows, dtype=np.uint32).reshape(-1, l)
    patterns = 1 << l
    width = min(patterns, _BLOCK_LANES)  # erasure patterns per block
    step = _BLOCK_LANES // width  # kernels per block
    counts = np.zeros((rows.shape[0], l, l + 1), dtype=np.int64)
    for p0 in range(0, patterns, width):
        erased = np.arange(p0, p0 + width, dtype=np.uint32)
        keep = erased ^ np.uint32(patterns - 1)
        # One-hot pattern weights; a float product keeps the sums exact.
        weight = np.bitwise_count(erased)[:, None]
        by_weight = (weight == np.arange(l + 1)).astype(np.float64)
        for m0 in range(0, rows.shape[0], step):
            block = rows[m0 : m0 + step].T[:, :, None] & keep
            undet = (gf2.bottom_up_reduce(block) == 0).reshape(-1, width)
            tallies = (undet.astype(np.float64) @ by_weight).reshape(l, -1, l + 1)
            counts[m0 : m0 + step] += tallies.transpose(1, 0, 2).astype(np.int64)
    return counts


def one_step_profile(k: Kernel) -> TransitionProfile:
    """Exact determination counts of one kernel application over the BEC.

    For each input i and each erasure pattern S over the l outputs, input i is
    determined iff its row, restricted to the non-erased columns, lies outside
    the span of the similarly restricted later rows (equivalently, the unit
    vector selecting it lies in the column span of the submatrix on rows i..l-1
    and non-erased columns). Singular kernels are allowed; they simply leave
    some input undetermined even with zero erasures. A batch of one of
    `batch_profiles`.
    """
    counts = batch_profiles([k.row_bits()], k.l)[0]
    return TransitionProfile(l=k.l, counts=tuple(map(tuple, counts.tolist())))


def bernstein_eval(counts, z):
    """Evaluate sum_s counts[..., s] * z**s * (1-z)**(S-s) without cancellation.

    `counts` has the polynomial degree on its last axis; leading axes
    broadcast against `z`.
    """
    c = np.asarray(counts, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    w = 1.0 - z
    top = c.shape[-1] - 1
    acc = c[..., top] * np.ones_like(z)
    wp = np.ones_like(z)
    for s in range(top - 1, -1, -1):
        wp = wp * w
        acc = acc * z + c[..., s] * wp
    return acc


def evaluate_erasure(p: TransitionProfile, i: int, z: float) -> float:
    """Erasure probability of split channel i at raw erasure rate z."""
    if not 0 <= i < p.l:
        raise ValueError(f"channel index {i} out of range for l={p.l}")
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {z}")
    return float(bernstein_eval(np.array(p.counts[i]), z))


def _spectrum_levels(counts: np.ndarray, eps0: float, depth: int):
    """Erasure spectra of a batch of count tables (M, l, l+1), level by level.

    Yields the (M, l**d) spectra for d = 1..depth. Starting from [eps0],
    every channel value z spawns l children (Z_0(z), ..., Z_{l-1}(z)) in index
    order, so child t of parent j lands at index l*j + t on the next level.
    """
    m_count, l = counts.shape[0], counts.shape[1]
    coeffs = counts.astype(np.float64)
    z = np.full((m_count, 1), eps0)
    for _ in range(depth):
        children = np.empty((m_count, z.shape[1], l))
        for t in range(l):
            children[:, :, t] = bernstein_eval(coeffs[:, t, None, :], z)
        z = np.clip(children.reshape(m_count, -1), 0.0, 1.0)
        yield z


def batch_curves(counts: np.ndarray, eps0: float, depth: int) -> np.ndarray:
    """Distance curves of a batch of count tables, shape (M, depth).

    Column d - 1 is the polarisation distance of each spectrum at depth d
    (as in `polarisation_distance`, normalised by eps0 * eps0). The tables
    are evolved in blocks of about _CURVE_VALUES final-level channel values,
    so memory does not grow with M; each table's curve is computed on its
    own row, whatever the block.
    """
    l = counts.shape[1]
    step = max(1, _CURVE_VALUES // l ** min(depth, _CURVE_VALUES.bit_length()))
    curves = np.empty((counts.shape[0], depth))
    for m0 in range(0, counts.shape[0], step):
        block = slice(m0, m0 + step)
        for d, z in enumerate(_spectrum_levels(counts[block], eps0, depth)):
            small = np.minimum(z, 1.0 - z)
            curves[block, d] = (small * small).mean(axis=1) / (eps0 * eps0)
    return curves


def _check_spectrum_budget(
    l: int, depth: int, max_size: int = _MAX_SPECTRUM_SIZE
) -> None:
    """Refuse l^depth > max_size without forming l^depth for a huge depth.

    For l >= 2, l^depth >= 2^depth, so any depth above max_size's bit length
    exceeds the budget whatever l is.
    """
    if l ** min(depth, max_size.bit_length()) > max_size:
        raise BudgetExceededError(
            f"size {l}^{depth} exceeds the spectrum budget of {max_size}"
        )


def evolve_spectrum(k: Kernel, eps0: float, depth: int) -> Spectrum:
    """Erasure spectrum after `depth` recursive kernel applications.

    The last level of `_spectrum_levels` for a batch of one kernel; depth = 0
    returns [eps0].
    """
    if not 0.0 <= eps0 <= 1.0:
        raise ValueError(f"design erasure rate must be in [0, 1], got {eps0}")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_spectrum_budget(k.l, depth)
    z = np.array([[eps0]])
    for z in _spectrum_levels(batch_profiles([k.row_bits()], k.l), eps0, depth):
        pass
    return Spectrum(kernel=k, depth=depth, z=z[0], design_eps=eps0)


def polarisation_distance(s: Spectrum) -> float:
    """Normalised distance of a spectrum from complete polarisation.

    d = (1 / (N * eps0^2)) * sum_i min(|z_i|, |1 - z_i|)^2.

    1 means no polarisation at all, 0 means every channel is fully erased or
    fully clean. The normalisation keeps d <= 1 whenever eps0 >= 0.5; for
    smaller design rates the value can exceed 1.
    """
    if s.size == 0:
        raise ValueError("spectrum is empty")
    if s.design_eps * s.design_eps == 0:
        raise ValueError("normalisation undefined: design erasure rate squares to 0")
    m = np.minimum(np.abs(s.z), np.abs(1.0 - s.z))
    return float((m * m).mean() / (s.design_eps * s.design_eps))


def select_information_set(s: Spectrum, K: int) -> np.ndarray:
    """Indices of the K most reliable channels, sorted ascending.

    Channels are ranked by erasure probability; ties break toward the smaller
    index.
    """
    if not 0 <= K <= s.size:
        raise ValueError(f"K must be in [0, {s.size}], got {K}")
    order = np.argsort(s.z, kind="stable")
    return np.sort(order[:K])


def bler_upper_bound(s: Spectrum, K: int) -> float:
    """Union bound on block error: the sum of the K smallest erasure rates."""
    info = select_information_set(s, K)
    return float(s.z[info].sum())


def bound_curve(s: Spectrum, rates) -> list[tuple[float, int, float]]:
    """(rate, K, union bound) rows with K = round(rate * N)."""
    rows = []
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        k_info = round(rate * s.size)
        rows.append((float(rate), k_info, bler_upper_bound(s, k_info)))
    return rows


def spectrum_csv_text(s: Spectrum) -> str:
    """Spectrum CSV: index,erasure_prob,capacity (capacity = 1 - erasure)."""
    lines = ["index,erasure_prob,capacity"]
    for i, z in enumerate(s.z):
        lines.append(f"{i},{z:.12g},{1.0 - z:.12g}")
    return "\n".join(lines) + "\n"


def bounds_csv_text(rows) -> str:
    """Bounds CSV: rate,K,bound."""
    lines = ["rate,K,bound"]
    for rate, k_info, bound in rows:
        lines.append(f"{rate:.12g},{k_info},{bound:.12g}")
    return "\n".join(lines) + "\n"


def exhaustive_split_oracle(k: Kernel, depth: int, eps: float, i: int) -> float:
    """Split-channel Bhattacharyya parameter by brute-force summation.

    Sums over every channel output in {0, 1, e}^N and every input prefix,
    marginalising the future inputs uniformly. Independent of the count-table
    machinery above; used as its ground truth. N = l^depth must not exceed 8.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"erasure rate must be in [0, 1], got {eps}")
    n_block = k.l**depth
    if n_block > _MAX_ORACLE_BLOCK:
        raise BudgetExceededError(
            f"oracle over 3^{n_block} outputs exceeds the block limit of "
            f"{_MAX_ORACLE_BLOCK}"
        )
    if not 0 <= i < n_block:
        raise ValueError(f"channel index {i} out of range for N={n_block}")
    gen = reference_generator(k, depth)
    n_in = 1 << n_block
    u_all = (np.arange(n_in)[:, None] >> np.arange(n_block - 1, -1, -1)) & 1
    x_all = (u_all @ gen) % 2
    n_out = 3**n_block
    y_all = (np.arange(n_out)[:, None] // 3 ** np.arange(n_block - 1, -1, -1)) % 3
    # Transition likelihoods: rows are the received symbol (0, 1, erased),
    # columns the transmitted bit.
    lik = np.array([[1.0 - eps, 0.0], [0.0, 1.0 - eps], [eps, eps]])
    w = np.ones((n_out, n_in))
    for pos in range(n_block):
        w *= lik[y_all[:, pos]][:, x_all[:, pos]]
    # Inputs were enumerated with u_0 as the most significant bit, so the
    # input axis factors as (prefix, u_i, suffix).
    w = w.reshape(n_out, 1 << i, 2, 1 << (n_block - 1 - i)).sum(axis=3)
    pair = np.sqrt(w[:, :, 0] * w[:, :, 1])
    return float(pair.sum() / 2 ** (n_block - 1))
