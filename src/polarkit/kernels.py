"""Polarisation kernels: parsing, partial distances, rate exponents, families.

A kernel is an l x l binary matrix applied at every recursion level of a polar
transform; row i multiplies input u_i. Kernels are immutable once built and
their invertibility flag is always recomputed from the matrix, never taken
from input. Partial distances have one batch-native implementation over
arrays of row bits (`batch_distances`); `partial_distances` is a batch of one
and `rate_exponent_table` one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import gf2
from .errors import BudgetExceededError, KernelFormatError, check_integer
from .errors import check_invertible

#: most span members the partial-distance search enumerates: the span of a
#: kernel's later rows has 2^(l-1) members, so kernels up to 20x20
_MAX_SPAN_MEMBERS = 1 << 19
#: (kernel, span member) lanes per block of the partial-distance search
_BLOCK_LANES = 1 << 16

#: the kernel families, by name: every l x l matrix, singular ones included,
#: and the lower-triangular matrices with unit diagonal
FAMILIES = ("all", "lower_triangular_unit_diagonal")

#: most members `family_rows` enumerates: every 4x4 matrix and every
#: lower-triangular family up to 6x6
_MAX_FAMILY_MEMBERS = 1 << 16

#: largest Kronecker power l^n the reference generators form
_MAX_GENERATOR_SIZE = 4096
#: largest spectrum, code length and digit-reversal permutation l^n accepted
_MAX_SPECTRUM_SIZE = 1 << 24


@dataclass(frozen=True, eq=False)
class Kernel:
    """An l x l binary kernel with its GF(2) invertibility."""

    matrix: np.ndarray
    l: int = field(init=False)
    invertible: bool = field(init=False)

    def __post_init__(self):
        m = gf2.as_bits(self.matrix, 2)
        if m.shape[0] != m.shape[1]:
            raise KernelFormatError(f"kernel must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise KernelFormatError("kernel size must be at least 2x2")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "l", m.shape[0])
        invertible = gf2.packed_rank(self.row_bits()) == self.l
        object.__setattr__(self, "invertible", invertible)

    def row_bits(self) -> tuple[int, ...]:
        """Rows as integers, bit j (LSB first) holding column j."""
        packed = np.packbits(self.matrix, axis=1, bitorder="little")
        return tuple(int.from_bytes(r.tobytes(), "little") for r in packed)

    @classmethod
    def from_row_bits(cls, rows) -> "Kernel":
        """The l x l kernel whose row r holds column c at bit c of rows[r]."""
        rows = np.asarray(rows, dtype=np.uint32)
        return cls((rows[:, None] >> np.arange(rows.shape[0], dtype=np.uint32)) & 1)

    def descriptor(self) -> str:
        """The comma-separated rows, as `parse_kernel` reads them."""
        # Python ints: a row of more than 64 bits fits no numpy integer.
        return row_descriptors(np.array([self.row_bits()], dtype=object))[0]

    def to_json_dict(self) -> dict:
        return {"l": self.l, "rows": self.descriptor().split(",")}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Kernel":
        k = parse_kernel(",".join(d["rows"]))
        if k.l != check_integer(d.get("l", k.l), "kernel 'l' field"):
            raise KernelFormatError("kernel 'l' field does not match its rows")
        return k

    def __eq__(self, other):
        return isinstance(other, Kernel) and np.array_equal(self.matrix, other.matrix)

    def __hash__(self):
        return hash((self.l, self.row_bits()))

    def __repr__(self):
        return f"Kernel({self.descriptor()!r})"


@dataclass(frozen=True)
class PartialDistances:
    """Per-row partial distances d_1..d_l and the rate exponent they induce."""

    d: tuple[int, ...]
    exponent: float


def parse_kernel(text: str) -> Kernel:
    """Parse a comma-separated binary row descriptor, e.g. "100,110,011".

    Row i of the matrix multiplies input u_i. Raises KernelFormatError on
    non-binary characters, ragged rows, or a non-square shape.
    """
    rows = [r.strip() for r in text.strip().split(",")]
    if any(not r for r in rows):
        raise KernelFormatError(f"empty row in kernel descriptor {text!r}")
    width = len(rows[0])
    for r in rows:
        if len(r) != width:
            raise KernelFormatError(f"ragged rows in kernel descriptor {text!r}")
        if set(r) - {"0", "1"}:
            raise KernelFormatError(f"non-binary character in kernel row {r!r}")
    if len(rows) != width:
        raise KernelFormatError(
            f"kernel must be square, got {len(rows)} rows of width {width}"
        )
    m = np.array([[int(c) for c in r] for r in rows], dtype=np.uint8)
    return Kernel(m)


def batch_distances(rows, l: int) -> np.ndarray:
    """Partial distances of a batch of kernels, shape (M, l), dtype int64.

    `rows` is an (M, l) array of row bits as in `Kernel.row_bits`. Entry
    [m, i] is the minimum weight of row i of kernel m XOR any combination of
    its rows i+1..l-1; the span of the later rows grows bottom-up, doubling
    with each row. A zero marks a row in the span of the rows below it, i.e.
    a singular kernel. Kernels are processed in blocks of about _BLOCK_LANES
    span members, and kernels whose spans exceed _MAX_SPAN_MEMBERS (l > 20)
    raise BudgetExceededError before any work.
    """
    check_size_budget(2, l - 1, _MAX_SPAN_MEMBERS, "span-member")
    rows = np.asarray(rows, dtype=np.uint32).reshape(-1, l)
    dists = np.empty(rows.shape, dtype=np.int64)
    step = max(1, _BLOCK_LANES >> (l - 1))  # kernels per block
    for m0 in range(0, rows.shape[0], step):
        block = rows[m0 : m0 + step].T
        span = np.zeros((1, block.shape[1]), dtype=np.uint32)  # member-major
        for i in range(l - 1, -1, -1):
            dists[m0 : m0 + step, i] = np.bitwise_count(block[i] ^ span).min(axis=0)
            if i:
                span = np.concatenate([span, span ^ block[i]])
    return dists


def batch_exponents(rows, l: int) -> np.ndarray:
    """Rate exponents of a batch of kernels; NaN marks singular kernels."""
    dists = batch_distances(rows, l)
    exps = np.full(dists.shape[0], np.nan)
    good = (dists > 0).all(axis=1)
    exps[good] = np.log(dists[good]).sum(axis=1) / (l * math.log(l))
    return exps


def partial_distances(k: Kernel) -> PartialDistances:
    """Partial distances of an invertible kernel and its rate exponent.

    d_i is the minimum Hamming distance from row i to the GF(2) span of rows
    i+1..l; for the last row the span is {0}, so d_l is the row weight. The
    exponent is (1/l) * sum_i log_l(d_i). A batch of one of `batch_distances`
    and `batch_exponents`.
    """
    check_invertible(k)
    rows = [k.row_bits()]
    d = tuple(batch_distances(rows, k.l)[0].tolist())
    return PartialDistances(d=d, exponent=float(batch_exponents(rows, k.l)[0]))


def rate_exponent_table(family: Sequence[Kernel]) -> list[tuple[Kernel, float]]:
    """Rate exponent for each kernel, preserving the input order.

    The kernels must be invertible and of one size; their exponents come from
    one `batch_exponents` call.
    """
    kernels = list(family)
    if not kernels:
        return []
    l = kernels[0].l
    if any(k.l != l for k in kernels):
        raise ValueError("kernel family mixes sizes")
    for k in kernels:
        check_invertible(k)
    exps = batch_exponents([k.row_bits() for k in kernels], l).tolist()
    return list(zip(kernels, exps))


def family_rows(l: int, family: str = FAMILIES[0]) -> np.ndarray:
    """Row bits of every kernel of a family, shape (M, l), dtype uint32.

    Bit c of entry [m, r] holds column c of row r of kernel m, as in
    `Kernel.row_bits`. Kernels come in binary-counting order: free entries
    are filled row-major from a counter whose least significant bit is the
    last free entry, so the all-zero filling comes first. `family` is one of
    FAMILIES: "all" ranges over every l*l matrix, singular ones included;
    "lower_triangular_unit_diagonal" fixes the diagonal to 1 and the strict
    upper triangle to 0. Families above _MAX_FAMILY_MEMBERS members raise
    BudgetExceededError before anything is allocated.
    """
    l = check_integer(l, "kernel size", 2)
    if family not in FAMILIES:
        raise ValueError(f"unknown kernel family {family!r}")
    full = family == FAMILIES[0]
    nbits = l * l if full else l * (l - 1) // 2
    check_size_budget(2, nbits, _MAX_FAMILY_MEMBERS, f"{l}x{l} {family} family")
    # Every entry is free in the full family; the lower-triangular one starts
    # from the identity, with columns 0..r-1 of row r free.
    free = [(r, c) for r in range(l) for c in range(l if full else r)]
    base = np.zeros(l, np.uint32) if full else 1 << np.arange(l, dtype=np.uint32)
    counter = np.arange(1 << nbits, dtype=np.uint32)
    rows = np.tile(base, (counter.shape[0], 1))
    for pos, (r, c) in enumerate(free):
        rows[:, r] |= ((counter >> (nbits - 1 - pos)) & 1) << c
    return rows


def row_descriptors(rows: np.ndarray, sep: str = ",") -> list[str]:
    """`Kernel.descriptor()` of every kernel in an (M, l) row-bit array of
    any integer dtype (object too), with the rows joined by the one-character
    `sep` instead of a comma."""
    m, l = rows.shape
    # Row r's text lists columns 0..l-1, i.e. bits 0..l-1 of its row bits.
    digits = (rows[:, :, None] >> np.arange(l, dtype=rows.dtype)) & 1
    text = np.full((m, l, l + 1), ord(sep), dtype=np.uint8)
    np.add(digits, ord("0"), out=text[:, :, :l], casting="unsafe")
    text[:, -1, -1] = ord("\n")  # ends each kernel's text
    return text.tobytes().decode("ascii").split("\n")[:-1]


def enumerate_kernels(l: int, family: str = FAMILIES[0]) -> Iterator[Kernel]:
    """Every kernel of a family, in `family_rows` order."""
    return (Kernel.from_row_bits(r) for r in family_rows(l, family))


def check_size_budget(
    l: int, depth: int, max_size: int = _MAX_SPECTRUM_SIZE, what: str = "spectrum"
) -> int:
    """l^depth, refused with BudgetExceededError above max_size, for an l of
    at least 2 and a depth already checked to be a non-negative int. Every
    size budget of the package is refused here; `what` names what l^depth
    counts.

    l^depth is never formed for a huge depth: l^depth >= 2^depth, so any
    depth above max_size's bit length exceeds the budget whatever l is.
    """
    if l ** min(depth, max_size.bit_length()) > max_size:
        raise BudgetExceededError(
            f"size {l}^{depth} exceeds the {what} budget of {max_size}"
        )
    return l**depth


def kronecker_generator(k: Kernel, n: int) -> np.ndarray:
    """The l^n x l^n matrix k^(x n) over GF(2); n = 0 gives the 1x1 identity.

    Reference oracle only: raises BudgetExceededError when l^n exceeds
    `_MAX_GENERATOR_SIZE`.
    """
    n = check_integer(n, "depth")
    check_size_budget(k.l, n, _MAX_GENERATOR_SIZE, "Kronecker power")
    out = np.ones((1, 1), dtype=np.uint8)
    for _ in range(n):
        out = gf2.kron(out, k.matrix)
    return out


def digit_reversal_permutation(l: int, n: int) -> np.ndarray:
    """Permutation reversing the base-l digits of each index in 0..l^n - 1.

    This is the row permutation that turns the plain Kronecker power into the
    generator actually applied by the recursive kernel-then-shuffle encoder.
    Raises BudgetExceededError when l^n exceeds `_MAX_SPECTRUM_SIZE`, the
    longest code.
    """
    l, n = check_integer(l, "kernel size", 2), check_integer(n, "depth")
    size = check_size_budget(l, n, _MAX_SPECTRUM_SIZE, "permutation")
    # Axis j of the reshaped range holds digit j; reversing the axes reverses
    # the digits.
    return np.arange(size, dtype=np.int64).reshape((l,) * n).transpose().reshape(size)


def reference_generator(k: Kernel, n: int) -> np.ndarray:
    """Generator matrix of the depth-n transform: digit-reversed Kronecker power.

    Row i is row digit_reversal(i) of k^(x n); multiplying an input row vector
    by this matrix reproduces the recursive encoder on all l^n inputs.
    """
    gen = kronecker_generator(k, n)
    return gen[digit_reversal_permutation(k.l, n)]
