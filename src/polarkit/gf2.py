"""GF(2) linear algebra on numpy 0/1 arrays and on packed rows.

`bottom_up_reduce` is the library's elimination routine, with many
systems at once as lanes: it builds the decoder's decision tables
(`codec._round_tables`), the kernels' count tables (`bec.batch_profiles`)
and the survey's row-canonical forms. It and `packed_rank` take rows packed
into non-negative integers, one bit per column. The dense routines (`rank`,
`in_span`, `solve`) take binary matrices/vectors (any dtype, entries 0 or
1); they serve the tests as an independent reference, `_node_plan`'s
inverse kernel and `kernel_step_decide`. No routine mutates its arguments.
"""

from __future__ import annotations

import numpy as np


def as_bits(a, ndim: int) -> np.ndarray:
    """Validate and copy `a` into a uint8 array of 0/1 entries."""
    m = np.asarray(a)
    if m.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got shape {m.shape}")
    if m.size and not ((m == 0) | (m == 1)).all():
        raise ValueError("entries must be 0 or 1")
    return m.astype(np.uint8)


def _row_reduce(a: np.ndarray, cols: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 0/1 array, pivoting on its first `cols`
    columns only; returns the reduced copy and the pivot columns."""
    a = a.copy()
    rows = a.shape[0]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = np.flatnonzero(a[r:, c])
        if not hits.size:
            continue
        pivot = r + hits[0]
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        pivots.append(c)
    return a, pivots


def rank(m) -> int:
    """GF(2) row rank via Gaussian elimination."""
    a = as_bits(m, 2)
    return len(_row_reduce(a, a.shape[1])[1])


def bottom_up_reduce(rows) -> np.ndarray:
    """Each row reduced modulo the span of the rows below it, lane by lane.

    `rows` holds non-negative integers, one bit per column, with the rows on
    axis 0 and independent lanes on the axes after it. Row i of the result
    is the least member of row i's coset modulo the span of rows i+1.., so
    it is zero iff row i lies in that span. Rows are reduced bottom-up, each
    against the reduced rows below it in the order they were reduced:
    min(v, v ^ b) clears b's leading bit from v when it is set, and that
    order never sets a leading bit already cleared.
    """
    out = np.array(rows, order="C")
    for i in range(out.shape[0] - 2, -1, -1):
        v = out[i : i + 1]  # a view even when there are no lane axes
        for b in out[:i:-1]:
            np.minimum(v, v ^ b, out=v)
    return out


def packed_rank(rows) -> int:
    """GF(2) rank of rows given as non-negative integers, one bit per column.

    The scalar, Python-int form of the reduction in `bottom_up_reduce`.
    """
    basis: list[int] = []  # distinct leading bits, kept in decreasing order
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)  # clears b's leading bit from r if it is set
        if r:
            basis.append(r)
            basis.sort(reverse=True)
    return len(basis)


def in_span(v, basis) -> bool:
    """True iff vector `v` is a GF(2) linear combination of the basis vectors.

    The empty combination is allowed, so the zero vector is in every span.
    Raises ValueError on length mismatches.
    """
    vec = as_bits(v, 1)
    rows = [as_bits(b, 1) for b in basis]
    for b in rows:
        if b.shape != vec.shape:
            raise ValueError("all vectors must have the same length")
    if not rows:
        return not vec.any()
    b = np.array(rows, dtype=np.uint8)
    return rank(b) == rank(np.vstack([b, vec]))


def solve(a, b):
    """One solution x of A x = b over GF(2), or None if the system is insoluble.

    When the solution space has positive dimension the returned solution is
    the one with free variables set to zero (deterministic).
    """
    a = as_bits(a, 2)
    b = as_bits(b, 1)
    rows, cols = a.shape
    if b.shape[0] != rows:
        raise ValueError("right-hand side length does not match matrix rows")
    aug, pivots = _row_reduce(np.hstack([a, b[:, None]]), cols)
    r = len(pivots)
    # Any remaining nonzero augmented column entry below the pivots means b
    # is outside the column space.
    if aug[r:, cols].any():
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, c in enumerate(pivots):
        x[c] = aug[i, cols]
    return x


def kron(a, b) -> np.ndarray:
    """Kronecker product over GF(2)."""
    return (np.kron(as_bits(a, 2), as_bits(b, 2)) & 1).astype(np.uint8)
