import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from polarkit import gf2


def test_as_bits_refuses_the_wrong_dimension():
    with pytest.raises(ValueError, match=r"2-dimensional array, got shape \(2,\)"):
        gf2.as_bits([0, 1], 2)


def test_solve_refuses_a_right_hand_side_of_the_wrong_length():
    with pytest.raises(ValueError, match="right-hand side length"):
        gf2.solve(np.eye(2, dtype=np.uint8), [1, 0, 1])


def test_rank_identity():
    assert gf2.rank(np.eye(4, dtype=np.uint8)) == 4


def test_rank_zero():
    assert gf2.rank(np.zeros((3, 3), dtype=np.uint8)) == 0


def test_rank_ge_matrix():
    rows = [[1, 0, 0, 0], [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]]
    # brute force: count distinct row combinations = 2^rank
    combos = set()
    for mask in range(16):
        v = 0
        for i in range(4):
            if (mask >> i) & 1:
                v ^= int("".join(map(str, rows[i])), 2)
        combos.add(v)
    assert len(combos) == 2**4
    assert gf2.rank(np.array(rows)) == 4


def test_rank_rejects_non_binary():
    with pytest.raises(ValueError):
        gf2.rank(np.array([[0, 2], [1, 0]]))


def test_in_span_empty_basis():
    assert gf2.in_span([0, 0, 0], [])
    assert not gf2.in_span([1, 0, 0], [])


def test_in_span_examples():
    assert gf2.in_span([1, 0, 0], [[1, 1, 0], [0, 1, 0]])
    assert not gf2.in_span([1, 0, 0], [[0, 1, 0], [0, 0, 1]])


def test_in_span_length_mismatch():
    with pytest.raises(ValueError):
        gf2.in_span([1, 0], [[1, 0, 0]])


bit_matrices = arrays(
    np.uint8,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.integers(0, 1),
)


@given(bit_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_rank_invariant_under_row_ops(m, data):
    r = gf2.rank(m)
    rows = m.shape[0]
    out = m.copy()
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, rows - 1))
        j = data.draw(st.integers(0, rows - 1))
        if data.draw(st.booleans()):
            out[[i, j]] = out[[j, i]]
        elif i != j:
            out[i] ^= out[j]
    assert gf2.rank(out) == r


@given(bit_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_in_span_matches_rank_growth(m, data):
    v = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
        dtype=np.uint8,
    )
    expected = gf2.rank(m) == gf2.rank(np.vstack([m, v]))
    assert gf2.in_span(v, list(m)) == expected


@given(bit_matrices, st.data())
@settings(max_examples=60, deadline=None)
def test_solve_finds_consistent_solutions(m, data):
    x = np.array(
        data.draw(st.lists(st.integers(0, 1), min_size=m.shape[1], max_size=m.shape[1])),
        dtype=np.uint8,
    )
    b = (m @ x) % 2
    sol = gf2.solve(m, b)
    assert sol is not None
    assert np.array_equal((m @ sol) % 2, b)


def test_solve_detects_insoluble():
    a = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    assert gf2.solve(a, np.array([1, 0], dtype=np.uint8)) is None


def test_kron_matches_numpy_parity():
    a = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    b = np.eye(2, dtype=np.uint8)
    assert np.array_equal(gf2.kron(a, b), np.kron(a, b) % 2)


@given(bit_matrices)
@settings(max_examples=100, deadline=None)
def test_packed_rank_matches_rank(m):
    rows = [int("".join(map(str, r[::-1])), 2) for r in m.tolist()]
    assert gf2.packed_rank(rows) == gf2.rank(m)


# Stacks of bit matrices: (rows, *lanes, cols) with 0 to 2 lane axes, one
# matrix per lane.
lane_stacks = arrays(
    np.uint8,
    st.tuples(
        st.integers(1, 6),
        st.lists(st.integers(1, 3), max_size=2),
        st.integers(1, 8),
    ).map(lambda s: (s[0], *s[1], s[2])),
    elements=st.integers(0, 1),
)


@given(
    lane_stacks, st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64, object])
)
@settings(max_examples=100, deadline=None)
def test_bottom_up_reduce_against_in_span_and_rank(bits, dtype):
    rows = (bits.astype(np.int64) << np.arange(bits.shape[-1])).sum(axis=-1)
    rows = rows.astype(dtype)
    reduced = gf2.bottom_up_reduce(rows)
    assert reduced.shape == rows.shape and reduced.dtype == rows.dtype
    assert np.array_equal(gf2.bottom_up_reduce(reduced), reduced)
    for lane in np.ndindex(rows.shape[1:]):
        m = bits[(slice(None),) + lane]
        r = reduced[(slice(None),) + lane]
        assert np.count_nonzero(r) == gf2.rank(m)
        for i in range(m.shape[0]):
            assert (r[i] == 0) == gf2.in_span(m[i], list(m[i + 1 :])), (lane, i)
            # r[i] is the least member of row i's coset modulo the rows below.
            below = [int(v) for v in rows[(slice(i + 1, None),) + lane]]
            coset = {int(rows[(i,) + lane])}
            for b in below:
                coset |= {v ^ b for v in coset}
            assert int(r[i]) == min(coset), (lane, i)


def test_bottom_up_reduce_leaves_its_argument():
    rows = np.array([[3, 1], [1, 1]], dtype=np.uint8)
    assert gf2.bottom_up_reduce(rows).tolist() == [[2, 0], [1, 1]]
    assert rows.tolist() == [[3, 1], [1, 1]]


AS_BITS_INPUTS = [
    np.array([[True, False], [False, True]]),
    np.array([[0, 1], [1, 1]]),
    np.array([[0, 1], [1, 1]], dtype=np.uint8),
    np.array([[0.0, 1.0], [-0.0, 1.0]]),
    np.array([[0.5, 1.0]]),
    np.array([[np.nan, 1.0]]),
    np.array([[np.inf, 0.0]]),
    np.array([[-1, 0]]),
    np.array([[2, 0]]),
    np.array([[255, 0]], dtype=np.uint8),
    np.array([[1j, 0]]),
    np.array([["0", "1"]]),
    np.array([[1, 0]], dtype=object),
    np.array([[1, None]], dtype=object),
    np.zeros((0, 3)),
    np.zeros((2, 0), dtype=np.int64),
]


@pytest.mark.parametrize("m", AS_BITS_INPUTS, ids=lambda m: f"{m.dtype}{m.shape}")
def test_as_bits_accepts_exactly_the_isin_zero_one_inputs(m):
    accept = m.size == 0 or bool(np.isin(m, (0, 1)).all())
    if accept:
        got = gf2.as_bits(m, 2)
        assert got.dtype == np.uint8 and np.array_equal(got, m.astype(np.uint8))
    else:
        with pytest.raises(ValueError, match="0 or 1"):
            gf2.as_bits(m, 2)
