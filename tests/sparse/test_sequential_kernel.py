"""SpMM/SpMV are bit-equal to a strict per-row, nonzero-order loop.

The reference below is the contract the distance pipeline's
chunk/thread/backend bit-exactness rests on: output entry ``(i, c)`` is
``0 + (alpha*a_0) * b[j_0, c] + (alpha*a_1) * b[j_1, c] + ...`` summed
left to right over row ``i``'s nonzeros in stored order, in the matrix
dtype.  Every case compares bytes, not values within a tolerance.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSRMatrix, from_dense, spmm, spmv

WIDE = 137


def sequential_spmm(a: CSRMatrix, b: np.ndarray, alpha: float) -> np.ndarray:
    dt = a.dtype.type
    vals = a.values if alpha == 1.0 else a.values * dt(alpha)
    bm = np.asarray(b, dtype=a.dtype)
    out = np.zeros((a.nrows, bm.shape[1]), dtype=a.dtype)
    for i in range(a.nrows):
        acc = np.zeros(bm.shape[1], dtype=a.dtype)
        for t in range(a.rowptrs[i], a.rowptrs[i + 1]):
            acc = acc + vals[t] * bm[a.colinds[t]]
        out[i] = acc
    return out


def sequential_spmv(a: CSRMatrix, x: np.ndarray, alpha: float) -> np.ndarray:
    dt = a.dtype.type
    vals = a.values if alpha == 1.0 else a.values * dt(alpha)
    xv = np.asarray(x, dtype=a.dtype)
    out = np.zeros(a.nrows, dtype=a.dtype)
    for i in range(a.nrows):
        acc = dt(0)
        for t in range(a.rowptrs[i], a.rowptrs[i + 1]):
            acc = acc + vals[t] * xv[a.colinds[t]]
        out[i] = acc
    return out


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.ascontiguousarray(got).tobytes() == want.tobytes()
    )


@st.composite
def csr_case(draw):
    """A CSR matrix with empty, trailing-empty and (optionally) non-sorted rows."""
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 9))
    n = draw(st.integers(1, 11))
    trailing = draw(st.integers(0, 3))
    dense = (rng.standard_normal((m, n)) * 10).astype(dtype)
    dense[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = 0
    if m:
        dense[rng.random(m) < 0.25] = 0  # whole empty rows
    a = from_dense(np.vstack([dense, np.zeros((trailing, n), dtype=dtype)]), dtype=dtype)
    if a.nnz and draw(st.booleans()):
        # the kernel follows stored order, not column order: shuffle it
        starts, ends = a.rowptrs[:-1], a.rowptrs[1:]
        order = np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(starts, ends)])
        a = CSRMatrix(a.values[order], a.colinds[order], a.rowptrs, a.shape, check=False)
    alpha = draw(st.sampled_from([1.0, -2.0, -0.5, 0.3]))
    return a, alpha, rng


def dense_operand(rng, n: int, p: int, dtype, layout: str) -> np.ndarray:
    """An ``(n, p)`` operand in the requested memory layout."""
    base = (rng.standard_normal((n, 2 * p + 1)) * 10).astype(dtype)
    if layout == "sliced":
        return base[:, 1::2]
    b = np.ascontiguousarray(base[:, :p])
    if layout == "fortran":
        return np.asfortranarray(b)
    if layout == "transposed":
        return np.ascontiguousarray(b.T).T
    return b


@given(
    csr_case(),
    st.sampled_from([0, 1, WIDE]),
    st.sampled_from(["c", "fortran", "transposed", "sliced"]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_spmm_is_the_sequential_loop(case, p, layout, use_out):
    a, alpha, rng = case
    b = dense_operand(rng, a.ncols, p, a.dtype, layout)
    want = sequential_spmm(a, b, alpha)
    if use_out:
        out = np.full((a.nrows, p), np.nan, dtype=a.dtype)
        got = spmm(a, b, alpha=alpha, out=out)
        assert got is out
    else:
        got = spmm(a, b, alpha=alpha)
    assert same_bits(got, want)


@given(csr_case(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_spmv_is_the_sequential_loop(case, strided, use_out):
    a, alpha, rng = case
    x = (rng.standard_normal(2 * a.ncols) * 10).astype(a.dtype)
    x = x[::2] if strided else x[: a.ncols]
    want = sequential_spmv(a, x, alpha)
    if use_out:
        out = np.full(a.nrows, np.nan, dtype=a.dtype)
        got = spmv(a, x, alpha=alpha, out=out)
        assert got is out
    else:
        got = spmv(a, x, alpha=alpha)
    assert same_bits(got, want)
    assert same_bits(spmm(a, x[:, None], alpha=alpha)[:, 0], want)

