"""Support-major query panels of the prediction reduction.

``CrossKernelArgmin`` streams queries in panels of
``query_panel_rows`` rows.  Each panel is the ``n_support x rows``
cross-kernel in the model dtype, evaluated support first, and is the
CSR SpMM's operand as it comes.  The reference pinned here: ``s_qj`` is
a sequential sum, in the model dtype, of ``(-2 V_jl) K[l, q]`` over
cluster ``j``'s entries in V's stored order, and ``min_d`` is
``float64(s_qj) + C~_j``.  The panels depend on the model alone, so
every chunking and thread count gives the same bits on any BLAS.  A
query's result depends on its own row alone, a lone row included, only
where the BLAS keeps a GEMM column's bits across panels; the tests of
that skip on other BLAS kernels.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PopcornKernelKMeans
from repro.data import make_blobs
from repro.engine import reduction
from repro.engine.reduction import (
    QUERY_PANEL_BYTES,
    CrossKernelArgmin,
    query_panel_rows,
)
from repro.errors import ShapeError
from repro.kernels import GaussianKernel, PolynomialKernel
from repro.sparse import selection_matrix

TOP = reduction.QUERY_PANEL_MAX_ROWS


def _problem(n_sup, m, d, k, dtype, seed):
    rng = np.random.default_rng(seed)
    sup = rng.standard_normal((n_sup, d)).astype(dtype)
    q = rng.standard_normal((m, d)).astype(dtype)
    labels = rng.integers(0, k, n_sup)
    v = selection_matrix(labels, k, dtype=np.float64)
    c = rng.standard_normal(k)
    return sup, q, v, c


def _gemm_keeps_query_columns() -> bool:
    """Whether this BLAS gives a query's column of ``support @ q.T`` the
    same bits in every panel ``CrossKernelArgmin`` may put it in: any
    width from the padded minimum up to ``QUERY_PANEL_MAX_ROWS``, at any
    position.  True for OpenBLAS 0.3.31's SkylakeX kernels, false for
    its Haswell ones (measured)."""
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        for n_sup, d in ((12, 8), (40, 3), (111, 9), (300, 16), (700, 64), (2100, 33)):
            sup = rng.standard_normal((n_sup, d)).astype(dtype)
            q = rng.standard_normal((TOP, d)).astype(dtype)
            full = sup @ q.T
            low = max(2, -(-reduction.QUERY_PANEL_MIN_ENTRIES // n_sup))
            for w in range(1, TOP):
                rows = np.r_[0:w, np.full(max(low - w, 0), w - 1)]
                if not np.array_equal((sup @ q[rows].T)[:, :w], full[:, :w]):
                    return False
                tail = np.r_[w:TOP, np.full(max(low - TOP + w, 0), TOP - 1)]
                if not np.array_equal((sup @ q[tail].T)[:, : TOP - w], full[:, w:]):
                    return False
    return True


batching_invariant = pytest.mark.skipif(
    not _gemm_keeps_query_columns(),
    reason="this BLAS rounds a GEMM column differently with its panel",
)


def _argmin(kernel, sup, q, v, c, **kw):
    return CrossKernelArgmin(
        q.shape[0],
        lambda sel: kernel.pairwise(sup, q[sel]),
        v,
        c,
        dtype=q.dtype,
        **kw,
    ).run()


class TestPanelSchedule:
    def test_budget_floor_and_cap(self):
        assert query_panel_rows(10**6 * 4) == reduction.QUERY_PANEL_MIN_ROWS
        assert query_panel_rows(40) == reduction.QUERY_PANEL_MAX_ROWS
        rows = QUERY_PANEL_BYTES // (12000 * 4)
        assert reduction.QUERY_PANEL_MIN_ROWS < rows < reduction.QUERY_PANEL_MAX_ROWS
        assert query_panel_rows(12000 * 4) == rows

    def test_cap_is_below_the_float64_gemm_breakpoint(self):
        assert reduction.QUERY_PANEL_MAX_ROWS < 255

    def _seen(self, n_sup, m, **kw):
        sup, q, v, c = _problem(n_sup, m, 3, 4, np.float32, 0)
        seen = []

        def support_major(sel):
            seen.append(sel)
            return PolynomialKernel().pairwise(sup, q[sel])

        CrossKernelArgmin(m, support_major, v, c, dtype=np.float32, **kw).run()
        return seen

    @pytest.mark.parametrize("n_sup", [1100, 40])
    def test_narrow_panels_are_padded_with_their_last_row(self, n_sup):
        width = max(2, -(-reduction.QUERY_PANEL_MIN_ENTRIES // n_sup))
        seen = self._seen(n_sup, 5)
        if width <= 5:
            assert seen == [slice(0, 5)]
        else:
            assert np.array_equal(seen[0], [0, 1, 2, 3] + [4] * (width - 4))
        seen = self._seen(n_sup, TOP + 1)
        assert seen[0] == slice(0, TOP)
        assert np.array_equal(seen[1], [TOP] * width)

    @pytest.mark.parametrize("kw", [{"chunk_rows": 1}, {"chunk_rows": 7, "chunk_cols": 2}])
    def test_chunking_does_not_shape_the_panels(self, kw):
        assert self._seen(1100, TOP + 9, **kw) == [slice(0, TOP), slice(TOP, TOP + 9)]

    def test_only_a_one_row_call_against_a_large_support_is_a_gemv(self, monkeypatch):
        """Past LONE_ROW_GEMM_BYTES a one-row call is not padded: the GEMM's
        packing of the support would cost several GEMVs.  A one-row tail
        panel of a wider call still is, so its label cannot depend on
        the batch size."""
        big = reduction.LONE_ROW_GEMM_BYTES + 1
        assert self._seen(2100, 1, support_bytes=big) == [slice(0, 1)]
        seen = self._seen(2100, TOP + 1, support_bytes=big)
        assert seen[0] == slice(0, TOP)
        assert np.array_equal(seen[1], [TOP, TOP])
        # predict hands the support's feature bytes to the reduction
        sup, q, _, _ = _problem(2100, 5, 3, 4, np.float32, 0)
        est = PopcornKernelKMeans(3, backend="host", seed=0).fit(sup)
        monkeypatch.setattr(reduction, "LONE_ROW_GEMM_BYTES", sup.nbytes - 1)
        shapes = []
        pairwise = PolynomialKernel.pairwise

        def spy(self, x, y=None, **kw):
            shapes.append(y.shape)
            return pairwise(self, x, y, **kw)

        monkeypatch.setattr(PolynomialKernel, "pairwise", spy)
        est.predict(q[:1])
        assert shapes == [(1, 3)]
        # a one-row shard of a wider block is not a one-row call
        shapes.clear()
        est.predict_batch([q[:3]], devices=2)
        assert shapes == [(2, 3), (2, 3)]

    def test_wrong_panel_shape_raises(self):
        sup, q, v, c = _problem(40, 5, 3, 4, np.float32, 0)
        red = CrossKernelArgmin(
            5, lambda sel: PolynomialKernel().pairwise(q[sel], sup), v, c, dtype=np.float32
        )
        with pytest.raises(ShapeError, match="support-major"):
            red.run()

    @pytest.mark.parametrize("n_sup", [6000, 11000, 14000])
    def test_panel_bytes_is_the_model_dtype_support_major_panel(self, n_sup):
        m, k = 1500, 32
        _, _, v, c = _problem(n_sup, 1, 4, k, np.float32, 1)
        red = CrossKernelArgmin(m, lambda sel: None, v, c, dtype=np.float32)
        # the float32 support-major block, its float32 SpMM output and the
        # float64 distance panel; never the whole-chunk float64 transpose
        row_bytes = (n_sup + k) * 4 + k * 8
        assert red.chunk_rows == query_panel_rows(row_bytes)
        assert red.panel_bytes == red.chunk_rows * row_bytes
        assert red.panel_bytes <= QUERY_PANEL_BYTES
        assert red.panel_bytes < m * n_sup * 8 // 10


class TestReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_min_d_is_the_sequential_model_dtype_csr_sum(self, dtype):
        kernel = GaussianKernel(gamma=0.3)
        sup, q, v, c = _problem(37, 9, 4, 5, dtype, 3)
        labels, min_d = _argmin(kernel, sup, q, v, c)
        kt = kernel.pairwise(sup, q)  # one 9-wide support-major panel
        vals = v.values.astype(dtype) * dtype(-2.0)
        want = np.empty((q.shape[0], v.nrows))
        for j in range(v.nrows):
            lo, hi = v.rowptrs[j], v.rowptrs[j + 1]
            for t in range(q.shape[0]):
                s = dtype(0.0)
                for a, i in zip(vals[lo:hi], v.colinds[lo:hi]):
                    s = dtype(s + a * kt[i, t])
                want[t, j] = np.float64(s) + c[j]
        assert min_d.dtype == np.float64
        np.testing.assert_array_equal(min_d, want.min(axis=1))
        np.testing.assert_array_equal(labels, np.argmin(want, axis=1))


class TestPanelInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        m=st.integers(1, 420),
        n_sup=st.integers(1, 700),
        d=st.integers(1, 64),
        chunk_rows=st.one_of(st.none(), st.integers(1, 300)),
        chunk_cols=st.one_of(st.none(), st.integers(1, 6)),
        n_threads=st.sampled_from([None, 1, 2, 3]),
        dtype=st.sampled_from([np.float32, np.float64]),
        big=st.booleans(),
    )
    def test_min_d_is_bitwise_equal_for_every_schedule(
        self, seed, m, n_sup, d, chunk_rows, chunk_cols, n_threads, dtype, big
    ):
        kernel = GaussianKernel(gamma=1.0 / d)
        sup, q, v, c = _problem(n_sup, m, d, 6, dtype, seed)
        kw = {"support_bytes": reduction.LONE_ROW_GEMM_BYTES + 1 if big else 0}
        want_lab, want_d = _argmin(kernel, sup, q, v, c, **kw)
        sched = dict(chunk_rows=chunk_rows, chunk_cols=chunk_cols, n_threads=n_threads)
        lab, min_d = _argmin(kernel, sup, q, v, c, **sched, **kw)
        np.testing.assert_array_equal(min_d, want_d)
        np.testing.assert_array_equal(lab, want_lab)

    @batching_invariant
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        # m one past a whole number of panels leaves a one-row tail panel
        m=st.one_of(st.integers(2, 420), st.sampled_from([TOP + 1, 2 * TOP + 1])),
        extra=st.integers(1, 5),
        # past QUERY_PANEL_MIN_ENTRIES a panel needs no more than 2 columns
        n_sup=st.integers(1, 2600),
        d=st.integers(1, 64),
        n_threads=st.sampled_from([None, 2]),
        dtype=st.sampled_from([np.float32, np.float64]),
        big=st.booleans(),
    )
    def test_min_d_does_not_depend_on_the_batch_size(
        self, seed, m, extra, n_sup, d, n_threads, dtype, big
    ):
        """Rows ``[0, m)`` of a batch give the same bits with ``extra``
        more rows after them; past LONE_ROW_GEMM_BYTES too, since only a
        one-row call runs as a GEMV."""
        kernel = GaussianKernel(gamma=1.0 / d)
        sup, q, v, c = _problem(n_sup, m + extra, d, 6, dtype, seed)
        kw = {"support_bytes": reduction.LONE_ROW_GEMM_BYTES + 1 if big else 0}
        want_lab, want_d = _argmin(kernel, sup, q[:m], v, c, n_threads=n_threads, **kw)
        lab, min_d = _argmin(kernel, sup, q, v, c, n_threads=n_threads, **kw)
        np.testing.assert_array_equal(min_d[:m], want_d)
        np.testing.assert_array_equal(lab[:m], want_lab)

    @batching_invariant
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_lone_row_matches_its_batch_result(self, dtype):
        kernel = GaussianKernel(gamma=0.1)
        sup, q, v, c = _problem(300, 200, 16, 8, dtype, 5)
        _, want = _argmin(kernel, sup, q, v, c)
        for i in range(q.shape[0]):
            _, one = _argmin(kernel, sup, q[i : i + 1], v, c)
            assert one[0] == want[i], i

    @batching_invariant
    def test_served_row_label_is_batch_predict_label(self):
        x, _ = make_blobs(400, 8, 5, rng=2)
        x = x.astype(np.float32)
        est = PopcornKernelKMeans(5, kernel=GaussianKernel(gamma=0.05), backend="host", seed=0)
        est.fit(x[:300])
        q = x[300:]
        want = est.predict(q)
        got = np.concatenate([est.predict(q[i : i + 1]) for i in range(q.shape[0])])
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(est.predict_batch([q[:3], q[3:]], devices=2), want)


def test_predict_memory_is_bounded_by_the_panel_budget():
    """At n_support=6000, m=1500 the old path held the whole float32
    cross-kernel, its float64 cast and the float64 transpose, about
    ``m n (4 + 8 + 8)`` = 180 MB; the panels keep predict near one
    budget plus the ``O(m k)`` outputs."""
    n_sup, m, k, d = 6000, 1500, 8, 8
    x, _ = make_blobs(n_sup + m, d, k, rng=3)
    x = x.astype(np.float32)
    est = PopcornKernelKMeans(
        k, kernel=GaussianKernel(gamma=1.0 / d), backend="host", max_iter=2, seed=0
    ).fit(x[:n_sup])
    q = x[n_sup:]
    est.predict(q[:4])  # warm the support-norm cache
    tracemalloc.start()
    try:
        est.predict(q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * QUERY_PANEL_BYTES + 4 * m * k * 8
    assert peak < m * n_sup * 20 // 10
