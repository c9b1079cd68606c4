"""The fit loop's distance step reads K once.

``fused_popcorn_argmin`` computes ``E^T = -2 V K`` with one SpMM pass
and reads ``z`` out of it: summed over every ``spmm`` call, the
``nnz x p`` work is exactly ``n^2`` (V has one nonzero per point, K has
``n`` columns), every call reads K itself rather than a copied panel,
and the per-cluster ``_label_gather`` is not called.
"""

import sys

import numpy as np
import pytest

from repro import sparse
from repro.baselines import random_labels
from repro.core import argmin_assign
from repro.core.distances import popcorn_distances_host
from repro.engine import reduction


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` under every ``repro`` module-level name."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                monkeypatch.setattr(mod, attr, replacement)


@pytest.mark.parametrize("chunk_rows", [None, 7, 1000])
@pytest.mark.parametrize("n_threads", [None, 3])
@pytest.mark.parametrize("weighted", [False, True])
def test_one_spmm_pass_over_k(monkeypatch, chunk_rows, n_threads, weighted):
    n, k = 41, 6
    rng = np.random.default_rng(3)
    x = rng.standard_normal((n, 5))
    km = x @ x.T
    lab = random_labels(n, k, rng)
    w = rng.uniform(0.5, 2.0, size=n) if weighted else None
    work = []
    in_place = []
    real_spmm = sparse.spmm

    def counting_spmm(a, b, *args, **kwargs):
        work.append(int(a.nnz) * int(np.shape(b)[1]))
        in_place.append(b is km)
        return real_spmm(a, b, *args, **kwargs)

    def no_gather(*args, **kwargs):
        raise AssertionError("the distance step must not run the per-cluster z-pass")

    _patch_everywhere(monkeypatch, real_spmm, counting_spmm)
    _patch_everywhere(monkeypatch, reduction._label_gather, no_gather)
    fused = reduction.fused_popcorn_argmin(
        km, lab, k, chunk_rows=chunk_rows, n_threads=n_threads, weights=w
    )
    assert sum(work) == n * n
    assert all(in_place)  # every task reads K itself, never a copied panel
    d_full, _ = popcorn_distances_host(km, lab, k, weights=w)
    want = argmin_assign(d_full)
    np.testing.assert_array_equal(fused.labels, want)
    np.testing.assert_array_equal(fused.min_d, d_full[np.arange(n), want])


def test_c_norms_match_the_per_cluster_z_pass():
    # z read from E^T is bitwise the z the per-cluster gather computes
    n, k = 30, 4
    rng = np.random.default_rng(11)
    x = rng.standard_normal((n, 3)).astype(np.float32)
    km = np.ascontiguousarray(x @ x.T)
    lab = np.repeat(np.arange(k - 1), n // (k - 1)).astype(np.int32)  # cluster 3 empty
    v, sizes = sparse.factored_selection(lab, k, dtype=np.float32)
    z = reduction._label_gather(km, v, sizes, budget_elems=n * k, n_threads=None)
    want = sparse.factored_spmv(v, sizes, z, alpha=-0.5)
    d_full, _ = popcorn_distances_host(km, lab, k)
    rows = np.repeat(np.arange(n), k)
    cols = np.tile(np.arange(k), n)
    for chunk_rows, n_threads in [(None, None), (None, 2), (4, 2)]:
        fused = reduction.fused_popcorn_argmin(
            km, lab, k, chunk_rows=chunk_rows, n_threads=n_threads
        )
        np.testing.assert_array_equal(fused.c_norms, want)
        np.testing.assert_array_equal(fused.at(rows, cols), d_full[rows, cols])


def test_panel_bytes_counts_e_transpose():
    n, k = 50, 5
    et = np.zeros((k, n), dtype=np.float32)
    p = np.zeros(n, dtype=np.float32)
    c = np.zeros(k, dtype=np.float32)
    whole = reduction._PopcornArgmin(et, p, c)
    assert whole.panel_bytes == 4 * (n * k + k * n)  # panel + E^T
    chunked = reduction._PopcornArgmin(et, p, c, chunk_rows=10, chunk_cols=2)
    assert chunked.panel_bytes == 4 * (10 * 2 + k * n)  # no copy of K
