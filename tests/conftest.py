"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import random_labels
from repro.data import make_blobs, make_circles
from repro.gpu import A100_80GB, Device
from repro.kernels import PolynomialKernel, kernel_matrix


@pytest.fixture
def lockdep():
    """Dynamic lock-order tracking (the runtime half of RPR106).

    Locks *created* while the test runs are wrapped and keyed by their
    creation site; every held-lock -> new-lock acquisition records an
    edge, and the test fails at teardown if the ordering graph contains
    a cycle — a potential deadlock, reported even when the deadly
    interleaving never fired in this run.
    """
    from repro.analysis import lockdep as _lockdep

    tracker = _lockdep.LockOrderTracker()
    with _lockdep.installed(tracker):
        yield tracker
    cycles = tracker.cycles()
    assert not cycles, _lockdep.format_cycles(cycles)


@pytest.fixture
def rng():
    """Deterministic generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def device():
    """A fresh simulated A100."""
    return Device(A100_80GB)


@pytest.fixture
def device_build():
    """The device backend's kernel stage as a function of the points.

    ``device_build(x, kernel, method=, threshold=, device=)`` returns
    ``(K, P~, gram_method)`` as host arrays; pass ``device`` to inspect
    the launches it charged.
    """
    from repro.engine import get_backend

    def build(x, kernel, *, method="auto", threshold=None, device=None):
        device = device or Device(A100_80GB)
        backend = get_backend("device")
        state = backend.begin(n_clusters=2, dtype=x.dtype, device=device)
        backend.compute_kernel_matrix(state, x, kernel, method=method, threshold=threshold)
        return state.k_op.a, state.p_norms.a, state.gram_method

    return build


@pytest.fixture
def blobs():
    """Small separable dataset: (X float32 (90, 5), y, k=3)."""
    x, y = make_blobs(90, 5, 3, rng=7)
    return x, y, 3


@pytest.fixture
def circles():
    """Non-linearly separable dataset: (X (240, 2), y, k=2)."""
    x, y = make_circles(240, rng=11)
    return x, y, 2


@pytest.fixture
def poly_kernel():
    """The paper's evaluation kernel: polynomial, gamma=c=1, degree 2."""
    return PolynomialKernel(gamma=1.0, coef0=1.0, degree=2)


@pytest.fixture
def small_kernel_matrix(rng):
    """A PSD kernel matrix (60x60, float64) plus labels and k."""
    x = rng.standard_normal((60, 4))
    k_mat = kernel_matrix(x, PolynomialKernel())
    labels = random_labels(60, 4, rng)
    return k_mat, labels, 4


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running tests")
