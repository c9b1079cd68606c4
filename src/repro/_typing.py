"""Shared type aliases and array-validation helpers.

These helpers centralise argument checking so the numerical modules can
assume well-formed, contiguous float arrays.  Following the HPC guides we
avoid silent copies: :func:`as_matrix` only copies when the input is not
already a C-contiguous float array of the requested dtype.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .errors import ConfigError, DTypeError, ShapeError

ArrayLike = Union[np.ndarray, list, tuple]

#: dtypes accepted for numerical payloads
FLOAT_DTYPES = (np.float32, np.float64)

#: dtype used for CSR index arrays (mirrors the paper's 32-bit indices)
INDEX_DTYPE = np.int32


def as_float_dtype(dtype) -> np.dtype:
    """Normalise and validate a floating dtype request."""
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise DTypeError(f"expected float32 or float64, got {dt}")
    return dt


def as_matrix(a: ArrayLike, dtype=None, *, name: str = "array") -> np.ndarray:
    """Return ``a`` as a 2-D C-contiguous float ndarray.

    Parameters
    ----------
    a:
        Array-like input.
    dtype:
        Target floating dtype.  ``None`` keeps the input dtype when it is
        already a float type, otherwise promotes to ``float64``.
    name:
        Argument name used in error messages.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float64
    dtype = as_float_dtype(dtype)
    return np.ascontiguousarray(arr, dtype=dtype)


def as_vector(a: ArrayLike, dtype=None, *, name: str = "vector") -> np.ndarray:
    """Return ``a`` as a 1-D contiguous float ndarray."""
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in FLOAT_DTYPES else np.float64
    dtype = as_float_dtype(dtype)
    return np.ascontiguousarray(arr, dtype=dtype)


def as_index_vector(a: ArrayLike, *, name: str = "indices") -> np.ndarray:
    """Return ``a`` as a 1-D contiguous int32 index vector.

    Raises
    ------
    DTypeError
        If the input contains non-integral values.
    """
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(INDEX_DTYPE)
        else:
            raise DTypeError(f"{name} must be integral, got dtype={arr.dtype}")
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


def check_finite(a: np.ndarray, *, name: str = "array") -> np.ndarray:
    """``a`` itself, or :class:`~repro.errors.ConfigError` if it holds NaN or inf.

    The one finiteness check the public entry points share (``fit``,
    ``partial_fit``, ``predict``, served rows): a non-finite entry
    otherwise turns into silent garbage labels deep inside a fit.
    """
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} holds NaN or inf values")
    return a


def check_square(a: np.ndarray, *, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square; returns it unchanged."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} must be square, got shape={a.shape}")
    return a


def check_labels(labels: np.ndarray, n: int, k: int, *, name: str = "labels") -> np.ndarray:
    """Validate a cluster-assignment vector: length ``n``, values in [0, k)."""
    lab = as_index_vector(labels, name=name)
    if lab.shape[0] != n:
        raise ShapeError(f"{name} must have length {n}, got {lab.shape[0]}")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise ShapeError(f"{name} values must lie in [0, {k})")
    return lab
