"""Compressed Sparse Row (CSR) matrix container.

This is the sparse substrate of the reproduction, mirroring the CSR layout
the paper uses through cuSPARSE (Sec. 4.1): a ``values`` array of nonzeros,
a ``colinds`` array with the column index of each nonzero, and a
``rowptrs`` array with the start/end offsets of each row.

The container is deliberately minimal and immutable-by-convention: the
numerical kernels live in :mod:`repro.sparse.spmm`, :mod:`repro.sparse.spmv`
and :mod:`repro.sparse.spgemm`, and structural helpers live in
:mod:`repro.sparse.ops`.  Everything is validated eagerly so that the
kernels can assume well-formed input.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._typing import INDEX_DTYPE, as_float_dtype
from ..errors import ShapeError, SparseFormatError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A CSR sparse matrix backed by three NumPy arrays.

    Parameters
    ----------
    values:
        Nonzero values, shape ``(nnz,)``, float32 or float64.
    colinds:
        Column index of each nonzero, shape ``(nnz,)``, int32.
        Within each row, column indices must be strictly increasing
        (canonical CSR, no duplicates).
    rowptrs:
        Row offsets, shape ``(nrows + 1,)``; ``rowptrs[i]:rowptrs[i+1]``
        slices the nonzeros of row ``i``.
    shape:
        ``(nrows, ncols)``.
    check:
        When true (default) validate all format invariants; kernels that
        construct trusted output pass ``check=False`` for speed.
    """

    __slots__ = ("values", "colinds", "rowptrs", "shape", "_kernel_index")

    def __init__(
        self,
        values: np.ndarray,
        colinds: np.ndarray,
        rowptrs: np.ndarray,
        shape: Tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.values = np.ascontiguousarray(values)
        self.colinds = np.ascontiguousarray(colinds, dtype=INDEX_DTYPE)
        self.rowptrs = np.ascontiguousarray(rowptrs, dtype=np.int64)
        nrows, ncols = int(shape[0]), int(shape[1])
        self.shape = (nrows, ncols)
        self._kernel_index = None
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self, *, canonical: bool = True) -> None:
        """Check every CSR format invariant; raise :class:`SparseFormatError`.

        ``canonical=False`` checks only what the kernels need to stay in
        bounds (dtypes, array lengths, row offsets, column range) and
        accepts unsorted or repeated column indices within a row.
        """
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise SparseFormatError(f"negative shape {self.shape}")
        if self.values.ndim != 1 or self.colinds.ndim != 1 or self.rowptrs.ndim != 1:
            raise SparseFormatError("values, colinds and rowptrs must be 1-D")
        if self.values.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise SparseFormatError(
                f"values dtype must be float32/float64, got {self.values.dtype}"
            )
        if self.values.shape[0] != self.colinds.shape[0]:
            raise SparseFormatError(
                f"values ({self.values.shape[0]}) and colinds "
                f"({self.colinds.shape[0]}) disagree on nnz"
            )
        if self.rowptrs.shape[0] != nrows + 1:
            raise SparseFormatError(
                f"rowptrs must have length nrows+1={nrows + 1}, got {self.rowptrs.shape[0]}"
            )
        if nrows >= 0 and self.rowptrs.shape[0] > 0:
            if self.rowptrs[0] != 0:
                raise SparseFormatError("rowptrs[0] must be 0")
            if self.rowptrs[-1] != self.values.shape[0]:
                raise SparseFormatError(
                    f"rowptrs[-1]={self.rowptrs[-1]} must equal nnz={self.values.shape[0]}"
                )
            if np.any(np.diff(self.rowptrs) < 0):
                raise SparseFormatError("rowptrs must be non-decreasing")
        if self.colinds.size:
            if self.colinds.min() < 0 or self.colinds.max() >= ncols:
                raise SparseFormatError("column index out of bounds")
            if not canonical:
                return
            # strictly increasing columns within each row (canonical form)
            d = np.diff(self.colinds)
            row_starts = self.rowptrs[1:-1]
            interior = (
                np.ones(self.colinds.size - 1, dtype=bool)
                if self.colinds.size > 1
                else np.zeros(0, dtype=bool)
            )
            if interior.size:
                boundary = row_starts[(row_starts > 0) & (row_starts < self.colinds.size)]
                interior[boundary - 1] = False
                bad = interior & (d <= 0)
                if np.any(bad):
                    raise SparseFormatError(
                        "column indices must be strictly increasing within rows"
                    )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.values.shape[0])

    @property
    def dtype(self) -> np.dtype:
        """Floating dtype of the values array."""
        return self.values.dtype

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of stored entries, ``nnz / (nrows * ncols)``."""
        total = self.shape[0] * self.shape[1]
        return float(self.nnz) / total if total else 0.0

    def row_nnz(self) -> np.ndarray:
        """Per-row nonzero counts, shape ``(nrows,)``."""
        return np.diff(self.rowptrs)

    def kernel_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rowptrs, colinds)`` in the one integer dtype the compiled
        SpMM/SpMV kernel takes, built on first use and kept.

        ``colinds`` is already int32, so only the short ``rowptrs`` array
        is narrowed — unless ``nnz`` overflows int32, when ``colinds`` is
        widened instead.  The arrays must not be mutated after this call.
        """
        if self._kernel_index is None:
            if self.nnz <= np.iinfo(np.int32).max:
                pair = (self.rowptrs.astype(np.int32), self.colinds)
            else:
                pair = (self.rowptrs, self.colinds.astype(np.int64))
            self._kernel_index = pair
        return self._kernel_index

    def row_indices(self) -> np.ndarray:
        """Expand ``rowptrs`` into a per-nonzero row index (COO row array)."""
        return np.repeat(
            np.arange(self.nrows, dtype=INDEX_DTYPE), np.diff(self.rowptrs)
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense C-contiguous ndarray."""
        out = np.zeros(self.shape, dtype=self.dtype)
        if self.nnz:
            out[self.row_indices(), self.colinds] = self.values
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (for cross-validation)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values.copy(), self.colinds.copy(), self.rowptrs.copy()),
            shape=self.shape,
        )

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to ``dtype``."""
        dt = as_float_dtype(dtype)
        return CSRMatrix(
            self.values.astype(dt, copy=True),
            self.colinds,
            self.rowptrs,
            self.shape,
            check=False,
        )

    def copy(self) -> "CSRMatrix":
        """Deep copy of all three backing arrays."""
        return CSRMatrix(
            self.values.copy(),
            self.colinds.copy(),
            self.rowptrs.copy(),
            self.shape,
            check=False,
        )

    # ------------------------------------------------------------------
    # element access (for tests/examples; not a hot path)
    # ------------------------------------------------------------------
    def __getitem__(self, idx: Tuple[int, int]):
        """Return the scalar at ``(i, j)`` (zero when not stored)."""
        if not (isinstance(idx, tuple) and len(idx) == 2):
            raise ShapeError("CSRMatrix indexing requires an (i, j) pair")
        i, j = int(idx[0]), int(idx[1])
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise ShapeError(f"index {(i, j)} out of bounds for shape {self.shape}")
        lo, hi = int(self.rowptrs[i]), int(self.rowptrs[i + 1])
        pos = np.searchsorted(self.colinds[lo:hi], j)
        if pos < hi - lo and self.colinds[lo + pos] == j:
            return self.dtype.type(self.values[lo + pos])
        return self.dtype.type(0)

    # ------------------------------------------------------------------
    # misc dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"dtype={self.dtype.name}, density={self.density:.2e})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural + numerical equality (same stored pattern and values)."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.rowptrs, other.rowptrs)
            and np.array_equal(self.colinds, other.colinds)
            and np.array_equal(self.values, other.values)
        )

    # unhashable by declaration: hash() raises the interpreter's own
    # TypeError, and mutability stays out of dict keys under python -O too
    __hash__ = None  # type: ignore[assignment]

    def allclose(self, other: "CSRMatrix", rtol: float = 1e-5, atol: float = 1e-8) -> bool:
        """Numerical comparison via dense materialisation (test helper)."""
        if self.shape != other.shape:
            return False
        return bool(np.allclose(self.to_dense(), other.to_dense(), rtol=rtol, atol=atol))
