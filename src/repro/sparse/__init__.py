"""From-scratch CSR sparse linear algebra substrate.

The paper's contribution is a formulation of Kernel K-means in terms of
SpMM and SpMV over a cluster-selection matrix ``V``; this subpackage
provides those primitives (plus SpGEMM for the ablation path) built
directly on NumPy, mirroring the CSR layout cuSPARSE uses.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .construct import (
    cluster_counts,
    factored_selection,
    from_coo,
    from_dense,
    from_scipy,
    identity,
    random_csr,
    selection_matrix,
    weighted_selection_matrix,
)
from .ops import (
    add,
    col_sums,
    diagonal,
    prune_explicit_zeros,
    row_scale,
    row_sums,
    scale,
    transpose,
)
from .spgemm import spgemm, spgemm_flops
from .spmm import factored_spmm, spmm
from .spmv import factored_spmv, spmv

__all__ = [
    "CSRMatrix",
    "COOMatrix",
    "from_dense",
    "from_coo",
    "from_scipy",
    "identity",
    "random_csr",
    "selection_matrix",
    "weighted_selection_matrix",
    "factored_selection",
    "cluster_counts",
    "transpose",
    "diagonal",
    "scale",
    "add",
    "row_sums",
    "col_sums",
    "row_scale",
    "prune_explicit_zeros",
    "spmm",
    "spmv",
    "factored_spmm",
    "factored_spmv",
    "spgemm",
    "spgemm_flops",
]
