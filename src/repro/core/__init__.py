"""The paper's contribution: matrix-centric Kernel K-means (Popcorn)."""

from .assignment import ConvergenceTracker, argmin_assign, objective_value
from .distances import (
    distance_matrix_reference,
    popcorn_distance_step,
    popcorn_distances_host,
)
from .intensity import distances_intensity, kernel_matrix_intensity
from .norms import (
    centroid_norms_reference,
    centroid_norms_spgemm,
    centroid_norms_spmv,
    gather_z,
)
from .onthefly import OnTheFlyKernelKMeans, model_onthefly
from .popcorn import PopcornKernelKMeans
from .selection import build_selection, selection_dense, verify_selection_invariants
from .weighted import WeightedPopcornKernelKMeans, weighted_selection_matrix

__all__ = [
    "PopcornKernelKMeans",
    "OnTheFlyKernelKMeans",
    "model_onthefly",
    "WeightedPopcornKernelKMeans",
    "weighted_selection_matrix",
    "build_selection",
    "selection_dense",
    "verify_selection_invariants",
    "distance_matrix_reference",
    "popcorn_distances_host",
    "popcorn_distance_step",
    "centroid_norms_spmv",
    "centroid_norms_spgemm",
    "centroid_norms_reference",
    "gather_z",
    "argmin_assign",
    "objective_value",
    "ConvergenceTracker",
    "kernel_matrix_intensity",
    "distances_intensity",
]
