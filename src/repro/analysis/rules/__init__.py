"""The syntactic house rules (pure-AST, no package import needed)."""

from .dense import DenseMaterialisationRule, PairwiseUpcastRule
from .discipline import ErrorDisciplineRule, PickleBanRule, SingleCSRKernelRule
from .nondeterminism import NondeterminismRule
from .obs_names import ObsNamingRule

__all__ = [
    "DenseMaterialisationRule",
    "ErrorDisciplineRule",
    "PickleBanRule",
    "ObsNamingRule",
    "NondeterminismRule",
    "SingleCSRKernelRule",
    "PairwiseUpcastRule",
    "syntactic_rules",
]


def syntactic_rules():
    """Fresh instances of every syntactic rule (order = rule id)."""
    return [
        DenseMaterialisationRule(),
        ErrorDisciplineRule(),
        PickleBanRule(),
        ObsNamingRule(),
        NondeterminismRule(),
        SingleCSRKernelRule(),
        PairwiseUpcastRule(),
    ]
