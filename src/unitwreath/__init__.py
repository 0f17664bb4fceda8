"""Wreath-product sections in normalized unit groups of 2-group algebras.

Constructs and mechanically verifies, for a finite non-abelian 2-group G
with cyclic derived subgroup and a central involution outside it, a section
of V(KG) (char K = 2) isomorphic to the regular wreath product C2 wr G'.
"""

from .construct import (
    HypothesisReport,
    PipelineResult,
    SectionReport,
    Witness,
    check_hypotheses,
    run_pipeline,
)
from .grpalg import AlgebraElement, GroupAlgebra
from .kernels import IMPL as KERNEL_IMPL
from .oracle import WreathModel, bfs_closure, isomorphic_small, reference_wreath
from .pcgroup import FiniteGroup, PcPresentation, load, load_file

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "FiniteGroup",
    "GroupAlgebra",
    "HypothesisReport",
    "KERNEL_IMPL",
    "PcPresentation",
    "PipelineResult",
    "SectionReport",
    "Witness",
    "WreathModel",
    "bfs_closure",
    "check_hypotheses",
    "isomorphic_small",
    "load",
    "load_file",
    "reference_wreath",
    "run_pipeline",
]
