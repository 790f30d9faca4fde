"""Invariants of PU(p,q) period domains attached to Hodge decompositions.

Exact (Gaussian-rational / integer) computations of the block parabolic's
root combinatorics and grading, flag-domain membership and projections,
second-homotopy sphere classes, pointwise Higgs-field lemmas, horizontal
2-plane classification, and even 3-colored sphere triangulations.
"""

from .hodge import HodgeNumbers
from .exactla import GaussianRational, Qi
from .rootcalc import (
    ParabolicData,
    RootVector,
    bracket_generating_check,
    parabolic_from_ranks,
)
from .domain import (
    DomainDescriptor,
    Flag,
    describe_domain,
    flag_in_period_domain,
    hodge_flag,
    project_to_symmetric_space,
)
from .pi2 import (
    Pi2Class,
    class_of_root,
    pi2_report,
    pi_u_star,
    superhorizontal_generation_report,
)
from .higgs import (
    HiggsField,
    check_commutation,
    random_commuting_higgs,
    rank_one_lemma_check,
)
from .horizontal import (
    HorizontalVector,
    TwoPlane,
    is_complex_line,
    is_isotropic,
    is_regular,
    stabilizer_dimension,
    su22_embedding,
    verify_pu2n_criterion,
)
from .spheremesh import (
    SphericalTriangulation,
    ThreeColoring,
    gluing_pattern,
    octahedron,
    subdivide,
    three_color,
)

__version__ = "0.1.0"

__all__ = [
    "HodgeNumbers",
    "GaussianRational",
    "Qi",
    "ParabolicData",
    "RootVector",
    "bracket_generating_check",
    "parabolic_from_ranks",
    "DomainDescriptor",
    "Flag",
    "describe_domain",
    "flag_in_period_domain",
    "hodge_flag",
    "project_to_symmetric_space",
    "Pi2Class",
    "class_of_root",
    "pi2_report",
    "pi_u_star",
    "superhorizontal_generation_report",
    "HiggsField",
    "check_commutation",
    "random_commuting_higgs",
    "rank_one_lemma_check",
    "HorizontalVector",
    "TwoPlane",
    "is_complex_line",
    "is_isotropic",
    "is_regular",
    "stabilizer_dimension",
    "su22_embedding",
    "verify_pu2n_criterion",
    "SphericalTriangulation",
    "ThreeColoring",
    "gluing_pattern",
    "octahedron",
    "subdivide",
    "three_color",
    "__version__",
]
