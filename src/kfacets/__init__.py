"""Exact enumeration of k-sets and k-facets of lifted point sets."""

from .errors import DegeneracyError, GenerationError, InputError
from .facelab import (
    FaceCertificate,
    RadonWitness,
    embedding_face_certificate,
    face_certificate,
    is_weakly_k_neighborly,
    neighborliness_degree,
    radon_partition,
    veronese_certifier,
)
from .facets import (
    KFacetProfile,
    KSetFamily,
    OrientedFacet,
    enumerate_k_facets,
    enumerate_k_sets,
    k_facet_profile,
    k_set_counts,
)
from .formulas import (
    FORMULAS,
    CountFormula,
    circle_count,
    conic_count,
    convex_3d_count,
    generally_neighborly_dim,
    homogeneous_count,
    neighborly_e_k,
)
from .genpos import (
    check_distinct_first_coordinate,
    convex_position_set,
    random_point_set,
)
from .geometry import (
    Hyperplane,
    PointSet,
    is_general_linear_position,
    point_set,
    rational,
)
from .liftmaps import (
    MonomialMap,
    circle_map,
    homogeneous_veronese,
    moment_curve,
    neighborly_embedding,
    veronese,
)
from .projection import census, stereographic_project

__version__ = "0.1.0"
