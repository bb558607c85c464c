"""Quasihyperbolic metric toolkit.

Spaces and proper subdomains with exact boundary distance, boundary-graded
meshes for quasihyperbolic shortest paths, the classical counterexample maps,
Monte-Carlo estimators for mapping properties, and the closed-form constant
pipelines that tie them together.
"""

from .constants import (
    ConstantSet,
    ControlTable,
    chain_constants,
    chain_functions,
    compose_semisolid,
    eta_prime,
    ring_constants,
    semisolid_exponents,
    theta0_relative,
    theta_ring,
)
from .errors import (
    CompositionError,
    ConfigurationError,
    ConnectivityError,
    MembershipError,
    QhkitError,
    ResolutionError,
    ValidationError,
)
from .estimators import (
    PropertyReport,
    SampleSpec,
    estimate_local_weak_qs,
    estimate_qc,
    estimate_relative,
    estimate_ring,
    estimate_semisolid,
    estimate_weak_qs,
    replay_witness,
)
from .maps import (
    AffineMap,
    CompositionMap,
    HalfPlaneShearMap,
    IdentityMap,
    InversionMap,
    MapSpec,
    compose,
    eval_map,
    invert_map,
    pushforward_points,
)
from .qhgraph import (
    AnalyticBackend,
    MeshBackend,
    PathResult,
    QhMesh,
    build_mesh,
    lemma34_check,
    lemma36_check,
    path_qh_length,
    qh_distance,
    qh_distance_exact,
    qh_distance_many,
)
from .spaces import (
    ComponentBall,
    CurveComplexSpace,
    CurveRegion,
    DiskRegion,
    HalfPlaneRegion,
    PlaneSpace,
    PolygonRegion,
    PuncturedPlaneRegion,
    Region,
    Segment,
    SpaceModel,
    ambient_distance,
    boundary_distance,
    component_ball,
    length_distance,
    quasiconvexity_estimate,
)

__version__ = "0.1.0"
