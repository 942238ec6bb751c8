"""Kobayashi and Wu metrics on convex egg domains in C^n.

Core objects: the egg ``DomainParams(m, n)``, its strata (``RegionLabel``),
the Kobayashi metric and its indicatrix K-curves, the minimal-ellipsoid Wu
fit, the region-wise Wu tensor with curvature, and regularity probes across
the thin strata.
"""

from .domain import (
    DomainParams,
    RegionLabel,
    classify_region,
    egg_automorphism,
    automorphism_jacobian,
    defining_function,
    minkowski_gauge,
    reference_coordinate,
    seam_distance,
)
from .errors import (
    ConfigurationError,
    DomainError,
    EggMetricsError,
    NumericalError,
    SeamProximityError,
)
from .kobayashi import (
    Branch,
    BranchParams,
    branch_params,
    kobayashi,
    kobayashi_alt_upper,
    kobayashi_reference,
    kobayashi_reference_sq,
    kobayashi_sq,
    solve_alpha,
)
from .kcurve import (
    Convexity,
    ConvexityVerdict,
    JoiningPointDerivatives,
    KCurveSample,
    joining_point,
    joining_point_derivatives,
    kcurve_alpha_grid,
    kcurve_alpha_range,
    kcurve_sample,
    square_convexity_check,
    third_derivative_reference,
)
from .fitting import (
    ContactPoint,
    WuEllipsoidDiag,
    containment_violation,
    contact_point,
    fit_oracle,
    fit_origin,
    fit_reference,
    solve_X,
)
from .tensor import HermitianForm, kahler_defect, pullback_tensor, wu_norm, wu_tensor
from .curvature import (
    CurvatureScanRecord,
    CurvatureTensor,
    GridSpec,
    curvature_scan,
    curvature_tensor,
    direction_sample,
    holomorphic_curvature,
)
from .smoothness import (
    STEP_SCALES,
    SmoothnessReport,
    derivative_jump,
    holder_exponent,
    regularity_scan,
)

__version__ = "0.1.0"

__all__ = [
    "DomainParams", "RegionLabel", "classify_region", "egg_automorphism",
    "automorphism_jacobian", "defining_function", "minkowski_gauge",
    "reference_coordinate", "seam_distance",
    "EggMetricsError", "DomainError", "ConfigurationError", "NumericalError",
    "SeamProximityError",
    "Branch", "BranchParams", "branch_params", "solve_alpha",
    "kobayashi", "kobayashi_sq", "kobayashi_reference", "kobayashi_reference_sq",
    "kobayashi_alt_upper",
    "KCurveSample", "JoiningPointDerivatives", "Convexity", "ConvexityVerdict",
    "kcurve_sample", "kcurve_alpha_range", "kcurve_alpha_grid", "joining_point",
    "joining_point_derivatives", "third_derivative_reference", "square_convexity_check",
    "WuEllipsoidDiag", "ContactPoint", "solve_X", "fit_reference", "fit_origin",
    "fit_oracle", "contact_point", "containment_violation",
    "HermitianForm", "wu_tensor", "pullback_tensor", "wu_norm", "kahler_defect",
    "CurvatureTensor", "CurvatureScanRecord", "GridSpec",
    "curvature_tensor", "holomorphic_curvature", "curvature_scan", "direction_sample",
    "SmoothnessReport", "STEP_SCALES", "holder_exponent", "derivative_jump",
    "regularity_scan",
    "__version__",
]
