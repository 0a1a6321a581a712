"""Seven-parameter yield criterion for frictional and quasibrittle materials.

Evaluation, exact stress gradients, convexity certification, reductions to
the classical criteria, section sampling and calibration to experimental
yield data, all in the Haigh-Westergaard (principal stress) setting.
"""

import importlib

from .errors import (
    CornerCase,
    DegenerateDirection,
    DegenerateState,
    DomainError,
    EmptySlice,
    InsufficientData,
    NonConvexSlice,
    OutsideCap,
    ParseError,
    ShapeMismatch,
    UnboundedDomain,
    ValidationError,
    YieldCritError,
)
from .invariants import (
    DeviatoricFrame,
    Invariants,
    deviatoric_frame,
    invariant_gradients,
    invariants,
    invariants_array,
    principal_from_invariants,
)
from .criterion import (
    CapMeridian,
    CosineLode,
    Criterion,
    GradientDecomposition,
    GudehusArgyris,
    LinearMeridian,
    PowerLaw,
    WillamWarnke,
    YieldParams,
    beta_bound,
    criterion_from_dict,
    deviatoric_g,
    gradient,
    meridian_f,
    normal_limits,
    powerlaw_beta_max,
    surface_q,
    surface_q_array,
    yield_value,
    yield_value_array,
)
from .convexity import (
    ConvexityReport,
    certify,
    deviatoric_curvature,
    hessian_qg,
    nonconvex_demo,
)
from .limits import (
    CoulombMohr,
    DruckerPrager,
    LimitRealization,
    ModifiedCamClay,
    ModifiedTresca,
    Tresca,
    VonMises,
    bp_to_deshpande_fleck,
    coulomb_mohr_generalized,
    deshpande_fleck_to_bp,
    gurson_equivalent,
    gurson_meridian_q,
    gurson_yield,
    newman_invariants,
    newman_strength,
    realize,
)

# The calibration and section modules compute over numpy arrays.  Their
# names, and the submodules themselves, load on first use (PEP 562), so
# ``import yieldcrit`` and the scalar CLI commands never import numpy.
_LAZY = {
    **dict.fromkeys(
        ("FitDataset", "FitProblem", "FitResult", "FitStart", "fit", "goodness", "load_dataset",
         "residuals"),
        "calibration",
    ),
    **dict.fromkeys(
        ("SectionCurve", "curve_to_csv", "curve_to_svg", "normalized_residual", "polygon_is_convex",
         "sample_biaxial", "sample_deviatoric", "sample_meridian"),
        "sections",
    ),
    **{module: module for module in ("calibration", "sections", "trf")},
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if _LAZY[name] == name else getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


__version__ = "1.0.0"

__all__ = [
    "CapMeridian",
    "ConvexityReport",
    "CornerCase",
    "CosineLode",
    "CoulombMohr",
    "Criterion",
    "DegenerateDirection",
    "DegenerateState",
    "DeviatoricFrame",
    "DomainError",
    "DruckerPrager",
    "EmptySlice",
    "FitDataset",
    "FitProblem",
    "FitResult",
    "FitStart",
    "GradientDecomposition",
    "GudehusArgyris",
    "InsufficientData",
    "Invariants",
    "LimitRealization",
    "LinearMeridian",
    "ModifiedCamClay",
    "ModifiedTresca",
    "NonConvexSlice",
    "OutsideCap",
    "ParseError",
    "PowerLaw",
    "SectionCurve",
    "ShapeMismatch",
    "Tresca",
    "UnboundedDomain",
    "ValidationError",
    "VonMises",
    "WillamWarnke",
    "YieldCritError",
    "YieldParams",
    "beta_bound",
    "bp_to_deshpande_fleck",
    "certify",
    "coulomb_mohr_generalized",
    "criterion_from_dict",
    "curve_to_csv",
    "curve_to_svg",
    "deshpande_fleck_to_bp",
    "deviatoric_curvature",
    "deviatoric_frame",
    "deviatoric_g",
    "fit",
    "goodness",
    "gradient",
    "gurson_equivalent",
    "gurson_meridian_q",
    "gurson_yield",
    "hessian_qg",
    "invariant_gradients",
    "invariants",
    "invariants_array",
    "load_dataset",
    "meridian_f",
    "newman_invariants",
    "newman_strength",
    "nonconvex_demo",
    "normal_limits",
    "normalized_residual",
    "polygon_is_convex",
    "powerlaw_beta_max",
    "principal_from_invariants",
    "realize",
    "residuals",
    "sample_biaxial",
    "sample_deviatoric",
    "sample_meridian",
    "surface_q",
    "surface_q_array",
    "yield_value",
    "yield_value_array",
]
