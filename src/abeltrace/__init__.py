"""abeltrace: algebraic traces and the Abel-Radon transform of rational
residue data on complete intersections, with inverse reconstruction of the
defining polynomials and numerator from trace moments."""

from .errors import (
    AbelTraceError,
    ClusterPoint,
    DegreeDrop,
    DegreeUndetectable,
    DimensionMismatch,
    EvaluationError,
    IllConditioned,
    InconsistentTraces,
    InsufficientMargin,
    NonConvergence,
    OverdeterminedMismatch,
    PathCrossesPole,
    PerturbationFailure,
    PoleDetected,
    TooFewCleanSamples,
    UnsupportedDimension,
    UnsupportedShape,
    ZeroPolynomial,
)
from .geometry import (
    Charts,
    DomainSpec,
    Fiber,
    FiberPoint,
    PlaneChart,
    ResidueData,
    VarietySpec,
    full_jacobian,
    hypersurface_section,
    lift_residue_data,
    plane_substitute,
    solve_bivariate,
    solve_fiber,
    veronese_lift,
)
from .multipoly import MultiPoly
from .numeric import (
    PolyFit,
    UniPoly,
    cauchy_derivative,
    poly_interpolate,
    poly_roots,
)
from .radon import (
    AffineMap,
    RadonTransform,
    propagate_trace_extension,
    radon_coefficients,
    radon_labels,
    reparametrize_check,
    verify_holomorphy,
    verify_shock_relations,
)
from .reconstruct import (
    MinimalPolySet,
    ReconstructedData,
    fit_minimal_polys,
    reconstruct_global,
    reconstruct_numerator,
    verify_traces_match,
)
from .residues import (
    GridPlan,
    ListPlan,
    TorusPlan,
    TraceTable,
    clustered_residue,
    hypersurface_trace,
    moment_sign,
    punctual_residue,
    trace,
    trace_table,
)

__version__ = "0.1.0"
