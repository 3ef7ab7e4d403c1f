"""Exception hierarchy."""


class AbelTraceError(Exception):
    """Base class for all library errors."""


# --- numeric core ---

class ZeroPolynomial(AbelTraceError):
    """Root finding requested on the zero polynomial (or degree < 1)."""


class NonConvergence(AbelTraceError):
    """Iteration cap reached; carries the worst relative residual."""

    def __init__(self, message, worst_residual):
        super().__init__(message)
        self.worst_residual = worst_residual


class EvaluationError(AbelTraceError):
    """A Cauchy circle chart of the shock check failed; its error is the cause."""


class DegreeUndetectable(AbelTraceError):
    """No candidate degree met the residual tolerance.

    ``zero_moments`` is True when every input moment vanished, in which
    case downstream code interprets the data as identically zero.
    """

    def __init__(self, message, zero_moments=False):
        super().__init__(message)
        self.zero_moments = zero_moments


class IllConditioned(AbelTraceError):
    """Linear system condition number beyond the configured cap."""

    def __init__(self, message, condition):
        super().__init__(message)
        self.condition = condition


class OverdeterminedMismatch(AbelTraceError):
    """Samples are not polynomial within the degree bound and tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


# --- geometry ---

class DimensionMismatch(AbelTraceError):
    """Chart shape does not match the variety."""


class DegreeDrop(AbelTraceError):
    """A fiber lost points to infinity (properness violated)."""

    def __init__(self, message, found, expected):
        super().__init__(message)
        self.found = found
        self.expected = expected


class ExcessPoints(AbelTraceError):
    """A resultant solve found more points than its resultant's degree."""


class UnsupportedDimension(AbelTraceError):
    """Operation restricted to small ambient dimension."""


class UnsupportedShape(AbelTraceError):
    """Polynomial system shape outside the supported solver classes."""


# --- residue / trace ---

class ClusterPoint(AbelTraceError):
    """Punctual residue requested at a multiple fiber point, or at a point
    where the plane is not transverse (zero Jacobian)."""

    def __init__(self, message, chart_params=None):
        super().__init__(message)
        self.chart_params = chart_params


class PerturbationFailure(AbelTraceError):
    """Perturbed fibers stayed clustered; cluster residue unavailable."""


class PoleDetected(AbelTraceError):
    """A fiber point sits on the pole divisor of the data weight."""

    def __init__(self, message, chart_params):
        super().__init__(message)
        self.chart_params = chart_params


class TooFewCleanSamples(AbelTraceError):
    """Too many samples were contaminated for downstream fitting."""


# --- radon ---

class InsufficientMargin(AbelTraceError):
    """Domain too small (or parameter frozen) for Cauchy differentiation."""


class PathCrossesPole(AbelTraceError):
    """Trace extension aborted: integrand blows up along the path."""


class InconsistentTraces(AbelTraceError):
    """Trace moments are not generated by rational data of this shape."""

    def __init__(self, message, defect):
        super().__init__(message)
        self.defect = defect
