"""Exception types shared across the package.

Every error that carries diagnostic payload stores it on the instance so
callers can recover programmatically instead of parsing messages.
"""

from __future__ import annotations


class RootfieldError(Exception):
    """Base class for all package-specific errors."""


class NoConvergence(RootfieldError):
    """Root iteration failed to reach the residual tolerance.

    Attributes:
        worst_residual: largest relative residual |p(x)| / scale(p) observed.
        iterations: number of iterations performed.
    """

    def __init__(self, worst_residual: float, iterations: int):
        self.worst_residual = worst_residual
        self.iterations = iterations
        super().__init__(
            f"root iteration did not converge after {iterations} iterations "
            f"(worst relative residual {worst_residual:.3e})"
        )


class CoefficientOverflow(RootfieldError, ValueError):
    """A coefficient of the expanded product exceeds the double range.

    Attributes:
        degree: degree of the polynomial that was expanded.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"a coefficient of the degree-{degree} product "
                         f"overflows doubles; use the roots instead")


class SingularPoint(RootfieldError):
    """Evaluation requested too close to a pole or stored root."""


class SingularCurve(RootfieldError):
    """A charge lies on (or within guard distance of) the curve polyline."""


class InvalidEpsilon(RootfieldError):
    """Neighborhood radius must be strictly positive."""


class DegenerateHull(RootfieldError):
    """Fewer than three non-collinear points; no 2-D convex domain exists."""


class RootOnContour(RootfieldError):
    """A root sits within the clearance band of the contour samples.

    Attributes:
        min_distance: smallest estimated root distance seen on the samples.
        clearance: clearance that was required.
    """

    def __init__(self, min_distance: float, clearance: float):
        self.min_distance = min_distance
        self.clearance = clearance
        super().__init__(
            f"estimated root distance {min_distance:.3e} is below the "
            f"contour clearance {clearance:.3e}"
        )


class NonIntegerWinding(RootfieldError):
    """Winding number stayed away from an integer after full refinement.

    Attributes:
        winding: the offending total winding / 2 pi.
    """

    def __init__(self, winding: float):
        self.winding = winding
        super().__init__(
            f"winding number {winding:.6f} not within tolerance of an integer "
            f"after maximum refinement"
        )


class ImpossibleCount(NonIntegerWinding):
    """A count no polynomial has inside a circle: below zero, or above
    the degree."""

    def __init__(self, winding: int, degree: int):
        self.winding = winding
        RootfieldError.__init__(self, f"count {winding} is impossible for a "
                                f"degree-{degree} polynomial on this contour")


class GrowBBox(RootfieldError):
    """Indicator is not positive on the bbox border; mask needs a larger box.

    Attributes:
        bbox: the bbox that failed.
        suggested: an enlarged bbox expected to satisfy the far-field check.
    """

    def __init__(self, bbox, suggested):
        self.bbox = bbox
        self.suggested = suggested
        super().__init__(
            f"far-field check failed on bbox {bbox}; retry with {suggested}"
        )


class SingularCell(RootfieldError):
    """A grid cell could not be assigned an indicator sign even after
    subdivision and neighbor fill."""


class SearchExhausted(RootfieldError):
    """No feasible candidate satisfied the certificate conditions."""


class CertificateError(RootfieldError):
    """An internal certificate re-check failed; payload holds the instance.

    Attributes:
        payload: dict describing the instance that violated the certificate.
    """

    def __init__(self, message: str, payload: dict | None = None):
        self.payload = payload or {}
        super().__init__(message)


class BudgetExhausted(RootfieldError):
    """Evaluation budget ran out before all restarts finished.

    Attributes:
        result: the best SearchResult assembled so far (still certified).
    """

    def __init__(self, result):
        self.result = result
        super().__init__("optimization budget exhausted; partial result "
                         "attached")


class ConfigError(RootfieldError):
    """Configuration file or parameter set is invalid."""
