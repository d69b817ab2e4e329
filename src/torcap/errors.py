"""Exception types shared across the package."""


class TorcapError(Exception):
    """Base class for all torcap errors."""


class ParseError(TorcapError):
    """Malformed polygon file (bad fraction, wrong token count, ...)."""


class NotConvex(TorcapError):
    """Vertex list is not a strictly convex counterclockwise polygon."""


class ZeroArea(TorcapError):
    """Vertex list spans no area (all points collinear or coincident)."""


class NoSmoothVertex(TorcapError):
    """Every vertex of the polygon is singular."""


class ChopTooLarge(TorcapError):
    """Corner chop parameter does not fit strictly inside the incident edges."""


class NotEffective(TorcapError):
    """Divisor class contains no effective representative."""


class NotInSW(TorcapError):
    """Divisor is not effective with nonnegative index."""


class NotContractible(TorcapError):
    """Ray cannot be blown down (wrong self-intersection or singular cones)."""


class SingularSurfaceChi(TorcapError):
    """Euler characteristic requested for a non-nef divisor on a singular surface."""


class NotDomainPolygon(TorcapError):
    """Polygon is not a convex domain polygon: no origin vertex with its
    edges along the axes."""


class NotConcave(TorcapError):
    """Region is not a valid concave domain (convex graph touching both axes)."""


class BoxTooSmall(TorcapError):
    """Brute-force search box does not safely contain the optimum."""


class IterationLimit(TorcapError):
    """An iteration that is guaranteed to terminate exceeded its safety cap."""


class IndexTooSmall(TorcapError, ValueError):
    """Capacity index below 0, or horizon k_max below 1.  Also a ValueError,
    so code that catches ValueError for it still does."""


class NonPositiveArea(TorcapError, ValueError):
    """Ellipsoid area that is not positive.  Also a ValueError, so code that
    catches ValueError for it still does."""


class InvalidInput(TorcapError, ValueError):
    """Argument outside what a routine accepts: a zero or non-primitive
    vector, a matrix that is not unimodular, a scale factor that is not
    positive, a fan that is not complete, a coefficient count that differs
    from the ray count, or a divisor or surface failing a procedure's
    precondition.  Also a ValueError, so code that catches ValueError for it
    still does."""
