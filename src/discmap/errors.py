"""Exception types shared across the package.

Each class marks one failure mode of the pipeline; the CLI maps them to
exit codes (input errors vs. numerical failures vs. indeterminate checks).
"""


class DiscmapError(Exception):
    """Base class for all package errors."""


class DomainParseError(DiscmapError):
    """Domain description is structurally invalid (missing keys, bad types)."""


class DegenerateGeometry(DiscmapError):
    """Polygon is self-intersecting, has a spike or a repeated vertex, or
    encloses zero area."""


class EmptyInterior(DiscmapError):
    """No interior point was found when trying to move the origin inside."""


class EmptyGrid(DiscmapError):
    """No dyadic square of the requested size fits inside the domain."""


class OriginOnBoundary(DiscmapError):
    """The origin is not strictly interior to the covered grid region."""


class NoConvergence(DiscmapError):
    """Iterative linear solve stopped short of its tolerance, or its result
    failed the residual check."""


class ProbeTooClose(DiscmapError):
    """Boundary probe point is not strictly outside the covered region."""


class MonodromyDetected(DiscmapError):
    """Single-valued logarithm assembly failed its cycle-closure check."""


class ClosureFailure(DiscmapError):
    """Conjugate-field path integrals disagree beyond the allowed residual."""


class OutsideGrid(DiscmapError):
    """Evaluation point lies in no grid cell."""


class TooCoarse(DiscmapError):
    """Counting precondition failed: probe too close to the image of the rim."""


class IndeterminateWinding(DiscmapError):
    """Winding total stayed away from an integer even after grid shifts."""


class NewtonStalled(DiscmapError):
    """Inversion found no preimage of w to its residual target on the
    cells at its start node, the node whose value lies nearest w.  The
    name is that of the Newton solver the exact cell solve replaced.

    Carries the start node's point in ``best`` and its |H - w| in
    ``residual``.
    """

    def __init__(self, message: str, best, residual: float):
        super().__init__(message)
        self.best = best  # (x, y) pair
        self.residual = residual
