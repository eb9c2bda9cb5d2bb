"""Exception types shared across the package.

``RoadGeometryFault`` subclasses, CoincidentPoints in a local waypoint triple
among them, are recoverable per-step conditions: the simulation loop catches
them, holds the previous steering command and keeps going.  Everything else
signals invalid inputs and is raised eagerly.
"""


class UtPursuitError(Exception):
    """Base class for all package-specific errors."""


class ConfigInvalid(UtPursuitError):
    """A configuration file or scenario field failed validation."""


class DegenerateScaling(UtPursuitError):
    """Unscented-transform scaling gives a non-positive dim + lambda, or weights
    that do not sum to 1 in floating point."""


class NonPositiveSpeed(UtPursuitError):
    """Look-ahead distance requested for speed <= 0."""


class TooFewWaypoints(UtPursuitError):
    """A waypoint path needs at least three points."""


class RoadGeometryFault(UtPursuitError):
    """Base class for recoverable per-step geometric faults."""


class CoincidentPoints(RoadGeometryFault):
    """Curvature of three points is undefined when two of them coincide."""


class PerpendicularLine(RoadGeometryFault):
    """The road line is perpendicular to the vehicle axis; slope form breaks down."""


class PathOutOfReach(RoadGeometryFault):
    """The look-ahead circle does not reach the road line."""


class NoForwardIntersection(RoadGeometryFault):
    """The road intersects the look-ahead circle only behind the rear axle."""


class NoIntersection(RoadGeometryFault):
    """The look-ahead circle and the road circle do not intersect."""


class DegenerateCenter(RoadGeometryFault):
    """The road circle center coincides with the rear axle; bearing undefined."""


class VerticalRoad(RoadGeometryFault):
    """A fitted local road line is too close to vertical for slope-intercept form."""
