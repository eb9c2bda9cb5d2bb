"""Pure-pursuit path tracking under Gaussian pose uncertainty.

The package simulates a kinematic bicycle following a line, circle or
waypoint road with two controllers: conventional pure pursuit acting on the
measured pose, and an unscented variant that steers a set of sigma poses and
combines their commands with the transform weights.
"""

from .errors import (
    CoincidentPoints,
    ConfigInvalid,
    DegenerateCenter,
    DegenerateScaling,
    NoForwardIntersection,
    NoIntersection,
    NonPositiveSpeed,
    PathOutOfReach,
    PerpendicularLine,
    RoadGeometryFault,
    TooFewWaypoints,
    UtPursuitError,
    VerticalRoad,
)
from .geometry import (
    Circle,
    Pose,
    StraightLine,
    circle_to_vehicle,
    global_to_vehicle,
    line_to_vehicle,
    normalize_angle,
)
from .pursuit import (
    PursuitConfig,
    cross_track_circle,
    cross_track_line,
    lookahead_distance,
    steering_angle,
)
from .roads import RoadModel, clamp_to_road, lateral_deviation
from .sim import (
    BatchStats,
    Controller,
    RunSummary,
    Scenario,
    TrajectoryRecord,
    run,
    run_batch,
    step_pp,
    step_utpp,
)
from .uncertainty import (
    Covariance3,
    UtParams,
    derive_ut_params,
    generate_sigma_points,
    weighted_steering,
)
from .vehicle import NoiseModel, advance_pose, sample_measured_pose
from .waypoints import (
    WaypointIndex,
    WaypointPath,
    build_index,
    load_waypoints,
    local_road,
    menger_curvature,
    reduce_to_local_road,
    select_lookahead_waypoint,
    select_lookahead_waypoints,
)

__version__ = "0.1.0"

__all__ = [
    "BatchStats",
    "Circle",
    "CoincidentPoints",
    "ConfigInvalid",
    "Controller",
    "Covariance3",
    "DegenerateCenter",
    "DegenerateScaling",
    "NoForwardIntersection",
    "NoIntersection",
    "NoiseModel",
    "NonPositiveSpeed",
    "PathOutOfReach",
    "PerpendicularLine",
    "Pose",
    "PursuitConfig",
    "RoadGeometryFault",
    "RoadModel",
    "RunSummary",
    "Scenario",
    "StraightLine",
    "TooFewWaypoints",
    "TrajectoryRecord",
    "UtParams",
    "UtPursuitError",
    "VerticalRoad",
    "WaypointIndex",
    "WaypointPath",
    "advance_pose",
    "build_index",
    "circle_to_vehicle",
    "clamp_to_road",
    "cross_track_circle",
    "cross_track_line",
    "derive_ut_params",
    "generate_sigma_points",
    "global_to_vehicle",
    "lateral_deviation",
    "line_to_vehicle",
    "load_waypoints",
    "local_road",
    "lookahead_distance",
    "menger_curvature",
    "normalize_angle",
    "reduce_to_local_road",
    "run",
    "run_batch",
    "sample_measured_pose",
    "select_lookahead_waypoint",
    "select_lookahead_waypoints",
    "steering_angle",
    "step_pp",
    "step_utpp",
    "weighted_steering",
]
