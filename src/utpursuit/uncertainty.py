"""Sigma-point machinery for propagating pose uncertainty through steering.

The pose covariance is restricted to a diagonal (independent x, y, yaw
noise), so sigma points are axis-aligned perturbations of the mean pose: the
mean, then one +/- pair per axis.  The scaled unscented transform of the
3-D pose, fixed by alpha and kappa (UtParams), is used throughout; with the
small alpha used by the reference scenarios the center weight is a large
negative number and the off-center weights are large positive ones, which
makes the degenerate all-equal case worth short circuiting (see
weighted_steering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DegenerateScaling
from .geometry import Pose, normalize_angle

WEIGHT_SUM_TOL = 1e-9
POSE_DIM = 3  # x, y and yaw


@dataclass(frozen=True, slots=True)
class Covariance3:
    """Diagonal pose covariance: variances of x (m^2), y (m^2), yaw (rad^2)."""

    var_x: float
    var_y: float
    var_yaw: float

    def __post_init__(self) -> None:
        for name, v in (("var_x", self.var_x), ("var_y", self.var_y), ("var_yaw", self.var_yaw)):
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def is_zero(self) -> bool:
        return self.var_x == 0.0 and self.var_y == 0.0 and self.var_yaw == 0.0


@dataclass(frozen=True, slots=True)
class UtParams:
    """The scaled unscented transform of a 3-D pose: alpha, kappa and the weights they induce.

    lambda = alpha^2 (3 + kappa) - 3, w0 = lambda / (3 + lambda) and
    wi = 1 / (2 (3 + lambda)).  Raises DegenerateScaling when
    alpha^2 (3 + kappa) <= 0, which would put the sigma points at or beyond
    the mean with an undefined spread, and when rounding leaves 3 + lambda
    at 0 or weights that miss 1 by more than WEIGHT_SUM_TOL.  For kappa 0
    that rejects every alpha below about 8.6e-9, some between that and
    about 3.5e-4, and every alpha above about 7.7e153.
    """

    alpha: float
    kappa: float
    lam: float = field(init=False)
    w0: float = field(init=False)
    wi: float = field(init=False)

    def __post_init__(self) -> None:
        scaled = self.alpha * self.alpha * (POSE_DIM + self.kappa)
        if scaled <= 0.0:
            raise DegenerateScaling(
                f"alpha^2 (3 + kappa) must be positive, got {scaled} (alpha={self.alpha}, kappa={self.kappa})"
            )
        lam = scaled - POSE_DIM
        denom = POSE_DIM + lam
        if denom <= 0.0:
            raise DegenerateScaling(
                f"3 + lambda rounds to {denom} (alpha={self.alpha}, kappa={self.kappa}); alpha is too small"
            )
        w0, wi = lam / denom, 1.0 / (2.0 * denom)
        # Written so that a NaN weight fails the check too.
        if not abs(w0 + 2 * POSE_DIM * wi - 1.0) <= WEIGHT_SUM_TOL:
            raise DegenerateScaling(f"sigma-point weights do not sum to 1 (w0={w0}, wi={wi}, alpha={self.alpha})")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "w0", w0)
        object.__setattr__(self, "wi", wi)


def derive_ut_params(dim: int, alpha: float, kappa: float) -> UtParams:
    """UtParams(alpha, kappa), for a pose uncertainty of dimension dim, which must be 3."""
    if dim != POSE_DIM:
        raise ValueError(f"pose uncertainty has dimension {POSE_DIM}, got {dim}")
    return UtParams(alpha, kappa)


# The pose UT of the reference scenarios, used where a scenario names no alpha or kappa.
DEFAULT_UT = UtParams(0.001, 0.0)


def generate_sigma_points(
    mean: Pose, cov: Covariance3, params: UtParams
) -> tuple[tuple[float, float, float], ...]:
    """Place seven sigma points around a mean pose for a diagonal covariance.

    Returns the seven points as (x, y, yaw) triples.  Point 0 is the mean
    itself.  Points (1, 2), (3, 4), (5, 6) perturb x, y and yaw by
    +/- sqrt(3 + lambda) * sigma along each axis.  Each triple holds what a
    Pose of the unwrapped values would: a perturbation that overflows raises
    Pose's ValueError, and the perturbed yaws wrap into (-pi, pi] (the mean's
    yaw is already wrapped, and wrapping leaves it as it is).
    """
    scale = math.sqrt(POSE_DIM + params.lam)
    sx = scale * math.sqrt(cov.var_x)
    sy = scale * math.sqrt(cov.var_y)
    syaw = scale * math.sqrt(cov.var_yaw)
    x, y, yaw = mean.x, mean.y, mean.yaw
    points = (
        (x, y, yaw),
        (x + sx, y, yaw),
        (x - sx, y, yaw),
        (x, y + sy, yaw),
        (x, y - sy, yaw),
        (x, y, yaw + syaw),
        (x, y, yaw - syaw),
    )
    # The mean is a finite, wrapped Pose, so only the perturbed field of a
    # point can overflow, and only the perturbed yaws need wrapping.
    for axis, point in zip((0, 0, 1, 1, 2, 2), points[1:]):
        if not math.isfinite(point[axis]):
            raise ValueError(f"pose fields must be finite, got {point}")
    return (*points[:5], (x, y, normalize_angle(points[5][2])), (x, y, normalize_angle(points[6][2])))


def weighted_steering(
    deltas: Sequence[float], params: UtParams, steering_limit: float | None = None
) -> float:
    """Combine per-sigma-point steering angles: w0 d0 + wi sum(d1..d2n).

    The weights sum to 1, so identical inputs must map to that same value;
    that case returns deltas[0] directly because the large cancelling
    weights would otherwise inject rounding noise.  When steering_limit is
    given the combined angle is clamped to [-limit, limit] silently.
    """
    if len(deltas) != 2 * POSE_DIM + 1:
        raise ValueError(f"expected {2 * POSE_DIM + 1} steering angles, got {len(deltas)}")
    if not all(map(math.isfinite, deltas)):
        raise ValueError("steering angles must be finite")
    first = deltas[0]
    if deltas.count(first) == len(deltas):
        combined = first
    else:
        combined = params.w0 * first + params.wi * math.fsum(deltas[1:])
    if steering_limit is not None:
        combined = max(-steering_limit, min(steering_limit, combined))
    return combined
