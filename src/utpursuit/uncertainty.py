"""Sigma-point machinery for propagating pose uncertainty through steering.

The pose covariance is restricted to a diagonal (independent x, y, yaw
noise), so sigma points are axis-aligned perturbations of the mean pose.
The scaled unscented transform with lambda = alpha^2 (dim + kappa) - dim is
used throughout; with the small alpha used by the reference scenarios the
center weight is a large negative number and the off-center weights are
large positive ones, which makes the degenerate all-equal case worth short
circuiting (see weighted_steering).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateScaling
from .geometry import Pose

WEIGHT_SUM_TOL = 1e-9


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
    """Scaled unscented-transform parameters and the weights they induce."""

    dim: int
    alpha: float
    kappa: float
    lam: float
    w0: float
    wi: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.dim + self.lam <= 0.0:
            raise DegenerateScaling(f"dim + lambda must be positive, got {self.dim + self.lam}")
        # Written so that a NaN weight fails the check too.
        if not abs(self.w0 + 2 * self.dim * self.wi - 1.0) <= WEIGHT_SUM_TOL:
            raise DegenerateScaling(
                f"sigma-point weights do not sum to 1 (w0={self.w0}, wi={self.wi}, alpha={self.alpha})"
            )

    @property
    def n_points(self) -> int:
        return 2 * self.dim + 1


def derive_ut_params(dim: int, alpha: float, kappa: float) -> UtParams:
    """Build UtParams from the scaling constants.

    lambda = alpha^2 (dim + kappa) - dim, w0 = lambda / (dim + lambda),
    wi = 1 / (2 (dim + lambda)).  Raises DegenerateScaling when
    alpha^2 (dim + kappa) <= 0, which would put the sigma points at or
    beyond the mean with an undefined spread, and when rounding leaves
    dim + lambda at 0 or weights that miss 1 by more than WEIGHT_SUM_TOL.  For
    dim 3 and kappa 0 that rejects every alpha below about 8.6e-9, some
    between that and about 3.5e-4, and every alpha above about 7.7e153.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    scaled = alpha * alpha * (dim + kappa)
    if scaled <= 0.0:
        raise DegenerateScaling(
            f"alpha^2 (dim + kappa) must be positive, got {scaled} (alpha={alpha}, kappa={kappa})"
        )
    lam = scaled - dim
    denom = dim + lam
    if denom <= 0.0:
        raise DegenerateScaling(
            f"dim + lambda rounds to {denom} (alpha={alpha}, kappa={kappa}); alpha is too small"
        )
    return UtParams(dim=dim, alpha=alpha, kappa=kappa, lam=lam, w0=lam / denom, wi=1.0 / (2.0 * denom))


# The pose UT of the reference scenarios, used where a scenario names no alpha or kappa.
DEFAULT_UT = derive_ut_params(3, 0.001, 0.0)


def generate_sigma_points(mean: Pose, cov: Covariance3, params: UtParams) -> tuple[Pose, ...]:
    """Place seven sigma points around a mean pose for a diagonal covariance.

    Returns the 2 dim + 1 poses as a tuple.  Point 0 is the mean itself.
    Points (1, 2), (3, 4), (5, 6) perturb x, y and yaw by
    +/- sqrt(dim + lambda) * sigma along each axis.  Yaw values wrap into
    (-pi, pi] like every Pose.
    """
    if params.dim != 3:
        raise ValueError(f"pose sigma points need dim = 3, got {params.dim}")
    scale = math.sqrt(params.dim + params.lam)
    sx = scale * math.sqrt(cov.var_x)
    sy = scale * math.sqrt(cov.var_y)
    syaw = scale * math.sqrt(cov.var_yaw)
    return (
        mean,
        Pose(mean.x + sx, mean.y, mean.yaw),
        Pose(mean.x - sx, mean.y, mean.yaw),
        Pose(mean.x, mean.y + sy, mean.yaw),
        Pose(mean.x, mean.y - sy, mean.yaw),
        Pose(mean.x, mean.y, mean.yaw + syaw),
        Pose(mean.x, mean.y, mean.yaw - syaw),
    )


def weighted_steering(
    deltas: Sequence[float], params: UtParams, steering_limit: float | None = None
) -> float:
    """Combine per-sigma-point steering angles: w0 d0 + wi sum(d1..d2n).

    The weights sum to 1, so identical inputs must map to that same value;
    that case returns deltas[0] directly because the large cancelling
    weights would otherwise inject rounding noise.  When steering_limit is
    given the combined angle is clamped to [-limit, limit] silently.
    """
    if len(deltas) != params.n_points:
        raise ValueError(f"expected {params.n_points} steering angles, got {len(deltas)}")
    if not all(math.isfinite(d) for d in deltas):
        raise ValueError("steering angles must be finite")
    first = deltas[0]
    if all(d == first for d in deltas):
        combined = first
    else:
        combined = params.w0 * first + params.wi * math.fsum(deltas[1:])
    if steering_limit is not None:
        combined = max(-steering_limit, min(steering_limit, combined))
    return combined
