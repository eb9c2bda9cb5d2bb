"""Kinematic bicycle motion update and the noisy pose measurement model.

Measurement noise is independent per axis.  A real localization stack would
filter raw fixes, which is modeled here by one knob only: the measured
position may not deviate laterally from the road by more than
max_lateral_dev (the shipped scenarios use 0.3 m, three sigma of the lateral
noise).  Draws come from a seeded numpy PCG64 generator so runs replay
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose
from .roads import RoadModel, clamp_to_road
from .uncertainty import Covariance3

DEFAULT_MAX_LATERAL_DEV = 0.3

RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Diagonal Gaussian pose noise plus the lateral clamp, with its seed."""

    cov: Covariance3
    max_lateral_dev: float = DEFAULT_MAX_LATERAL_DEV
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_lateral_dev) and self.max_lateral_dev > 0.0):
            raise ValueError(f"max_lateral_dev must be positive, got {self.max_lateral_dev}")

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


def advance_pose(pose: Pose, delta: float, speed: float, dt: float, wheelbase: float) -> Pose:
    """One bicycle-model step of duration dt under steering angle delta.

    The heading change is beta = (speed * dt / wheelbase) * tan(delta); the
    body-frame translation speed * dt * (cos beta, sin beta) is rotated into
    the global frame by the pre-update yaw.  delta must stay inside
    (-pi/2, pi/2), which the steering clamp guarantees upstream.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    arc = speed * dt
    beta = (arc / wheelbase) * math.tan(delta)
    tx = arc * math.cos(beta)
    ty = arc * math.sin(beta)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    return Pose(pose.x + c * tx - s * ty, pose.y + s * tx + c * ty, pose.yaw + beta)


def sample_measured_pose(
    true_pose: Pose, noise: NoiseModel, road: RoadModel, rng: np.random.Generator
) -> Pose:
    """Draw a measured pose around the true one.

    Each axis gets an independent Gaussian perturbation; the position is then
    clamped so its lateral deviation from the road stays within
    noise.max_lateral_dev, and the yaw wraps like any Pose.  A zero
    covariance is a perfect sensor: the true pose comes back untouched, with
    no corridor clamp (the clamp bounds what noise may do, so with none it
    must not distort the measurement).
    """
    if noise.cov.is_zero():
        return true_pose
    x = true_pose.x + rng.normal(0.0, math.sqrt(noise.cov.var_x))
    y = true_pose.y + rng.normal(0.0, math.sqrt(noise.cov.var_y))
    yaw = true_pose.yaw + rng.normal(0.0, math.sqrt(noise.cov.var_yaw))
    x, y = clamp_to_road((x, y), road, noise.max_lateral_dev)
    return Pose(x, y, yaw)
