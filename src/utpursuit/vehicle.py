"""Kinematic bicycle motion update and the noisy pose measurement model.

Measurement noise is independent per axis.  A real localization stack would
filter raw fixes, which is modeled here by one knob only: the measured
position may not deviate laterally from the road by more than
max_lateral_dev (the shipped scenarios use 0.3 m, three sigma of the lateral
noise).  Draws come from a seeded numpy PCG64 generator so runs replay
bit-for-bit: each run takes its steps x 3 standard normals in one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import checked_pose
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

    def draws(self, steps: int) -> list[list[float]] | None:
        """A run's standard-normal draws, one (x, y, yaw) triple per step.

        One steps x 3 block from the seeded generator: the same stream, in the
        same order, as one scalar draw per axis per step.  A zero covariance is
        a perfect sensor, which draws nothing: None, and no generator is built.
        """
        if self.cov.is_zero():
            return None
        return self.make_rng().standard_normal((steps, 3)).tolist()


def advance_pose(
    pose: tuple[float, float, float], delta: float, speed: float, dt: float, wheelbase: float
) -> tuple[float, float, float]:
    """One bicycle-model step of duration dt under steering angle delta.

    The pose is an (x, y, yaw) triple, and so is the result, checked and
    wrapped as a Pose is (geometry.checked_pose).  The heading change is
    beta = (speed * dt / wheelbase) * tan(delta); the body-frame translation
    speed * dt * (cos beta, sin beta) is rotated into the global frame by
    the pre-update yaw.  delta must stay inside (-pi/2, pi/2), which the
    steering clamp guarantees upstream.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    x, y, yaw = pose
    arc = speed * dt
    beta = (arc / wheelbase) * math.tan(delta)
    tx = arc * math.cos(beta)
    ty = arc * math.sin(beta)
    c, s = math.cos(yaw), math.sin(yaw)
    return checked_pose(x + c * tx - s * ty, y + s * tx + c * ty, yaw + beta)


def sample_measured_pose(
    true_pose: tuple[float, float, float], noise: NoiseModel, road: RoadModel, draw: Sequence[float] | None
) -> tuple[float, float, float]:
    """The measured (x, y, yaw) around the true one, from one step's triple of NoiseModel.draws.

    Each axis adds its standard deviation times its standard normal, in
    numpy's normal(0.0, sigma) operation order, 0.0 + sigma * g, so the value
    and the sign of a zero equal a scalar draw's.  The position is then
    clamped so its lateral deviation from the road stays within
    noise.max_lateral_dev, and the result is checked and wrapped as a Pose
    is.  No draw (None) is a perfect sensor: the true pose comes back
    untouched, the very triple given, with no corridor clamp (the clamp
    bounds what noise may do, so with none it must not distort the
    measurement).
    """
    if draw is None:
        return true_pose
    x, y, yaw = true_pose
    cov = noise.cov
    x = x + (0.0 + cov.sd_x * draw[0])
    y = y + (0.0 + cov.sd_y * draw[1])
    yaw = yaw + (0.0 + cov.sd_yaw * draw[2])
    x, y = clamp_to_road((x, y), road, noise.max_lateral_dev)
    return checked_pose(x, y, yaw)
