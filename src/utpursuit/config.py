"""Scenario files: INI-style sections with flat key = value pairs.

Angles in files are degrees; everything internal is radians.  Unknown
sections or keys are rejected so typos fail loudly, and every diagnostic
names the offending section.key.  Waypoint file paths resolve relative to
the config file's directory.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

from .errors import ConfigInvalid, TooFewWaypoints, UtPursuitError
from .geometry import Circle, Pose, StraightLine
from .pursuit import DEFAULT_STEERING_LIMIT
from .roads import RoadModel
from .sim import Controller, Scenario
from .uncertainty import DEFAULT_UT, Covariance3, derive_ut_params
from .vehicle import DEFAULT_MAX_LATERAL_DEV, NoiseModel
from .waypoints import DEFAULT_STRAIGHT_EPS, load_waypoints

_ROAD_KEYS = {
    "line": {"type", "slope", "intercept"},
    "circle": {"type", "center_x", "center_y", "radius"},
    "waypoints": {"type", "file", "straight_eps"},
}
_SECTION_KEYS = {
    "vehicle": {"start_x", "start_y", "start_yaw_deg", "speed", "wheelbase", "steering_limit_deg"},
    "sim": {"dt", "steps", "lookahead_gain", "controller", "seed", "paper_literal"},
    "noise": {"enabled", "sigma_x", "sigma_y", "sigma_yaw_deg", "max_lateral_dev"},
    "ut": {"alpha", "kappa"},
}

_REQUIRED = object()


def _get(cp: configparser.ConfigParser, section: str, key: str, default=_REQUIRED) -> str:
    if cp.has_option(section, key):
        return cp.get(section, key)
    if default is _REQUIRED:
        raise ConfigInvalid(f"missing required key '{section}.{key}'")
    return default


def _get_float(cp, section, key, default=_REQUIRED) -> float:
    raw = _get(cp, section, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        value = float(raw)
    except ValueError:
        raise ConfigInvalid(f"'{section}.{key}': expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigInvalid(f"'{section}.{key}': must be finite, got {raw!r}")
    return value


def _get_int(cp, section, key, default=_REQUIRED) -> int:
    raw = _get(cp, section, key, default)
    if not isinstance(raw, str):
        return raw
    try:
        return int(raw)
    except ValueError:
        raise ConfigInvalid(f"'{section}.{key}': expected an integer, got {raw!r}") from None


def _get_bool(cp, section, key, default=_REQUIRED) -> bool:
    raw = _get(cp, section, key, default)
    if not isinstance(raw, str):
        return raw
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigInvalid(f"'{section}.{key}': expected a boolean, got {raw!r}")


def _check_keys(cp: configparser.ConfigParser, section: str, allowed: set[str]) -> None:
    for key in cp.options(section):
        if key not in allowed:
            raise ConfigInvalid(f"unknown key '{section}.{key}'")


def _parse_road(cp: configparser.ConfigParser, base_dir: Path) -> tuple[RoadModel, float]:
    road_type = _get(cp, "road", "type").strip().lower()
    if road_type not in _ROAD_KEYS:
        raise ConfigInvalid(f"'road.type': expected line, circle or waypoints, got {road_type!r}")
    _check_keys(cp, "road", _ROAD_KEYS[road_type])
    straight_eps = DEFAULT_STRAIGHT_EPS
    try:
        if road_type == "line":
            road: RoadModel = StraightLine(
                _get_float(cp, "road", "slope"), _get_float(cp, "road", "intercept")
            )
        elif road_type == "circle":
            road = Circle(
                _get_float(cp, "road", "center_x"),
                _get_float(cp, "road", "center_y"),
                _get_float(cp, "road", "radius"),
            )
        else:
            file_name = _get(cp, "road", "file")
            straight_eps = _get_float(cp, "road", "straight_eps", DEFAULT_STRAIGHT_EPS)
            try:
                road = load_waypoints(str((base_dir / file_name).resolve()))
            except (OSError, ValueError, TooFewWaypoints) as exc:
                raise ConfigInvalid(f"'road.file': {exc}") from None
    except ValueError as exc:
        raise ConfigInvalid(f"[road]: {exc}") from None
    return road, straight_eps


def _get_sigma(cp: configparser.ConfigParser, key: str, default=_REQUIRED) -> float:
    sigma = _get_float(cp, "noise", key, default)
    if sigma < 0.0:
        raise ConfigInvalid(f"'noise.{key}': must be >= 0, got {sigma}")
    return sigma


def _parse_noise(cp: configparser.ConfigParser, seed: int) -> NoiseModel:
    """A missing or disabled [noise] section is the perfect sensor: a zero covariance.

    A disabled section's values are checked as an enabled one's are, but
    there its keys are optional.
    """
    perfect = NoiseModel(Covariance3(0.0, 0.0, 0.0), rng_seed=seed)
    if not cp.has_section("noise"):
        return perfect
    _check_keys(cp, "noise", _SECTION_KEYS["noise"])
    enabled = _get_bool(cp, "noise", "enabled", True)
    default = _REQUIRED if enabled else 0.0
    sigma_x, sigma_y, sigma_yaw_deg = (_get_sigma(cp, k, default) for k in ("sigma_x", "sigma_y", "sigma_yaw_deg"))
    try:
        noise = NoiseModel(
            cov=Covariance3(sigma_x**2, sigma_y**2, math.radians(sigma_yaw_deg) ** 2),
            max_lateral_dev=_get_float(cp, "noise", "max_lateral_dev", DEFAULT_MAX_LATERAL_DEV),
            rng_seed=seed,
        )
    except ValueError as exc:
        raise ConfigInvalid(f"[noise]: {exc}") from None
    return noise if enabled else perfect


def parse_config(path: str) -> Scenario:
    """Read and fully validate a scenario file; raises ConfigInvalid on any problem."""
    cfg_path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True)
    try:
        with open(cfg_path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigInvalid(f"malformed config {path!r}: {exc}") from None

    for section in cp.sections():
        if section not in ("road", "vehicle", "sim", "noise", "ut"):
            raise ConfigInvalid(f"unknown section '[{section}]'")
    for section in ("road", "vehicle", "sim"):
        if not cp.has_section(section):
            raise ConfigInvalid(f"missing required section '[{section}]'")
    _check_keys(cp, "vehicle", _SECTION_KEYS["vehicle"])
    _check_keys(cp, "sim", _SECTION_KEYS["sim"])
    if cp.has_section("ut"):
        _check_keys(cp, "ut", _SECTION_KEYS["ut"])

    road, straight_eps = _parse_road(cp, cfg_path.resolve().parent)

    controller_raw = _get(cp, "sim", "controller").strip().lower()
    try:
        controller = Controller(controller_raw)
    except ValueError:
        raise ConfigInvalid(f"'sim.controller': expected pp or utpp, got {controller_raw!r}") from None

    seed = _get_int(cp, "sim", "seed", 0)
    noise = _parse_noise(cp, seed)

    alpha = _get_float(cp, "ut", "alpha", DEFAULT_UT.alpha)
    kappa = _get_float(cp, "ut", "kappa", DEFAULT_UT.kappa)
    limit_deg = _get_float(cp, "vehicle", "steering_limit_deg", None)
    try:
        ut = derive_ut_params(3, alpha, kappa)
    except UtPursuitError as exc:
        raise ConfigInvalid(f"[ut]: {exc}") from None

    try:
        start = Pose(
            _get_float(cp, "vehicle", "start_x"),
            _get_float(cp, "vehicle", "start_y"),
            math.radians(_get_float(cp, "vehicle", "start_yaw_deg")),
        )
        return Scenario(
            road=road,
            start_pose=start,
            speed=_get_float(cp, "vehicle", "speed"),
            wheelbase=_get_float(cp, "vehicle", "wheelbase"),
            lookahead_gain=_get_float(cp, "sim", "lookahead_gain"),
            dt=_get_float(cp, "sim", "dt"),
            steps=_get_int(cp, "sim", "steps"),
            controller=controller,
            noise=noise,
            ut=ut,
            steering_limit=DEFAULT_STEERING_LIMIT if limit_deg is None else math.radians(limit_deg),
            paper_literal=_get_bool(cp, "sim", "paper_literal", False),
            straight_eps=straight_eps,
        )
    except ValueError as exc:
        raise ConfigInvalid(str(exc)) from None
