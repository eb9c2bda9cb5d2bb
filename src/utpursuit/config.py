"""Scenario files: INI-style sections with flat key = value pairs.

Angles in files are degrees; everything internal is radians.  Unknown
sections or keys are rejected so typos fail loudly, and every diagnostic
names the offending section.key.  Every value goes through one reader, _get,
which parses it as a string, a finite float, an int or one of configparser's
eight boolean words, and returns an absent key's default as it is.  Waypoint
file paths resolve relative to the config file's directory.
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
from .uncertainty import DEFAULT_UT, Covariance3, UtParams
from .vehicle import DEFAULT_MAX_LATERAL_DEV, NoiseModel
from .waypoints import load_waypoints

_ROAD_KEYS = {
    "line": {"type", "slope", "intercept"},
    "circle": {"type", "center_x", "center_y", "radius"},
    "waypoints": {"type", "file"},
}
_SECTION_KEYS = {
    "vehicle": {"start_x", "start_y", "start_yaw_deg", "speed", "wheelbase", "steering_limit_deg"},
    "sim": {"dt", "steps", "lookahead_gain", "controller", "seed", "paper_literal"},
    "noise": {"enabled", "sigma_x", "sigma_y", "sigma_yaw_deg", "max_lateral_dev"},
    "ut": {"alpha", "kappa"},
}

_REQUIRED = object()


def _boolean(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# What each value parser expects, as named in its error.
_EXPECTED = {float: "a number", int: "an integer", _boolean: "a boolean"}


def _get(cp: configparser.ConfigParser, section: str, key: str, parse=str, default=_REQUIRED):
    """The value of section.key read by parse, or default (returned as is) when the key is absent."""
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigInvalid(f"missing required key '{section}.{key}'")
        return default
    raw = cp.get(section, key)
    try:
        value = parse(raw)
    except (KeyError, ValueError):
        raise ConfigInvalid(f"'{section}.{key}': expected {_EXPECTED[parse]}, got {raw!r}") from None
    if parse is float and not math.isfinite(value):
        raise ConfigInvalid(f"'{section}.{key}': must be finite, got {raw!r}")
    return value


def _check_keys(cp: configparser.ConfigParser, section: str, allowed: set[str]) -> None:
    for key in cp.options(section):
        if key not in allowed:
            raise ConfigInvalid(f"unknown key '{section}.{key}'")


def _parse_road(cp: configparser.ConfigParser, base_dir: Path) -> RoadModel:
    road_type = _get(cp, "road", "type").strip().lower()
    if road_type not in _ROAD_KEYS:
        raise ConfigInvalid(f"'road.type': expected line, circle or waypoints, got {road_type!r}")
    _check_keys(cp, "road", _ROAD_KEYS[road_type])
    try:
        if road_type == "line":
            road: RoadModel = StraightLine(
                _get(cp, "road", "slope", float), _get(cp, "road", "intercept", float)
            )
        elif road_type == "circle":
            road = Circle(
                _get(cp, "road", "center_x", float),
                _get(cp, "road", "center_y", float),
                _get(cp, "road", "radius", float),
            )
        else:
            file_name = _get(cp, "road", "file")
            try:
                road = load_waypoints(str((base_dir / file_name).resolve()))
            except (OSError, ValueError, TooFewWaypoints) as exc:
                raise ConfigInvalid(f"'road.file': {exc}") from None
    except ValueError as exc:
        raise ConfigInvalid(f"[road]: {exc}") from None
    return road


def _get_sigma(cp: configparser.ConfigParser, key: str, default=_REQUIRED) -> float:
    sigma = _get(cp, "noise", key, float, default)
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
    enabled = _get(cp, "noise", "enabled", _boolean, True)
    default = _REQUIRED if enabled else 0.0
    sigma_x, sigma_y, sigma_yaw_deg = (_get_sigma(cp, k, default) for k in ("sigma_x", "sigma_y", "sigma_yaw_deg"))
    try:
        noise = NoiseModel(
            cov=Covariance3(sigma_x**2, sigma_y**2, math.radians(sigma_yaw_deg) ** 2),
            max_lateral_dev=_get(cp, "noise", "max_lateral_dev", float, DEFAULT_MAX_LATERAL_DEV),
            rng_seed=seed,
        )
    except ValueError as exc:
        raise ConfigInvalid(f"[noise]: {exc}") from None
    return noise if enabled else perfect


def parse_config(path: str) -> Scenario:
    """Read and fully validate a UTF-8 scenario file (BOM or not); raises ConfigInvalid on any problem."""
    cfg_path = Path(path)
    # Values are read as written: a "%" is a character, not an interpolation.
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), strict=True, interpolation=None)
    try:
        with open(cfg_path, encoding="utf-8-sig") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
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

    road = _parse_road(cp, cfg_path.resolve().parent)

    controller_raw = _get(cp, "sim", "controller").strip().lower()
    try:
        controller = Controller(controller_raw)
    except ValueError:
        raise ConfigInvalid(f"'sim.controller': expected pp or utpp, got {controller_raw!r}") from None

    seed = _get(cp, "sim", "seed", int, 0)
    noise = _parse_noise(cp, seed)

    alpha = _get(cp, "ut", "alpha", float, DEFAULT_UT.alpha)
    kappa = _get(cp, "ut", "kappa", float, DEFAULT_UT.kappa)
    limit_deg = _get(cp, "vehicle", "steering_limit_deg", float, None)
    try:
        ut = UtParams(alpha, kappa)
    except UtPursuitError as exc:
        raise ConfigInvalid(f"[ut]: {exc}") from None

    start = Pose(
        _get(cp, "vehicle", "start_x", float),
        _get(cp, "vehicle", "start_y", float),
        math.radians(_get(cp, "vehicle", "start_yaw_deg", float)),
    )
    return Scenario(
        road=road,
        start_pose=start,
        speed=_get(cp, "vehicle", "speed", float),
        wheelbase=_get(cp, "vehicle", "wheelbase", float),
        lookahead_gain=_get(cp, "sim", "lookahead_gain", float),
        dt=_get(cp, "sim", "dt", float),
        steps=_get(cp, "sim", "steps", int),
        controller=controller,
        noise=noise,
        ut=ut,
        steering_limit=DEFAULT_STEERING_LIMIT if limit_deg is None else math.radians(limit_deg),
        paper_literal=_get(cp, "sim", "paper_literal", _boolean, False),
    )
