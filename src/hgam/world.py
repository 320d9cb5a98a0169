"""World model: configuration, domain state, scenario generation, shared geometry.

Positions are 2D; the nominal 16x16x3 workspace is flattened to a plane
because UAVs fly at separated altitudes (no UAV/UAV collisions) while
obstacles span all altitudes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, InfeasibleScenarioError

MUAV = "muav"
CUAV = "cuav"

# Obstacle radii are drawn uniformly from this range (length-units).
OBSTACLE_RADIUS_RANGE = (0.4, 0.8)
# Rejection-sampling budget for obstacle placement.
PLACEMENT_ATTEMPTS = 10_000


@dataclass(frozen=True)
class WorldConfig:
    """Flat scenario + reward configuration; field names match the config file keys."""

    area_width: float = 16.0
    area_height: float = 16.0
    num_muavs: int = 2
    num_cuavs: int = 1
    num_pois: int = 100
    num_obstacles: int = 6
    sense_radius: float = 1.0
    charge_radius: float = 1.5
    view_range: float = 4.0
    uav_radius: float = 0.2
    step_length: float = 0.13
    collect_rate: float = 0.2
    max_steps: int = 700
    initial_energy: float = 50.0      # Er0
    charge_per_step: float = 0.5      # e0, energy quantum per charging step
    e_max: float = 50.0               # normalisation cap for charged energy
    beta: float = 1.0                 # energy per unit data collected
    kappa: float = 1.0                # energy per unit distance travelled
    num_lasers: int = 16
    laser_warn_dist: float = 0.5
    # reward weights
    w_c: float = 0.5
    w_l: float = 0.02
    w_e: float = 1.6
    w_f: float = 0.5
    w_d: float = 0.1
    discovery_bonus: float = 0.1
    rotation_penalty: float = 0.5
    plow: float = 2.0
    collision_penalty: float = 100.0
    laser_penalty: float = 2.0
    # ablation switches
    global_view: bool = False         # widen the field of view to the arena diagonal
    comm_radius: float | None = None  # optional cap on graph-neighbor eligibility

    @property
    def num_uavs(self) -> int:
        return self.num_muavs + self.num_cuavs

    @property
    def kinds(self) -> list[str]:
        """The fleet order every agent index follows: MUAVs, then CUAVs."""
        return [MUAV] * self.num_muavs + [CUAV] * self.num_cuavs

    @property
    def fov(self) -> float:
        """Effective field-of-view range; the arena diagonal under global_view."""
        if self.global_view:
            return math.hypot(self.area_width, self.area_height)
        return self.view_range

    def __post_init__(self):
        check_field_types(self)
        positive = [
            "area_width", "area_height", "sense_radius", "charge_radius",
            "view_range", "uav_radius", "step_length",
            "initial_energy", "e_max",
        ]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("area_width", "area_height"):
            side, r = getattr(self, name), self.uav_radius
            if 2.0 * r > side:   # no start position fits the UAV
                # name the field moved off its default; a radius, if both were
                if r != WorldConfig.uav_radius:
                    raise ConfigError(f"uav_radius must be <= {name} / 2 = "
                                      f"{side / 2.0}, got {r}")
                raise ConfigError(f"{name} must be >= 2 * uav_radius = {2.0 * r}, "
                                  f"got {side}")
        if self.view_range < self.sense_radius:
            raise ConfigError("view_range must be >= sense_radius")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be >= 1")
        if not 0.0 <= self.w_f <= 1.0:
            raise ConfigError("w_f must lie in [0, 1]")
        for name in ("num_muavs", "num_cuavs", "num_pois", "num_obstacles", "num_lasers",
                     "collect_rate", "charge_per_step", "beta", "kappa",
                     "laser_warn_dist", "w_c", "w_l", "w_e", "w_d",
                     "discovery_bonus", "rotation_penalty", "plow",
                     "collision_penalty", "laser_penalty"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.num_lasers < 1:
            raise ConfigError("num_lasers must be >= 1")
        if self.comm_radius is not None and self.comm_radius <= 0:
            raise ConfigError("comm_radius must be > 0 when set")


# The values each annotation in a config dataclass admits. A bool is also an
# `Integral` and a `Real`, so it is accepted only where the annotation is `bool`.
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral, "bool": bool}


def check_field_types(config) -> None:
    """Raise ConfigError unless every field of the config dataclass holds a
    value of its annotated type (`float`, `int` or `bool`; `X | None` also
    admits None). A `float` must be finite: NaN fails every range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if isinstance(value, bool) != (kind == "bool") \
                or not isinstance(value, _FIELD_TYPES[kind]):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def check_run(config: WorldConfig, seed: int) -> None:
    """Raise ConfigError unless a training or evaluation run can start from
    `seed` on `config`'s fleet and PoIs."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if min(config.num_muavs, config.num_cuavs, config.num_pois) < 1:
        raise ConfigError("a run needs at least one MUAV and one CUAV, and a "
                          "PoI (the report metrics are undefined otherwise)")


@dataclass
class WorldState:
    """Full simulator state, stored as arrays. UAV rows follow
    `config.kinds` (MUAVs, then CUAVs). Energy is tracked via the
    charged/consumed accumulators; the remaining level is always derived
    (`er`), so the bookkeeping identity holds exactly (no float drift
    between three counters). A new state starts at rest, with no energy
    charged or consumed and no PoI seen."""

    config: WorldConfig
    pos: np.ndarray           # (U, 2)
    poi_xy: np.ndarray        # (P, 2)
    poi_m0: np.ndarray        # (P,)
    poi_rem: np.ndarray       # (P,)
    obstacle_xy: np.ndarray   # (B, 2)
    obstacle_r: np.ndarray    # (B,)
    t: int = 0
    done: bool = False
    done_reason: str | None = None
    velocity: np.ndarray = field(init=False)   # (U, 2) displacement of the last step
    ec: np.ndarray = field(init=False)         # (U,) cumulative energy received
    ed: np.ndarray = field(init=False)         # (U,) cumulative energy consumed
    # (M, P) mask of the PoIs that have ever been inside each MUAV's sensing radius
    seen_pois: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.config.num_uavs
        self.velocity = np.zeros((n, 2))
        self.ec = np.zeros(n)
        self.ed = np.zeros(n)
        self.seen_pois = np.zeros((self.num_muavs, len(self.poi_xy)), dtype=bool)

    @property
    def num_muavs(self) -> int:
        return self.config.num_muavs

    @property
    def num_cuavs(self) -> int:
        return self.config.num_cuavs

    @property
    def er(self) -> np.ndarray:
        """(U,) remaining energy, initial_energy + ec - ed."""
        return self.config.initial_energy + self.ec - self.ed


def generate_scenario(config: WorldConfig, seed: int) -> WorldState:
    """Build a fresh episode state. Pure function of (config, seed).

    Draw order is fixed: PoI positions, PoI data volumes, UAV positions,
    then obstacles (rejection-sampled so none overlaps a UAV start disk).
    """
    rng = np.random.default_rng(seed)
    w, h = config.area_width, config.area_height

    poi_xy = rng.uniform((0.0, 0.0), (w, h), size=(config.num_pois, 2))
    poi_m0 = rng.uniform(0.0, 1.0, size=config.num_pois)

    r = config.uav_radius
    pos = rng.uniform((r, r), (w - r, h - r), size=(config.num_uavs, 2))

    lo, hi = OBSTACLE_RADIUS_RANGE
    obs_xy = np.zeros((config.num_obstacles, 2))
    obs_r = np.zeros(config.num_obstacles)
    for i in range(config.num_obstacles):
        for attempt in range(PLACEMENT_ATTEMPTS):
            rad = rng.uniform(lo, hi)
            if rad >= w / 2 or rad >= h / 2:
                continue
            center = rng.uniform((rad, rad), (w - rad, h - rad), size=2)
            if np.all(norms(center - pos) >= rad + r):
                obs_xy[i] = center
                obs_r[i] = rad
                break
        else:
            raise InfeasibleScenarioError(
                f"could not place obstacle {i} after {PLACEMENT_ATTEMPTS} attempts")

    return WorldState(
        config=config,
        pos=pos,
        poi_xy=poi_xy,
        poi_m0=poi_m0,
        poi_rem=poi_m0.copy(),
        obstacle_xy=obs_xy,
        obstacle_r=obs_r,
    )


def norms(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths along the last axis, bit-equal to `np.linalg.norm`
    of each vector on its own: both take the square root of a `dot`, while
    `np.linalg.norm(v, axis=-1)` and `np.hypot` round differently."""
    return np.sqrt(np.vecdot(v, v))


def lens_area(d: float, r: float) -> float:
    """Intersection area of two radius-r disks whose centers are d apart
    (closed-form lens formula)."""
    if d >= 2.0 * r:
        return 0.0
    return 2.0 * r * r * math.acos(d / (2.0 * r)) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)


def load_config(cls, path):
    """Read a `WorldConfig` or `TrainConfig` from a flat YAML mapping;
    unknown keys are fatal, missing keys keep their defaults."""
    import yaml  # only runs that read a config file pay for the import
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a flat key/value mapping")
    # key=str: YAML keys need not be strings, nor of one type
    unknown = sorted(set(data) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    try:
        return cls(**data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
