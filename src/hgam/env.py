"""Environment dynamics and observation assembly.

A step runs fixed phases: move, collision check, data collection, charging,
energy accounting, clock. Collection and charging are written so the exact
bookkeeping identities hold in floating point:

* every per-PoI take equals the float difference old - new of that PoI's
  remaining data (Sterbenz-safe for the default collect rate), so summed
  takes telescope to m0 - m_T exactly;
* remaining UAV energy is derived (initial_energy + ec - ed), never a
  third counter.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError
from .world import WorldConfig, WorldState, norms

CAUSE_COLLISION = "collision"
CAUSE_ENERGY = "energy"
CAUSE_MAX_STEPS = "max_steps"

NUM_UAV_BLOCKS = 2   # nearest-other-UAV blocks in every observation
NUM_POI_BLOCKS = 5   # nearest-PoI blocks in MUAV observations


def apply_action(pos: np.ndarray, a: np.ndarray, step_length: float) -> np.ndarray:
    """Move each row of `pos` one full step_length along the direction of the
    same row of `a`; a zero action holds. Rows are (..., 2)."""
    pos = np.asarray(pos, dtype=float)
    a = np.asarray(a, dtype=float)
    norm = norms(a)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(norm < 1e-9, pos, pos + (a / norm) * step_length)


@dataclass
class ChargeOutcome:
    """One CUAV's charging result this step, with its decision-time context."""

    target: int | None        # MUAV index, or None if nobody in radius
    delivered: float
    wasted: float
    target_er: float          # target's remaining energy when the charge fired
    target_full: bool         # target had no headroom at that moment
    muav_er_mean: float       # fleet-mean remaining MUAV energy at that moment


@dataclass
class StepEvents:
    """Everything reward/metric code needs to know about one transition."""

    collected: np.ndarray                          # (M,) per-MUAV totals
    collection_breakdown: list[tuple[int, int, float]]  # (muav, poi, amount)
    dist_moved: np.ndarray                         # (U,)
    charge: list[ChargeOutcome]                    # per CUAV
    collided: np.ndarray                           # (U,) bool
    min_laser: np.ndarray                          # (U,)
    discovered: list[np.ndarray]                   # per MUAV, new PoI indices
    # sensing of the successor state, for its observations
    lasers: np.ndarray                             # (U, K) cast_lasers
    uav_dists: np.ndarray                          # (U, U) uav_distances
    poi_dists: np.ndarray                          # (M, P) poi_distances


@lru_cache(maxsize=8)
def _beam_dirs(num_lasers: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(num_lasers) / num_lasers
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def cast_lasers(state: WorldState) -> np.ndarray:
    """(U, K) distances from each UAV center to the nearest obstacle surface
    or wall along each beam, capped at the field-of-view range."""
    cfg = state.config
    pos = state.pos[:, None, :]                                    # (U,1,2)
    dirs = _beam_dirs(cfg.num_lasers)                              # (K,2)
    with np.errstate(divide="ignore", invalid="ignore"):
        # Walls of the [0,W]x[0,H] arena: the ray parameter to the x- and
        # y-wall each beam heads for. A beam parallel to a wall gives inf or
        # nan there, which fails the positivity test like a wall behind.
        walls = np.where(dirs > 0, (cfg.area_width, cfg.area_height), 0.0)
        t = (walls - pos) / dirs                                   # (U,K,2)
        readings = np.where(t > 0, t, np.inf).min(axis=2)

        if len(state.obstacle_r) > 0:
            rel = state.obstacle_xy - pos                          # (U,B,2)
            b = np.matmul(dirs, rel.transpose(0, 2, 1))            # (U,K,B)
            c2 = np.sum(rel ** 2, axis=2)[:, None, :] - state.obstacle_r ** 2
            # a beam that misses has a negative discriminant: nan roots,
            # which fail both positivity tests
            sq = np.sqrt(b * b - c2)
            t_near = b - sq
            t_far = b + sq
            t_obs = np.where(t_near > 0, t_near,
                             np.where(t_far > 0, t_far, np.inf))
            readings = np.minimum(readings, t_obs.min(axis=2))

    return np.minimum(readings, cfg.fov)


def uav_distances(state: WorldState) -> np.ndarray:
    """(U, U) matrix whose [i, j] entry is |pos_j - pos_i|."""
    pos = state.pos
    return norms(pos[None, :, :] - pos[:, None, :])


def poi_distances(state: WorldState) -> np.ndarray:
    """(M, P) matrix whose [m, p] entry is |poi_p - pos_m| for MUAV m."""
    pos = state.pos[: state.num_muavs]
    return np.linalg.norm(state.poi_xy[None, :, :] - pos[:, None, :], axis=2)


def step(state: WorldState, actions) -> tuple[WorldState, StepEvents]:
    """Advance the world one timestep in place; returns (state, events)."""
    if state.done:
        raise ContractError("step() called on a finished episode")
    cfg = state.config
    n = cfg.num_uavs
    try:
        actions = np.asarray(actions, dtype=float)
    except ValueError as exc:  # ragged rows
        raise ContractError(f"expected actions of shape {(n, 2)}, got rows of "
                            f"shapes {[np.shape(a) for a in actions]}") from exc
    if actions.shape != (n, 2):
        raise ContractError(f"expected actions of shape {(n, 2)}, got {actions.shape}")
    finite = np.isfinite(actions).all(axis=1)
    if not finite.all():
        u = int(np.argmin(finite))
        raise ContractError(f"non-finite action {actions[u].tolist()} for agent {u}")

    # 1. motion
    new_pos = apply_action(state.pos, np.clip(actions, -1.0, 1.0), cfg.step_length)
    state.velocity = new_pos - state.pos
    state.pos = new_pos
    dist_moved = norms(state.velocity)

    # 2. collisions with obstacles or enclosure walls
    r = cfg.uav_radius
    x, y = new_pos[:, 0], new_pos[:, 1]
    collided = (x < r) | (x > cfg.area_width - r) | (y < r) | (y > cfg.area_height - r)
    if len(state.obstacle_r) > 0:
        d = np.linalg.norm(state.obstacle_xy[None, :, :] - new_pos[:, None, :], axis=2)
        collided |= np.any(d < state.obstacle_r + r, axis=1)
    if collided.any():
        state.done = True
        state.done_reason = CAUSE_COLLISION

    # positions are final from here on: sense the successor state once
    lasers = cast_lasers(state)
    uav_dists = uav_distances(state)
    poi_dists = poi_distances(state)
    min_laser = lasers.min(axis=1)

    # 3. MUAV data collection, sequential in MUAV index order
    m_count = state.num_muavs
    rate = cfg.collect_rate
    collected = np.zeros(m_count)
    breakdown: list[tuple[int, int, float]] = []
    discovered: list[np.ndarray] = []
    for m in range(m_count):
        in_range = poi_dists[m] <= cfg.sense_radius
        live = state.poi_rem > 0.0
        new = in_range & live & ~state.seen_pois[m]
        discovered.append(np.nonzero(new)[0])
        state.seen_pois[m] |= in_range
        for p in np.nonzero(in_range & live)[0].tolist():
            m_old = float(state.poi_rem[p])
            m_new = m_old - rate if m_old > rate else 0.0
            state.poi_rem[p] = m_new
            take = m_old - m_new   # exactly m_old when the PoI empties
            breakdown.append((m, p, take))
            collected[m] += take

    # 4. CUAV charging: closest in-range MUAV, one target per CUAV, in CUAV
    # index order (each charge sees the top-ups before it)
    charge: list[ChargeOutcome] = []
    e0 = cfg.charge_per_step
    ec, ed = state.ec, state.ed
    for c in range(m_count, n):
        ers = state.er[:m_count]
        er_mean = float(ers.mean()) if m_count else 0.0
        dists = uav_dists[c, :m_count]
        candidates = np.nonzero(dists <= cfg.charge_radius)[0]
        if len(candidates) == 0:
            charge.append(ChargeOutcome(None, 0.0, 0.0, 0.0, False, er_mean))
            continue
        target = int(candidates[np.argmin(dists[candidates])])
        headroom = ed[target] - ec[target]   # == initial_energy - er, but exact
        if headroom <= e0:
            delivered = headroom
            ec[target] = ed[target]          # exact top-up keeps ec <= ed bitwise
        else:
            delivered = e0
            ec[target] = ec[target] + e0
        charge.append(ChargeOutcome(target, delivered, e0 - delivered,
                                    ers[target], headroom <= 0.0, er_mean))

    # 5. MUAV energy accounting; depletion terminates
    ed[:m_count] += cfg.beta * collected + cfg.kappa * dist_moved[:m_count]
    if np.any(state.er[:m_count] <= 0.0) and not state.done:
        state.done = True
        state.done_reason = CAUSE_ENERGY

    # 6. clock
    state.t += 1
    if state.t >= cfg.max_steps and not state.done:
        state.done = True
        state.done_reason = CAUSE_MAX_STEPS

    events = StepEvents(
        collected=collected,
        collection_breakdown=breakdown,
        dist_moved=dist_moved,
        charge=charge,
        collided=collided,
        min_laser=min_laser,
        discovered=discovered,
        lasers=lasers,
        uav_dists=uav_dists,
        poi_dists=poi_dists,
    )
    return state, events


# ---------------------------------------------------------------------------
# observations

def muav_obs_len(config: WorldConfig) -> int:
    return config.num_lasers + 4 * NUM_UAV_BLOCKS + 3 * NUM_POI_BLOCKS + 2 + 2 + 1 + 3 + 2


def cuav_obs_len(config: WorldConfig) -> int:
    return config.num_lasers + 4 * NUM_UAV_BLOCKS + 5 * config.num_muavs + 2 + 2 + 1 + 2


def max_obs_len(config: WorldConfig) -> int:
    lens = []
    if config.num_muavs > 0:
        lens.append(muav_obs_len(config))
    if config.num_cuavs > 0:
        lens.append(cuav_obs_len(config))
    return max(lens)


def _unit(state: WorldState, u: int, i: int, d: float) -> list[float]:
    """Unit vector from UAV u to UAV i, `d` apart; zero when they coincide."""
    if d > 0:
        return ((state.pos[i] - state.pos[u]) / d).tolist()
    return [0.0, 0.0]


def _nearest_uav_blocks(state: WorldState, u: int, dist_row: list[float]) -> list[float]:
    """The two nearest other UAVs as (unit dx, unit dy, distance, type flag);
    absent slots pad with distance = field-of-view range. `dist_row` is row
    u of `uav_distances`."""
    cfg = state.config
    others = sorted((d, i) for i, d in enumerate(dist_row) if i != u)
    out: list[float] = []
    for k in range(NUM_UAV_BLOCKS):
        if k < len(others):
            d, i = others[k]
            flag = 0.0 if i < cfg.num_muavs else 1.0
            out += _unit(state, u, i, d) + [d, flag]
        else:
            out += [0.0, 0.0, cfg.fov, 0.0]
    return out


def _self_block(state: WorldState, u: int) -> list[float]:
    cfg = state.config
    vx, vy = state.velocity[u].tolist()
    x, y = state.pos[u].tolist()
    return [vx, vy, x / cfg.area_width, y / cfg.area_height, state.t / cfg.max_steps]


def observe(state: WorldState, u: int, lasers: np.ndarray,
            uav_dists: np.ndarray, poi_dists: np.ndarray) -> np.ndarray:
    """Assemble the fixed-layout partial observation for UAV u from the
    state's fleet sensing: `lasers` from `cast_lasers`, `uav_dists` from
    `uav_distances` and `poi_dists` from `poi_distances`."""
    cfg = state.config
    e_init = cfg.initial_energy
    ers, ecs, eds = state.er.tolist(), state.ec.tolist(), state.ed.tolist()
    dist_row = uav_dists[u].tolist()
    parts: list[float] = lasers[u].tolist()
    parts += _nearest_uav_blocks(state, u, dist_row)

    is_muav = u < cfg.num_muavs
    if is_muav:
        dists = poi_dists[u]
        visible = np.nonzero((state.poi_rem > 0.0) & (dists <= cfg.fov))[0]
        # `visible` ascends, so a stable sort breaks distance ties by index
        near = visible[np.argsort(dists[visible], kind="stable")[:NUM_POI_BLOCKS]]
        d = dists[near][:, None]
        block = np.zeros((NUM_POI_BLOCKS, 3))
        np.divide(state.poi_xy[near] - state.pos[u], d, out=block[: len(near), :2],
                  where=d > 0)
        block[: len(near), 2] = state.poi_rem[near]
        parts += block.ravel().tolist()
        parts += _self_block(state, u)
        parts += [ers[u] / e_init, ecs[u] / cfg.e_max, eds[u] / e_init]
        parts += [1.0, 0.0]
    else:
        for m in range(state.num_muavs):
            parts += [ers[m] / e_init, ecs[m] / cfg.e_max]
            parts += _unit(state, u, m, dist_row[m]) + [dist_row[m]]
        parts += _self_block(state, u)
        parts += [0.0, 1.0]

    vec = np.asarray(parts, dtype=float)
    assert len(vec) == (muav_obs_len(cfg) if is_muav else cuav_obs_len(cfg))
    return vec


# ---------------------------------------------------------------------------
# CSV export

def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def make_out_dir(path) -> Path:
    """Create the output directory `path` and its parents; ConfigError when
    it cannot be made (say, a file already holds its name)."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {path}: {exc.strerror}") from exc
    return out


def write_csv(path, columns, rows) -> None:
    """A header of `columns`, then one line per row; floats are written via
    repr for byte-stable output."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_poi_csv(path, state: WorldState) -> None:
    write_csv(path, ["poi_id", "x", "y", "m0", "m_final"],
              zip(range(len(state.poi_m0)), state.poi_xy[:, 0],
                  state.poi_xy[:, 1], state.poi_m0, state.poi_rem))
