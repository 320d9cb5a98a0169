"""Per-agent rewards: collection/charging payoffs, fairness shaping, the
CUAV neglect and hierarchical penalties, and the circling-detector that
flags an MUAV stuck revisiting the same patch."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .env import ChargeOutcome, StepEvents
from .metrics import jain_index
from .world import WorldConfig, WorldState, lens_area, norms

# positions kept per MUAV for the circling test
DILEMMA_WINDOW = 10


class RewardBreakdown(NamedTuple):
    h: float      # task payoff (collection for MUAVs, fair charging for CUAVs)
    iota: float   # movement/discovery bonus for MUAVs; neglect penalty for CUAVs
    pl: float     # behavioural penalty (idle rotation / charging hierarchy)
    pb: float     # collision and laser-warning penalty
    total: float


def fairness_factor(state: WorldState, config: WorldConfig) -> float:
    """Weighted blend of two Jain indices: charged-energy fractions and
    remaining battery levels across MUAVs."""
    m = state.num_muavs
    fc = jain_index(np.minimum(state.ec[:m] / config.e_max, 1.0))
    fr = jain_index(np.maximum(state.er[:m], 0.0))
    return config.w_f * fc + (1.0 - config.w_f) * fr


def _safety_penalty(events: StepEvents, u: int, config: WorldConfig) -> float:
    pb = 0.0
    if events.collided[u]:
        pb += config.collision_penalty
    if events.min_laser[u] < config.laser_warn_dist:
        pb += config.laser_penalty
    return pb


def muav_reward(events: StepEvents, dilemma: bool, m: int,
                config: WorldConfig) -> RewardBreakdown:
    c = float(events.collected[m])
    h = config.w_c * c
    iota = config.w_l * float(events.dist_moved[m]) \
        + config.discovery_bonus * len(events.discovered[m])
    pl = config.rotation_penalty if (dilemma and c == 0.0) else 0.0
    pb = _safety_penalty(events, m, config)
    return RewardBreakdown(h, iota, pl, pb, h + iota - pl - pb)


def cuav_neglect_penalty(state: WorldState, c: int, uav_dists: np.ndarray,
                         config: WorldConfig) -> float:
    """Distance-plus-urgency penalty anchored on the lowest-battery MUAV
    (ties go to the lowest index). Battery levels below zero count as empty.
    `uav_dists` is the state's `(U, U)` UAV distance matrix."""
    ers = state.er[: state.num_muavs]
    i = int(np.argmin(ers))
    return config.w_d * float(uav_dists[c, i]) + config.w_e * max(float(ers[i]), 0.0)


def cuav_hierarchical_penalty(outcome: ChargeOutcome, config: WorldConfig) -> float:
    """Exactly one of four cases, checked in order: idle, target already
    full, target above the fleet-mean battery, or a sensible charge."""
    plow = config.plow
    if outcome.target is None:
        return plow
    if outcome.target_full:
        return 1.2 * plow
    if outcome.target_er > outcome.muav_er_mean:
        return plow / 3.0
    return plow / 4.0


def cuav_reward(state: WorldState, events: StepEvents, c: int,
                config: WorldConfig) -> RewardBreakdown:
    outcome = events.charge[c - state.num_muavs]
    if outcome.delivered > 0.0:
        h = config.w_e * fairness_factor(state, config)
        iota = 0.0
    else:
        h = 0.0
        iota = cuav_neglect_penalty(state, c, events.uav_dists, config)
    pl = cuav_hierarchical_penalty(outcome, config)
    pb = _safety_penalty(events, c, config)
    return RewardBreakdown(h, iota, pl, pb, h - iota - pl - pb)


def detect_dilemma(window, sense_radius: float) -> bool:
    """True when the sensing disk at the oldest of an MUAV's recent
    positions `window` (oldest first) overlaps some later position more
    than it overlaps its immediate successor, i.e. the UAV curled back
    instead of moving on. Strict comparison, so a stationary UAV does not
    trigger."""
    if len(window) < 3:
        return False
    pts = np.array(window)
    dists = norms(pts[0] - pts[1:]).tolist()
    base = lens_area(dists[0], sense_radius)
    return any(lens_area(d, sense_radius) > base for d in dists[1:])
