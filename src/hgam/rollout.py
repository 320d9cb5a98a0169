"""The episode rollout shared by training and evaluation: the joint
observation every actor acts on, the one episode loop, and its bookkeeping
(dilemma windows, per-step rewards, charging activity, the episode log)."""

from __future__ import annotations

from collections import deque

import numpy as np

from .env import (StepEvents, cast_lasers, max_obs_len, observe,
                  poi_distances, step, uav_distances)
from .hetgraph import local_neighbors
from .metrics import EpisodeLog, compute_all
from .reward import (DILEMMA_WINDOW, RewardBreakdown, cuav_reward,
                     detect_dilemma, muav_reward)
from .world import WorldState


def joint_observation(state: WorldState, events: StepEvents | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Every agent's observation padded to `max_obs_len` (U, W), and the
    fleet's `local_neighbors` table (U, 2).

    `events` are those of the step that produced `state`; their sensing is
    reused. Without them (an episode's first state) the state is sensed
    here."""
    if events is None:
        lasers, uav_dists = cast_lasers(state), uav_distances(state)
        poi_dists = poi_distances(state)
    else:
        lasers, uav_dists = events.lasers, events.uav_dists
        poi_dists = events.poi_dists
    n = state.config.num_uavs
    obs = np.zeros((n, max_obs_len(state.config)))
    for u in range(n):
        vec = observe(state, u, lasers, uav_dists, poi_dists)
        obs[u, : len(vec)] = vec
    return obs, local_neighbors(state, uav_dists)


def run_episode(state: WorldState, act, on_step=None) -> dict:
    """Step `state` until it is done; returns the metrics row: `compute_all`
    of the episode, `reward_muav_mean`, `reward_cuav_mean` (mean summed
    reward per agent type) and `reward_components`.

    `act(state, events)` gives the (U, 2) joint action for `state`, where
    `events` are those of the step that produced it (None for the first
    state). After each step, `on_step(state, t, actions, rewards, events)`
    sees the advanced state, the index `t` of the step taken, its actions
    and the per-agent rewards (U,).
    """
    tracker = EpisodeTracker(state)
    events = None
    while not state.done:
        actions = act(state, events)
        t = state.t
        _, events = step(state, actions)
        rewards = tracker.after_step(state, events)[:, -1]
        if on_step is not None:
            on_step(state, t, actions, rewards, events)
    row = dict(compute_all(tracker.episode_log(state)))
    m = state.num_muavs
    reward_sums = tracker.component_totals[:, -1]
    row["reward_muav_mean"] = float(np.mean(reward_sums[:m]))
    row["reward_cuav_mean"] = float(np.mean(reward_sums[m:]))
    row["reward_components"] = tracker.reward_components()
    return row


class EpisodeTracker:
    """Accumulates everything reward- and metric-related over one episode."""

    def __init__(self, state: WorldState):
        self.config = state.config
        m = state.num_muavs
        # each MUAV's recent positions, oldest first
        self.windows = [deque([pos.copy()], maxlen=DILEMMA_WINDOW)
                        for pos in state.pos[:m]]
        self.active_steps = np.zeros(state.num_cuavs, dtype=np.int64)
        n = state.config.num_uavs
        self.component_totals = np.zeros((n, len(RewardBreakdown._fields)))

    def after_step(self, state: WorldState, events: StepEvents) -> np.ndarray:
        """The step's (U, 5) reward table, one column per `RewardBreakdown` field."""
        cfg = self.config
        breakdowns = []
        for m in range(state.num_muavs):
            self.windows[m].append(state.pos[m].copy())
            dilemma = detect_dilemma(self.windows[m], cfg.sense_radius)
            breakdowns.append(muav_reward(events, dilemma, m, cfg))
        for ci in range(state.num_cuavs):
            c = state.num_muavs + ci
            if events.charge[ci].delivered > 0.0:
                self.active_steps[ci] += 1
            breakdowns.append(cuav_reward(state, events, c, cfg))
        table = np.array(breakdowns)
        self.component_totals += table
        return table

    def episode_log(self, state: WorldState) -> EpisodeLog:
        m = state.num_muavs
        return EpisodeLog(
            poi_m0=state.poi_m0.copy(),
            poi_mT=state.poi_rem.copy(),
            muav_er0=np.full(m, state.config.initial_energy, dtype=float),
            muav_ec=state.ec[:m].copy(),
            muav_ed=state.ed[:m].copy(),
            cuav_active_steps=self.active_steps.copy(),
            e_max=state.config.e_max,
            length=state.t,
            terminated_by=state.done_reason or "running",
        )

    def reward_components(self) -> list[dict]:
        return [dict(zip(RewardBreakdown._fields, map(float, row)))
                for row in self.component_totals]
