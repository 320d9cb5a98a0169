"""Evaluation surface: scripted baselines, checkpoint-backed policies, and
noise-free evaluation that produces metric reports and trajectory
exports."""

from __future__ import annotations

import json

import numpy as np

from .env import make_out_dir, poi_distances, write_csv, write_poi_csv
from .errors import ConfigError
from .rollout import joint_observation, run_episode
from .training import actor_actions, load_actor_networks
from .world import WorldConfig, WorldState, check_run, generate_scenario, norms

POLICY_KINDS = ("greedy", "random", "hgam", "hgam_no_gat")


def greedy_policy(state: WorldState, events=None) -> np.ndarray:
    """The fleet's (U, 2) nearest-target actions: MUAVs head for the closest
    PoI with data left and dwell once inside sensing range; CUAVs shadow the
    lowest-battery MUAV (ties to the lower index). A UAV with nothing to
    chase stays put. No obstacle avoidance on purpose. The PoI distances are
    those of `events` (the step that produced `state`) when given."""
    cfg = state.config
    m = state.num_muavs
    goal = state.pos.copy()
    near = np.zeros(cfg.num_uavs)   # distance to the goal; inf: nothing to chase
    if m and len(state.poi_xy):
        dists = poi_distances(state) if events is None else events.poi_dists
        masked = np.where(state.poi_rem > 0.0, dists, np.inf)
        p = np.argmin(masked, axis=1)
        goal[:m] = state.poi_xy[p]
        near[:m] = masked[np.arange(m), p]
    if m:
        goal[m:] = state.pos[np.argmin(state.er[:m])]
    direction = goal - state.pos
    norm = norms(direction)
    near[m:] = norm[m:]
    radius = np.repeat([cfg.sense_radius, cfg.charge_radius], [m, state.num_cuavs])
    move = (near > radius) & np.isfinite(near)   # radii > 0: no zero direction moves
    actions = np.zeros_like(direction)
    np.divide(direction, norm[:, None], out=actions, where=move[:, None])
    return actions


class GreedyPolicy:
    name = "greedy"

    def reset(self, episode_seed: int) -> None:
        pass

    def actions(self, state: WorldState, events) -> np.ndarray:
        return greedy_policy(state, events)


class RandomPolicy:
    name = "random"

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def reset(self, episode_seed: int) -> None:
        self._rng = np.random.default_rng(np.random.SeedSequence((episode_seed, 1)))

    def actions(self, state: WorldState, events) -> np.ndarray:
        return self._rng.uniform(-1.0, 1.0, size=(state.config.num_uavs, 2))


class ActorPolicy:
    """Decentralized execution of trained actors on local graphs."""

    def __init__(self, actors, config: WorldConfig):
        self.name = "hgam" if actors[0].spec.use_gat else "hgam_no_gat"
        self.config = config
        self.actors = actors

    def reset(self, episode_seed: int) -> None:
        pass

    def actions(self, state: WorldState, events) -> np.ndarray:
        obs, nbrs = joint_observation(state, events)
        # the tanh head keeps every action in [-1, 1]
        return actor_actions(self.actors, self.config, obs[None], nbrs[None])[0]


def make_policy(kind: str, config: WorldConfig, checkpoint=None):
    if kind == "greedy":
        return GreedyPolicy()
    if kind == "random":
        return RandomPolicy()
    if kind in ("hgam", "hgam_no_gat"):
        if checkpoint is None:
            raise ConfigError(f"policy {kind!r} requires --checkpoint")
        return ActorPolicy(load_actor_networks(checkpoint, config,
                                               use_gat=(kind == "hgam")), config)
    raise ConfigError(f"unknown policy {kind!r}; expected one of {POLICY_KINDS}")


METRIC_KEYS = ("C", "omega", "upsilon", "D", "F", "C_times_omega", "D_times_F",
               "episode_len")
# one trajectory row per UAV and step, as `evaluate`'s `record` builds them
TRAJ_COLUMNS = ["t", "uav_id", "kind", "x", "y", "Er", "Ec", "Ed",
                "collected", "charged_to", "reward"]


def evaluate(policy, world_config: WorldConfig, episodes: int, seed: int,
             out_dir=None, export_traj: bool = False) -> dict:
    """Noise-free evaluation over `episodes` episodes seeded seed+i; returns
    the report (also written as JSON when out_dir is given)."""
    if episodes < 1:
        raise ConfigError("episodes must be >= 1")
    check_run(world_config, seed)
    if export_traj and out_dir is None:
        raise ConfigError("trajectory export needs an output directory")
    out = make_out_dir(out_dir) if out_dir is not None else None
    rows = []
    traj_rows: list = []

    def record(state, t, actions, rewards, events):
        m = state.num_muavs
        er = state.er
        for u, kind in enumerate(state.config.kinds):
            collected = float(events.collected[u]) if u < m else 0.0
            outcome = events.charge[u - m] if u >= m else None
            charged_to = "" if outcome is None or outcome.target is None \
                else outcome.target
            traj_rows.append([state.t, u, kind,
                              float(state.pos[u, 0]), float(state.pos[u, 1]),
                              er[u], state.ec[u], state.ed[u], collected,
                              charged_to, rewards[u]])

    for i in range(episodes):
        state = generate_scenario(world_config, seed + i)
        policy.reset(seed + i)
        traj_rows.clear()
        row = run_episode(state, policy.actions, record if export_traj else None)
        row["seed"] = seed + i
        rows.append(row)
        if export_traj:
            write_csv(out / f"trajectory_ep{i:04d}.csv", TRAJ_COLUMNS, traj_rows)
            write_poi_csv(out / f"pois_ep{i:04d}.csv", state)
            components = {"episode_seed": seed + i,
                          "per_agent": row["reward_components"]}
            with open(out / f"reward_components_ep{i:04d}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(components, fh, indent=2, sort_keys=True)

    aggregate = {}
    for key in METRIC_KEYS + ("reward_muav_mean", "reward_cuav_mean"):
        vals = np.array([row[key] for row in rows], dtype=float)
        aggregate[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
    report = {
        "policy": policy.name,
        "episodes": episodes,
        "seed": seed,
        "per_episode": rows,
        "aggregate": aggregate,
    }
    if out is not None:
        with open(out / "evaluation_report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report
