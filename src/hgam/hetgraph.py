"""Typed UAV graphs for the attention networks.

Actors consume a local graph (ego plus its nearest neighbor of each agent
type); critics consume an all-to-all graph whose node features append the
joint actions. All node features are padded to one fleet-wide width so a
field's offset never depends on fleet composition:

    local:  [obs padded to max obs width | type one-hot(2)]
    global: [obs padded to max obs width | action(2) | type one-hot(2)]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import max_obs_len, uav_distances
from .world import CUAV, MUAV, WorldConfig, WorldState

ACTION_WIDTH = 2
TYPE_ONE_HOT = {MUAV: (1.0, 0.0), CUAV: (0.0, 1.0)}


def local_feature_width(config: WorldConfig) -> int:
    return max_obs_len(config) + 2


def global_feature_width(config: WorldConfig) -> int:
    return max_obs_len(config) + ACTION_WIDTH + 2


def global_action_slice(config: WorldConfig) -> slice:
    """Where the node's own action sits inside a global-graph feature row."""
    w = max_obs_len(config)
    return slice(w, w + ACTION_WIDTH)


def local_node_feature(obs: np.ndarray, kind: str, config: WorldConfig) -> np.ndarray:
    out = np.zeros(local_feature_width(config))
    out[: len(obs)] = obs
    out[-2:] = TYPE_ONE_HOT[kind]
    return out


def global_node_feature(obs: np.ndarray, action: np.ndarray, kind: str,
                        config: WorldConfig) -> np.ndarray:
    out = np.zeros(global_feature_width(config))
    out[: len(obs)] = obs
    out[global_action_slice(config)] = action
    out[-2:] = TYPE_ONE_HOT[kind]
    return out


@dataclass
class HeteroGraph:
    """Nodes with padded feature rows; edges point neighbor -> ego (the
    direction embeddings are aggregated). The ego has no self-loop."""

    node_ids: list[int]          # agent indices
    node_kinds: list[str]
    features: np.ndarray         # (n, F)
    ego: int                     # index into the node list
    edges: list[tuple[int, int]]

    def neighbor_indices(self) -> list[int]:
        return [src for src, dst in self.edges if dst == self.ego]


def local_neighbors(state: WorldState, uav_dists: np.ndarray) -> np.ndarray:
    """The fleet's (U, 2) int64 neighbor table: column 0 holds each agent's
    nearest other MUAV, column 1 its nearest CUAV (fleet-wide via the global
    link, optionally capped by comm_radius), -1 when there is none. Ties
    break to the lowest index. `uav_dists` is the state's `uav_distances`
    matrix."""
    cfg = state.config
    d = uav_dists.copy()
    np.fill_diagonal(d, np.inf)
    if cfg.comm_radius is not None:
        d[d > cfg.comm_radius] = np.inf
    is_muav = np.arange(cfg.num_uavs) < cfg.num_muavs
    table = np.empty((cfg.num_uavs, 2), dtype=np.int64)
    for col, of_kind in enumerate((is_muav, ~is_muav)):
        masked = np.where(of_kind, d, np.inf)
        # an inf minimum means absent; argmin's first index breaks ties low
        nearest = masked.argmin(axis=1)
        table[:, col] = np.where(masked.min(axis=1) < np.inf, nearest, -1)
    return table


def build_local_graph(state: WorldState, u: int, observations) -> HeteroGraph:
    """Ego plus at most one neighbor per agent type; every neighbor has an
    edge into the ego."""
    cfg = state.config
    row = local_neighbors(state, uav_distances(state))[u]
    ids = [u] + [int(i) for i in row if i >= 0]
    kinds = [cfg.kinds[i] for i in ids]
    feats = np.stack([local_node_feature(observations[i], kind, cfg)
                      for i, kind in zip(ids, kinds)])
    edges = [(k, 0) for k in range(1, len(ids))]
    return HeteroGraph(ids, kinds, feats, 0, edges)


def build_global_graph(state: WorldState, observations, actions) -> list[HeteroGraph]:
    """Complete directed graph over the fleet with observation+action node
    features; one view per ego (shared nodes/edges, different ego index)."""
    cfg = state.config
    n = cfg.num_uavs
    kinds = cfg.kinds
    feats = np.stack([global_node_feature(observations[i], np.asarray(actions[i]),
                                          kinds[i], cfg) for i in range(n)])
    edges = [(i, j) for j in range(n) for i in range(n) if i != j]
    return [HeteroGraph(list(range(n)), kinds, feats, u, edges) for u in range(n)]


# ---------------------------------------------------------------------------
# fixed per-agent templates for batched replay processing

def local_template(config: WorldConfig, ego_kind: str) -> tuple[str, ...]:
    """Node kinds of one agent's local graph: ego first, then the MUAV
    neighbor slot, then the CUAV neighbor slot (slots exist whenever the
    fleet could supply such a neighbor; per-sample absence is masked)."""
    others_muav = config.num_muavs - (1 if ego_kind == MUAV else 0)
    others_cuav = config.num_cuavs - (1 if ego_kind == CUAV else 0)
    kinds = [ego_kind]
    if others_muav > 0:
        kinds.append(MUAV)
    if others_cuav > 0:
        kinds.append(CUAV)
    return tuple(kinds)


def local_feature_batch(obs: np.ndarray, nbrs: np.ndarray, ego: int,
                        config: WorldConfig):
    """Assemble (B, n_nodes, F) local-graph features for agent `ego` of
    `config`'s fleet from replay rows.

    obs: (B, U, W) padded observations; nbrs: (B, U, 2) neighbor indices
    (column 0 = MUAV neighbor, 1 = CUAV neighbor, -1 = absent). Returns
    (features, node kinds, neighbor mask (B, n_nodes-1)).
    """
    ego_kind = config.kinds[ego]
    node_kinds = local_template(config, ego_kind)
    slot_kinds = node_kinds[1:]
    b, _, w = obs.shape
    feats = np.zeros((b, len(node_kinds), local_feature_width(config)))
    feats[:, 0, :w] = obs[:, ego, :]
    feats[:, 0, -2:] = TYPE_ONE_HOT[ego_kind]

    idx = nbrs[:, ego, [0 if kind == MUAV else 1 for kind in slot_kinds]]  # (B, S)
    mask = idx >= 0
    present = mask[:, :, None]
    # an absent slot's -1 reads the last agent's row; np.where zeroes it
    # (multiplying by the mask would leave -0.0 for negative entries)
    rows = obs[np.arange(b)[:, None], idx]
    feats[:, 1:, :w] = np.where(present, rows, 0.0)
    # (S, 2), and (0, 2) for a template without neighbor slots
    one_hot = np.array([TYPE_ONE_HOT[kind] for kind in slot_kinds]).reshape(-1, 2)
    feats[:, 1:, -2:] = np.where(present, one_hot, 0.0)
    return feats, node_kinds, mask


def global_feature_batch(obs: np.ndarray, actions: np.ndarray,
                         config: WorldConfig) -> np.ndarray:
    """(B, U, F) global-graph features of `config`'s fleet from replay rows
    of padded observations (B, U, W) and joint actions (B, U, 2)."""
    b, n, w = obs.shape
    feats = np.zeros((b, n, global_feature_width(config)))
    feats[:, :, :w] = obs
    feats[:, :, global_action_slice(config)] = actions
    for i, kind in enumerate(config.kinds):
        feats[:, i, -2:] = TYPE_ONE_HOT[kind]
    return feats
