from dataclasses import replace

import numpy as np
import pytest

from conftest import build_state, observations
from hgam.env import uav_distances
from hgam.hetgraph import (TYPE_ONE_HOT, build_global_graph,
                           build_local_graph, global_action_slice,
                           global_feature_batch, global_feature_width,
                           local_feature_batch, local_feature_width,
                           local_neighbors, local_template)
from hgam.world import CUAV, MUAV, WorldConfig


def default_state():
    cfg = WorldConfig(num_obstacles=0)
    return build_state(cfg, [(4.0, 8.0), (10.0, 8.0), (8.0, 4.0)],
                       poi_pos=[(4.5, 8.0)], poi_m0=[0.7])


def test_local_graph_full_fleet():
    s = default_state()
    g = build_local_graph(s, 0, observations(s))
    assert g.node_ids == [0, 1, 2]
    assert g.node_kinds == [MUAV, MUAV, CUAV]
    assert g.ego == 0
    assert sorted(g.edges) == [(1, 0), (2, 0)]
    assert g.neighbor_indices() == [1, 2]


def test_local_graph_single_agent():
    cfg = WorldConfig(num_muavs=1, num_cuavs=0, num_obstacles=0)
    s = build_state(cfg, [(8.0, 8.0)])
    g = build_local_graph(s, 0, observations(s))
    assert g.node_ids == [0]
    assert g.edges == []


def test_local_graph_nearest_of_type():
    cfg = WorldConfig(num_muavs=2, num_cuavs=1, num_obstacles=0)
    s = build_state(cfg, [(5.0, 8.0), (11.0, 8.0), (8.0, 8.0)])
    g = build_local_graph(s, 2, observations(s))  # ego CUAV between two MUAVs
    assert g.node_ids == [2, 0]  # MUAV 0 at distance 3 beats MUAV 1 (tie -> none here)
    s.pos[1] = np.array([10.0, 8.0])
    g = build_local_graph(s, 2, observations(s))
    assert g.node_ids == [2, 1]  # now MUAV 1 at distance 2 wins


def test_local_neighbor_tie_breaks_low_index():
    cfg = WorldConfig(num_muavs=3, num_cuavs=0, num_obstacles=0)
    s = build_state(cfg, [(8.0, 8.0), (8.0, 10.0), (8.0, 6.0)])
    muav_nbr, cuav_nbr = local_neighbors(s, uav_distances(s))[0]
    assert muav_nbr == 1 and cuav_nbr == -1


def test_comm_radius_caps_neighbors():
    cfg = WorldConfig(num_obstacles=0, comm_radius=3.0)
    s = build_state(cfg, [(4.0, 8.0), (10.0, 8.0), (8.0, 4.0)])
    muav_nbr, cuav_nbr = local_neighbors(s, uav_distances(s))[0]
    assert muav_nbr == -1 and cuav_nbr == -1  # both beyond 3 units
    s.pos[1] = np.array([6.0, 8.0])
    assert local_neighbors(s, uav_distances(s))[0].tolist() == [1, -1]


def test_local_feature_layout():
    s = default_state()
    obs = observations(s)
    g = build_local_graph(s, 2, obs)
    width = local_feature_width(s.config)
    assert g.features.shape == (2, width)
    # ego row: CUAV obs padded, one-hot suffix (0, 1)
    assert np.array_equal(g.features[0, : len(obs[2])], obs[2])
    assert np.all(g.features[0, len(obs[2]):-2] == 0.0)
    assert tuple(g.features[0, -2:]) == (0.0, 1.0)


def test_global_graph_views():
    s = default_state()
    obs = observations(s)
    actions = [np.array([0.1, -0.2]), np.zeros(2), np.array([1.0, 1.0])]
    views = build_global_graph(s, obs, actions)
    assert len(views) == 3
    for u, g in enumerate(views):
        assert g.ego == u
        assert len(g.neighbor_indices()) == 2
        assert g.node_ids == [0, 1, 2]
    # identical node/edge sets across ego views
    assert views[0].edges == views[1].edges == views[2].edges
    assert views[0].features is views[1].features


def test_global_feature_width_and_action_slot():
    cfg = WorldConfig()
    assert global_feature_width(cfg) == 53
    assert local_feature_width(cfg) == 51
    s = default_state()
    obs = observations(s)
    actions = [np.array([0.3, -0.7]), np.zeros(2), np.zeros(2)]
    views = build_global_graph(s, obs, actions)
    sl = global_action_slice(cfg)
    assert views[0].features[0, sl] == pytest.approx([0.3, -0.7])
    # zero actions leave zeros in the action slots
    assert np.all(views[0].features[1, sl] == 0.0)


def test_templates_follow_fleet_composition():
    cfg = WorldConfig(num_muavs=2, num_cuavs=1)
    assert local_template(cfg, MUAV) == (MUAV, MUAV, CUAV)
    assert local_template(cfg, CUAV) == (CUAV, MUAV)
    solo = WorldConfig(num_muavs=1, num_cuavs=0)
    assert local_template(solo, MUAV) == (MUAV,)


def test_batched_features_match_single_graphs():
    s = default_state()
    cfg = s.config
    obs = observations(s)
    width = max(len(o) for o in obs)
    obs_rows = np.zeros((1, 3, width))
    for u, o in enumerate(obs):
        obs_rows[0, u, : len(o)] = o
    nbrs = local_neighbors(s, uav_distances(s))[None]

    for u in range(3):
        single = build_local_graph(s, u, obs)
        feats, node_kinds, mask = local_feature_batch(obs_rows, nbrs, u, cfg)
        present = [0] + [1 + i for i in range(mask.shape[1]) if mask[0, i]]
        assert [node_kinds[i] for i in present] == single.node_kinds
        assert np.array_equal(feats[0][np.array(present)[1:]],
                              single.features[1:])
        assert np.array_equal(feats[0, 0], single.features[0])

    actions = [np.array([0.5, 0.5]), np.zeros(2), np.array([-1.0, 0.2])]
    views = build_global_graph(s, obs, actions)
    gfeats = global_feature_batch(obs_rows, np.asarray(actions)[None], cfg)
    assert np.array_equal(gfeats[0], views[0].features)


def test_feature_offsets_stable_across_fleets():
    # the action slot offset depends only on the config widths
    for muavs, cuavs in [(1, 1), (2, 1), (3, 2)]:
        cfg = WorldConfig(num_muavs=muavs, num_cuavs=cuavs)
        assert global_action_slice(cfg).start == max(49, 31 + 5 * muavs)


# ---------------------------------------------------------------------------
# the neighbor table against the per-agent and per-slot loops it replaced

def _reference_neighbors(state, u, uav_dists):
    """Per-agent neighbor search: nearest other MUAV and nearest CUAV within
    comm_radius (None when absent), ties to the lowest index."""
    cfg = state.config
    best = {}
    for i, d in enumerate(uav_dists[u].tolist()):
        if i == u:
            continue
        if cfg.comm_radius is not None and d > cfg.comm_radius:
            continue
        cur = best.get(cfg.kinds[i])
        if cur is None or (d, i) < cur:
            best[cfg.kinds[i]] = (d, i)
    return best.get(MUAV, (0.0, None))[1], best.get(CUAV, (0.0, None))[1]


def _reference_table(state):
    dists = uav_distances(state)
    rows = [_reference_neighbors(state, u, dists) for u in range(state.config.num_uavs)]
    return [[-1 if i is None else i for i in row] for row in rows]


def _tied_positions(rng, n):
    """Random positions on a 1/8 grid (so differences and their squares are
    exact) in which some UAVs coincide and some mirror each other through a
    third, so exact distance ties occur."""
    pos = rng.integers(16, 113, size=(n, 2)) / 8.0
    for i in range(1, n):
        pick = rng.integers(3)
        if pick == 0:
            pos[i] = pos[rng.integers(i)]
        elif pick == 1 and i >= 2:
            centre, other = rng.choice(i, size=2, replace=False)
            pos[i] = 2.0 * pos[centre] - pos[other]
    return pos


def _fleet_states(seed):
    rng = np.random.default_rng(seed)
    for muavs in range(1, 5):
        for cuavs in range(4):
            pos = _tied_positions(rng, muavs + cuavs)
            cfg = WorldConfig(num_muavs=muavs, num_cuavs=cuavs, num_obstacles=0)
            dists = uav_distances(build_state(cfg, pos))
            off = dists[~np.eye(len(pos), dtype=bool)]
            radii = [None, 1.0]
            if np.any(off > 0.0):
                radii.append(float(rng.choice(off[off > 0.0])))
            for radius in radii:
                yield build_state(replace(cfg, comm_radius=radius), pos)


@pytest.mark.parametrize("seed", range(6))
def test_local_neighbors_match_per_agent_search(seed):
    for s in _fleet_states(seed):
        table = local_neighbors(s, uav_distances(s))
        assert table.dtype == np.int64 and table.shape == (s.config.num_uavs, 2)
        assert table.tolist() == _reference_table(s)


def test_local_neighbors_ties_break_to_lowest_index():
    # MUAVs 1 and 3 coincide; MUAVs 1 and 2 mirror each other through MUAV 0
    cfg = WorldConfig(num_muavs=4, num_cuavs=2, num_obstacles=0)
    s = build_state(cfg, [(8.0, 8.0), (9.0, 10.0), (7.0, 6.0), (9.0, 10.0),
                          (5.0, 5.0), (5.0, 5.0)])
    table = local_neighbors(s, uav_distances(s))
    assert table.tolist() == _reference_table(s)
    assert table[0].tolist() == [1, 4]
    assert table[1].tolist() == [3, 4] and table[3].tolist() == [1, 4]
    assert table[4].tolist() == [2, 5] and table[5].tolist() == [2, 4]


def test_comm_radius_boundary_is_eligible():
    # the CUAV sits exactly comm_radius from MUAV 0; MUAV 1 is past it
    cfg = WorldConfig(num_muavs=2, num_cuavs=1, num_obstacles=0)
    pos = [(8.0, 8.0), (8.0, 12.0), (11.0, 8.0)]
    radius = float(uav_distances(build_state(cfg, pos))[0, 2])
    s = build_state(replace(cfg, comm_radius=radius), pos)
    assert local_neighbors(s, uav_distances(s)).tolist() == [[-1, 2], [-1, -1], [0, -1]]


def test_local_neighbors_single_kind_fleets():
    solo = build_state(WorldConfig(num_muavs=1, num_cuavs=0, num_obstacles=0),
                       [(8.0, 8.0)])
    assert local_neighbors(solo, uav_distances(solo)).tolist() == [[-1, -1]]
    pair = build_state(WorldConfig(num_muavs=2, num_cuavs=0, num_obstacles=0),
                       [(8.0, 8.0), (9.0, 8.0)])
    assert local_neighbors(pair, uav_distances(pair)).tolist() == [[1, -1], [0, -1]]


def _reference_feature_batch(obs, nbrs, ego, config):
    """Slot-by-slot assembly of `local_feature_batch`'s outputs."""
    ego_kind = config.kinds[ego]
    node_kinds = local_template(config, ego_kind)
    b = obs.shape[0]
    feats = np.zeros((b, len(node_kinds), local_feature_width(config)))
    mask = np.zeros((b, len(node_kinds) - 1), dtype=bool)
    feats[:, 0, : obs.shape[2]] = obs[:, ego, :]
    feats[:, 0, -2:] = TYPE_ONE_HOT[ego_kind]
    for slot, kind in enumerate(node_kinds[1:], start=1):
        idx = nbrs[:, ego, 0 if kind == MUAV else 1]
        present = idx >= 0
        rows = obs[np.arange(b), np.where(present, idx, 0), :]
        feats[:, slot, : obs.shape[2]] = np.where(present[:, None], rows, 0.0)
        feats[:, slot, -2:] = np.where(present[:, None], TYPE_ONE_HOT[kind], 0.0)
        mask[:, slot - 1] = present
    return feats, node_kinds, mask


def _random_nbrs(rng, b, muavs, cuavs):
    """(B, U, 2) tables whose entries are an agent of the column's kind
    other than the row's own, or -1 in about a third of the entries."""
    n = muavs + cuavs
    nbrs = np.full((b, n, 2), -1, dtype=np.int64)
    for u in range(n):
        for col, pool in enumerate((range(muavs), range(muavs, n))):
            pool = [i for i in pool if i != u]
            if pool:
                pick = rng.choice(pool, size=b)
                nbrs[:, u, col] = np.where(rng.random(b) < 0.35, -1, pick)
    return nbrs


@pytest.mark.parametrize("muavs,cuavs", [(1, 0), (2, 0), (1, 1), (2, 1), (3, 2),
                                         (1, 3), (4, 3)])
def test_feature_batch_bit_equal_per_slot_assembly(muavs, cuavs):
    cfg = WorldConfig(num_muavs=muavs, num_cuavs=cuavs)
    rng = np.random.default_rng(muavs * 10 + cuavs)
    b, n = 17, muavs + cuavs
    obs = rng.normal(size=(b, n, 31))
    obs[:, -1, :] = -np.abs(obs[:, -1, :]) - 0.5  # an absent slot's -1 reads these
    nbrs = _random_nbrs(rng, b, muavs, cuavs)
    for ego in range(n):
        feats, kinds, mask = local_feature_batch(obs, nbrs, ego, cfg)
        want_feats, want_kinds, want_mask = _reference_feature_batch(obs, nbrs, ego, cfg)
        assert kinds == want_kinds
        assert feats.shape == want_feats.shape and feats.tobytes() == want_feats.tobytes()
        assert mask.dtype == bool and mask.shape == want_mask.shape
        assert mask.tobytes() == want_mask.tobytes()
    if n > 1:
        assert (nbrs == -1).any(axis=(0, 1)).all()


def test_feature_batch_single_node_template():
    cfg = WorldConfig(num_muavs=1, num_cuavs=0)
    obs = -np.ones((4, 1, 31))
    feats, kinds, mask = local_feature_batch(obs, np.full((4, 1, 2), -1), 0, cfg)
    assert kinds == (MUAV,)
    assert feats.shape == (4, 1, local_feature_width(cfg)) and mask.shape == (4, 0)
    assert np.array_equal(feats[:, 0, :31], obs[:, 0])
