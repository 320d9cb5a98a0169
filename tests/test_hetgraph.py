import numpy as np
import pytest

from conftest import build_state, observations
from hgam.env import uav_distances
from hgam.hetgraph import (build_global_graph, build_local_graph,
                           global_action_slice, global_feature_batch,
                           global_feature_width, local_feature_batch,
                           local_feature_width, local_neighbors,
                           local_template)
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
    muav_nbr, cuav_nbr = local_neighbors(s, 0, uav_distances(s))
    assert muav_nbr == 1 and cuav_nbr is None


def test_comm_radius_caps_neighbors():
    cfg = WorldConfig(num_obstacles=0, comm_radius=3.0)
    s = build_state(cfg, [(4.0, 8.0), (10.0, 8.0), (8.0, 4.0)])
    muav_nbr, cuav_nbr = local_neighbors(s, 0, uav_distances(s))
    assert muav_nbr is None and cuav_nbr is None  # both beyond 3 units
    s.pos[1] = np.array([6.0, 8.0])
    assert local_neighbors(s, 0, uav_distances(s)) == (1, None)


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
    nbrs = np.full((1, 3, 2), -1, dtype=np.int64)
    for u in range(3):
        mn, cn = local_neighbors(s, u, uav_distances(s))
        nbrs[0, u] = (-1 if mn is None else mn, -1 if cn is None else cn)

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
