import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_state
from hgam.env import ChargeOutcome, StepEvents, step, uav_distances
from hgam.reward import (DILEMMA_WINDOW, cuav_hierarchical_penalty,
                         cuav_neglect_penalty, cuav_reward, detect_dilemma,
                         fairness_factor, muav_reward)
from hgam.world import WorldConfig


def make_events(num_muavs=2, num_uavs=3, collected=None, dist=None,
                charge=None, collided=None, min_laser=None, discovered=None,
                uav_dists=None):
    return StepEvents(
        collected=np.zeros(num_muavs) if collected is None else np.asarray(collected, dtype=float),
        collection_breakdown=[],
        dist_moved=np.zeros(num_uavs) if dist is None else np.asarray(dist, dtype=float),
        charge=charge or [],
        collided=np.zeros(num_uavs, dtype=bool) if collided is None else np.asarray(collided),
        min_laser=np.full(num_uavs, 4.0) if min_laser is None else np.asarray(min_laser, dtype=float),
        discovered=discovered if discovered is not None else [np.zeros(0, int)] * num_muavs,
        lasers=np.full((num_uavs, 16), 4.0),
        uav_dists=np.zeros((num_uavs, num_uavs)) if uav_dists is None else uav_dists,
        poi_dists=np.zeros((num_muavs, 0)),
    )


# --- fairness factor ----------------------------------------------------------

def test_fairness_equal_fleet_is_one():
    cfg = WorldConfig()
    s = build_state(cfg, [(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)])
    s.ed[:2] = 5.0
    s.ec[:2] = 2.0
    assert fairness_factor(s, cfg) == pytest.approx(1.0)


def test_fairness_weighted_blend():
    cfg = WorldConfig()  # w_f = 0.5
    s = build_state(cfg, [(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)])
    # first MUAV consumed and recharged a full battery: ec fraction 1, er 50;
    # second untouched: ec fraction 0, er 50. fc = jain([1,0]), fr = 1.
    s.ed[0] = 50.0
    s.ec[0] = 50.0
    assert fairness_factor(s, cfg) == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)


def test_fairness_all_zero_charge_convention():
    cfg = WorldConfig()
    s = build_state(cfg, [(2.0, 2.0), (4.0, 4.0), (8.0, 8.0)])
    assert fairness_factor(s, cfg) == 1.0


# --- muav reward ---------------------------------------------------------------

def test_muav_reward_collection_and_movement():
    cfg = WorldConfig()
    ev = make_events(collected=[0.4, 0.0], dist=[0.13, 0.0, 0.0])
    bd = muav_reward(ev, dilemma=False, m=0, config=cfg)
    assert bd.h == pytest.approx(0.2)
    assert bd.iota == pytest.approx(0.0026)
    assert bd.pl == 0.0 and bd.pb == 0.0
    assert bd.total == pytest.approx(0.2026)
    assert bd.total == bd.h + bd.iota - bd.pl - bd.pb


def test_muav_reward_collision_penalty():
    cfg = WorldConfig()
    ev = make_events(collided=[True, False, False])
    bd = muav_reward(ev, dilemma=False, m=0, config=cfg)
    assert bd.pb == pytest.approx(100.0)


def test_muav_reward_laser_warning():
    cfg = WorldConfig()
    ev = make_events(min_laser=[0.3, 4.0, 4.0])
    bd = muav_reward(ev, dilemma=False, m=0, config=cfg)
    assert bd.pb == pytest.approx(2.0)


def test_muav_rotation_penalty_gated_on_idle():
    cfg = WorldConfig()
    busy = muav_reward(make_events(collected=[0.2, 0.0]), True, 0, cfg)
    assert busy.pl == 0.0
    idle = muav_reward(make_events(), True, 0, cfg)
    assert idle.pl == pytest.approx(cfg.rotation_penalty)


def test_muav_discovery_bonus():
    cfg = WorldConfig()
    ev = make_events(discovered=[np.array([3, 7]), np.zeros(0, int)])
    bd = muav_reward(ev, dilemma=False, m=0, config=cfg)
    assert bd.iota == pytest.approx(2 * cfg.discovery_bonus)


# --- cuav penalties -------------------------------------------------------------

def test_neglect_penalty_formula():
    cfg = WorldConfig()
    s = build_state(cfg, [(0.0, 0.0), (5.0, 5.0), (2.0, 0.0)])
    s.ed[0] = 40.0   # er = 10, the needy one, at distance 2
    assert cuav_neglect_penalty(s, 2, uav_distances(s), cfg) == pytest.approx(
        0.1 * 2.0 + 1.6 * 10.0)


def test_neglect_penalty_colocated_empty():
    cfg = WorldConfig()
    s = build_state(cfg, [(2.0, 2.0), (5.0, 5.0), (2.0, 2.0)])
    s.ed[0] = 50.0   # er = 0
    assert cuav_neglect_penalty(s, 2, uav_distances(s), cfg) == pytest.approx(0.0)


def test_neglect_penalty_tie_goes_to_lowest_index():
    cfg = WorldConfig()
    s = build_state(cfg, [(1.0, 1.0), (6.0, 6.0), (6.0, 6.0)])
    # equal energies: target must be MUAV 0 at distance > 0
    val = cuav_neglect_penalty(s, 2, uav_distances(s), cfg)
    d0 = np.linalg.norm(s.pos[2] - s.pos[0])
    assert val == pytest.approx(0.1 * d0 + 1.6 * 50.0)


def outcome(target=None, delivered=0.0, target_er=50.0, full=False, mean=50.0):
    wasted = 0.5 - delivered if target is not None else 0.0
    return ChargeOutcome(target, delivered, wasted, target_er, full, mean)


def test_hierarchical_penalty_cases():
    cfg = WorldConfig()  # plow = 2.0
    assert cuav_hierarchical_penalty(outcome(None), cfg) == pytest.approx(2.0)
    assert cuav_hierarchical_penalty(
        outcome(0, 0.0, 50.0, full=True), cfg) == pytest.approx(2.4)
    assert cuav_hierarchical_penalty(
        outcome(0, 0.5, 45.0, mean=40.0), cfg) == pytest.approx(2.0 / 3.0)
    assert cuav_hierarchical_penalty(
        outcome(0, 0.5, 30.0, mean=40.0), cfg) == pytest.approx(0.5)


def test_cuav_reward_effective_charge():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.0), (8.0, 9.0), (8.0, 8.5)])
    # equal fleet so the fairness factor is 1
    ch = outcome(0, delivered=0.5, target_er=40.0, mean=40.0)
    ev = make_events(charge=[ch])
    bd = cuav_reward(s, ev, 2, cfg)
    assert bd.h == pytest.approx(1.6)
    assert bd.iota == 0.0
    assert bd.total == bd.h - bd.iota - bd.pl - bd.pb


def test_cuav_reward_idle_far_away():
    cfg = WorldConfig()
    s = build_state(cfg, [(1.0, 1.0), (2.0, 2.0), (14.0, 14.0)])
    ev = make_events(charge=[outcome(None)], uav_dists=uav_distances(s))
    bd = cuav_reward(s, ev, 2, cfg)
    assert bd.h == 0.0
    assert bd.pl == pytest.approx(2.0)
    assert bd.iota == pytest.approx(cuav_neglect_penalty(s, 2, uav_distances(s), cfg))
    assert bd.total == pytest.approx(-bd.iota - 2.0)


def test_cuav_reward_collision_penalty_applies():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.0), (8.0, 9.0), (8.0, 8.5)])
    ev = make_events(charge=[outcome(0, delivered=0.5, target_er=40.0, mean=40.0)],
                     collided=[False, False, True])
    bd = cuav_reward(s, ev, 2, cfg)
    assert bd.pb == pytest.approx(100.0)


# --- dilemma detection -----------------------------------------------------------

def fill_window(points):
    return deque((np.asarray(p, dtype=float) for p in points), maxlen=DILEMMA_WINDOW)


def test_dilemma_straight_line_false():
    pts = [(0.13 * k, 0.0) for k in range(10)]
    assert not detect_dilemma(fill_window(pts), 1.0)


def test_dilemma_return_to_start_true():
    pts = [(0.0, 0.0), (0.13, 0.0), (0.2, 0.1), (0.25, 0.0), (0.1, -0.05),
           (0.0, 0.0)]
    assert detect_dilemma(fill_window(pts), 1.0)


def test_dilemma_stationary_false():
    pts = [(1.0, 1.0)] * 10
    assert not detect_dilemma(fill_window(pts), 1.0)


def test_dilemma_short_window_false():
    assert not detect_dilemma(fill_window([(0, 0), (1, 0)]), 1.0)


def test_dilemma_window_caps_at_ten():
    w = fill_window([(k, 0) for k in range(25)])
    assert len(w) == 10
    assert w[0] == pytest.approx([15.0, 0.0])


@settings(max_examples=60)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0, 2 * math.pi))
def test_dilemma_rigid_motion_invariant(dx, dy, theta):
    pts = np.array([(0.0, 0.0), (0.13, 0.0), (0.2, 0.1), (0.15, 0.02),
                    (0.05, -0.01), (0.22, 0.2)])
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    moved = pts @ rot.T + (dx, dy)
    assert detect_dilemma(fill_window(pts), 1.0) == \
        detect_dilemma(fill_window(moved), 1.0)


# --- integration: rewards over a real step ---------------------------------------

def test_breakdown_identity_over_random_steps():
    from hgam.rollout import EpisodeTracker
    from hgam.world import generate_scenario

    state = generate_scenario(WorldConfig(max_steps=60), seed=13)
    tracker = EpisodeTracker(state)
    rng = np.random.default_rng(4)
    while not state.done:
        _, ev = step(state, list(rng.uniform(-1, 1, (3, 2))))
        table = tracker.after_step(state, ev)
        for h, iota, pl, pb, total in table[:2]:
            assert total == h + iota - pl - pb
        for h, iota, pl, pb, total in table[2:]:
            assert total == h - iota - pl - pb


def test_reward_table_rows_are_the_breakdowns():
    # a 12-UAV fleet steered greedily with noise, so MUAVs collect, circle
    # and CUAVs charge; each row of the step's table is the agent's
    # breakdown, and `component_totals` their running sum
    from hgam.harness import greedy_policy
    from hgam.reward import RewardBreakdown
    from hgam.rollout import EpisodeTracker
    from hgam.world import generate_scenario

    cfg = WorldConfig(num_muavs=8, num_cuavs=4, num_obstacles=0, max_steps=80)
    m, n = cfg.num_muavs, cfg.num_uavs
    state = generate_scenario(cfg, seed=2)
    tracker = EpisodeTracker(state)
    windows = [deque([pos.copy()], maxlen=DILEMMA_WINDOW) for pos in state.pos[:m]]
    totals = [[0.0] * len(RewardBreakdown._fields) for _ in range(n)]
    rng = np.random.default_rng(6)
    while not state.done:
        _, ev = step(state, greedy_policy(state) + rng.normal(0.0, 0.5, (n, 2)))
        table = tracker.after_step(state, ev)
        assert table.shape == (n, len(RewardBreakdown._fields))
        want = []
        for u in range(m):
            windows[u].append(state.pos[u].copy())
            dilemma = detect_dilemma(windows[u], cfg.sense_radius)
            want.append(muav_reward(ev, dilemma, u, cfg))
        want += [cuav_reward(state, ev, c, cfg) for c in range(m, n)]
        assert table.tolist() == [list(bd) for bd in want]
        for row, bd in zip(totals, want):
            for k, value in enumerate(bd):
                row[k] += value
        assert tracker.component_totals.tolist() == totals
    assert state.t > 10
    assert dict(zip(RewardBreakdown._fields, totals[0])) == \
        tracker.reward_components()[0]
