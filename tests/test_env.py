import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_state, observations
from hgam.env import (NUM_POI_BLOCKS, NUM_UAV_BLOCKS, _beam_dirs,
                      apply_action, cast_lasers, cuav_obs_len, max_obs_len,
                      muav_obs_len, observe, step, uav_distances)
from hgam.errors import ContractError
from hgam.rollout import joint_observation
from hgam.world import WorldConfig, generate_scenario


def test_apply_action_full_step():
    out = apply_action(np.zeros(2), np.array([1.0, 0.0]), 0.13)
    assert out == pytest.approx([0.13, 0.0])


def test_apply_action_zero_holds():
    out = apply_action(np.array([1.0, 1.0]), np.zeros(2), 0.13)
    assert out == pytest.approx([1.0, 1.0])


def test_apply_action_normalizes():
    out = apply_action(np.zeros(2), np.array([3.0, 4.0]), 0.13)
    assert out == pytest.approx([0.078, 0.104])


# --- lasers -----------------------------------------------------------------

def test_lasers_capped_at_fov():
    cfg = WorldConfig(num_obstacles=0)
    s = build_state(cfg, [(8.0, 8.0), (2.0, 2.0), (14.0, 14.0)])
    readings = cast_lasers(s)[0]
    assert np.all(readings == 4.0)


def test_laser_hits_obstacle_surface():
    cfg = WorldConfig()
    s = build_state(cfg, [(4.0, 8.0), (2.0, 2.0), (14.0, 14.0)],
                    obstacles=[(6.0, 8.0, 0.5)])
    readings = cast_lasers(s)[0]
    assert readings[0] == pytest.approx(1.5)  # beam 0 points along +x


def test_laser_wall_distance():
    cfg = WorldConfig(num_obstacles=0)
    s = build_state(cfg, [(0.5, 8.0), (2.0, 2.0), (14.0, 14.0)])
    readings = cast_lasers(s)[0]
    beam_pi = cfg.num_lasers // 2
    assert readings[beam_pi] == pytest.approx(0.5)


def test_laser_readings_positive_and_below_uav_radius_means_collision():
    cfg = WorldConfig()
    for seed in range(5):
        s = generate_scenario(cfg, seed)
        for u in range(3):
            r = cast_lasers(s)[u]
            assert np.all(r > 0.0) and np.all(r <= cfg.fov)
            assert np.all(r >= cfg.uav_radius)  # start states are clear


# The fleet kernels must stay bit-equal to the per-agent arithmetic they
# replaced, or fixed-seed outputs change. Both depend on numpy internals:
# `vecdot` and batched `matmul` round like the `dot` inside a per-vector
# `np.linalg.norm` and a 2-D `@`, while `np.linalg.norm(v, axis=-1)` and
# `hypot` do not.

def per_agent_lasers(state, u):
    """One UAV's readings as a single ray cast (the reference)."""
    cfg = state.config
    pos = state.pos[u]
    dirs = _beam_dirs(cfg.num_lasers)
    cap = cfg.fov
    readings = np.full(cfg.num_lasers, cap)
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(dirs[:, 0] > 0, (cfg.area_width - pos[0]) / dirs[:, 0],
                      np.where(dirs[:, 0] < 0, -pos[0] / dirs[:, 0], np.inf))
        ty = np.where(dirs[:, 1] > 0, (cfg.area_height - pos[1]) / dirs[:, 1],
                      np.where(dirs[:, 1] < 0, -pos[1] / dirs[:, 1], np.inf))
    t_wall = np.minimum(np.where(tx > 0, tx, np.inf), np.where(ty > 0, ty, np.inf))
    readings = np.minimum(readings, t_wall)
    if len(state.obstacle_r) > 0:
        rel = state.obstacle_xy - pos[None, :]
        b = dirs @ rel.T
        c2 = np.sum(rel ** 2, axis=1)[None, :] - state.obstacle_r[None, :] ** 2
        disc = b * b - c2
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t_near = b - sq
        t_far = b + sq
        t_obs = np.where(hit & (t_near > 0), t_near,
                         np.where(hit & (t_far > 0), t_far, np.inf))
        readings = np.minimum(readings, t_obs.min(axis=1))
    return np.minimum(readings, cap)


@pytest.mark.parametrize("cfg", [WorldConfig(), WorldConfig(global_view=True),
                                 WorldConfig(num_muavs=4, num_cuavs=2,
                                             num_lasers=24)])
def test_fleet_lasers_bit_equal_per_agent_cast(cfg):
    rng = np.random.default_rng(11)
    checked = {"free": 0, "wall": 0, "obstacle": 0}
    for seed in range(40):
        s = generate_scenario(cfg, seed)
        for u in range(len(s.pos)):
            mode = rng.choice(list(checked))
            if mode == "wall":
                # within half a unit of one wall, sometimes just outside it
                axis = rng.integers(2)
                side = (cfg.area_width, cfg.area_height)[axis] * rng.integers(2)
                s.pos[u, axis] = side + rng.uniform(-0.5, 0.5)
            elif mode == "obstacle":
                # around an obstacle's surface, sometimes inside it
                b = rng.integers(len(s.obstacle_r))
                ang = rng.uniform(0.0, 2.0 * math.pi)
                gap = s.obstacle_r[b] + rng.uniform(-0.2, 0.5)
                s.pos[u] = s.obstacle_xy[b] + gap * np.array([math.cos(ang), math.sin(ang)])
            checked[mode] += 1
        fleet = cast_lasers(s)
        assert fleet.shape == (len(s.pos), cfg.num_lasers)
        for u in range(len(s.pos)):
            assert fleet[u].tobytes() == per_agent_lasers(s, u).tobytes()
    assert min(checked.values()) >= 20
    # exactly on a wall, in corners, on an obstacle's center and surface
    s = generate_scenario(cfg, 0)
    ox, oy = s.obstacle_xy[0]
    spots = [(0.0, 8.0), (cfg.area_width, cfg.area_height), (8.0, 0.0),
             (0.0, 0.0), (ox, oy), (ox + s.obstacle_r[0], oy)]
    for k in range(0, len(spots), len(s.pos)):
        for u, spot in zip(range(len(s.pos)), spots[k:]):
            s.pos[u] = np.array(spot)
        fleet = cast_lasers(s)
        for u in range(len(s.pos)):
            assert fleet[u].tobytes() == per_agent_lasers(s, u).tobytes()


@pytest.mark.parametrize("cfg", [WorldConfig(), WorldConfig(global_view=True),
                                 WorldConfig(num_muavs=4, num_cuavs=2,
                                             num_lasers=24)])
def test_joint_observation_at_extreme_spots(cfg):
    # the exact spots above, each shared by MUAV 0, CUAV c and PoI 0
    s = generate_scenario(cfg, 0)
    ox, oy = s.obstacle_xy[0]
    spots = [(0.0, 8.0), (cfg.area_width, cfg.area_height), (8.0, 0.0),
             (0.0, 0.0), (ox, oy), (ox + s.obstacle_r[0], oy)]
    c, lasers = cfg.num_muavs, cfg.num_lasers
    for k in range(len(spots)):
        for u in range(cfg.num_uavs):
            s.pos[u] = spots[(k + u) % len(spots)]
        s.pos[c] = s.pos[0]
        s.poi_xy[0] = s.pos[0]
        obs, _ = joint_observation(s)
        assert obs.shape == (cfg.num_uavs, max_obs_len(cfg))
        assert np.isfinite(obs).all()
        assert np.all(obs[:, :lasers] >= 0.0) and np.all(obs[:, :lasers] <= cfg.fov)
        # the nearest UAV block: zero unit vector, distance 0, partner's kind
        assert obs[0, lasers: lasers + 4].tolist() == [0.0, 0.0, 0.0, 1.0]
        assert obs[c, lasers: lasers + 4].tolist() == [0.0, 0.0, 0.0, 0.0]
        # CUAV c's entry for MUAV 0 and MUAV 0's nearest PoI block
        assert obs[c, lasers + 10: lasers + 13].tolist() == [0.0, 0.0, 0.0]
        poi = lasers + 4 * NUM_UAV_BLOCKS
        assert obs[0, poi: poi + 3].tolist() == [0.0, 0.0, s.poi_rem[0]]


def toward_nearest_wall(cfg, pos):
    """Unit actions (U, 2) toward each UAV's nearest enclosure wall."""
    gaps = np.stack([pos[:, 0], cfg.area_width - pos[:, 0],
                     pos[:, 1], cfg.area_height - pos[:, 1]], axis=1)
    dirs = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])
    return dirs[np.argmin(gaps, axis=1)]


@pytest.mark.parametrize("cfg", [WorldConfig(), WorldConfig(global_view=True),
                                 WorldConfig(num_muavs=4, num_cuavs=2,
                                             num_lasers=24)])
@pytest.mark.parametrize("move", ["zero", "wall"])
@pytest.mark.parametrize("headroom", [0.0, 0.75, 10.0])   # in charge quanta
def test_step_at_extreme_spots(cfg, move, headroom):
    # the spots of the observation test, each shared by MUAV 0, CUAV c and
    # PoI 0, with MUAV 0 short of `headroom` charge quanta
    c, e0, r = cfg.num_muavs, cfg.charge_per_step, cfg.uav_radius
    for k in range(6):
        s = generate_scenario(cfg, 0)
        ox, oy = s.obstacle_xy[0]
        spots = [(0.0, 8.0), (cfg.area_width, cfg.area_height), (8.0, 0.0),
                 (0.0, 0.0), (ox, oy), (ox + s.obstacle_r[0], oy)]
        for u in range(cfg.num_uavs):
            s.pos[u] = spots[(k + u) % len(spots)]
        s.pos[c] = s.pos[0]
        s.poi_xy[0] = s.pos[0]
        s.ed[0] = s.ec[0] + headroom * e0
        gap, rem = s.ed[0] - s.ec[0], s.poi_rem[0]
        actions = (np.zeros((cfg.num_uavs, 2)) if move == "zero"
                   else toward_nearest_wall(cfg, s.pos))
        _, ev = step(s, actions)

        for arr in (ev.collected, ev.dist_moved, ev.min_laser, ev.lasers,
                    ev.uav_dists, ev.poi_dists):
            assert np.isfinite(arr).all()
        assert np.all(ev.lasers >= 0.0) and np.all(ev.lasers <= cfg.fov)
        x, y = s.pos[:, 0], s.pos[:, 1]
        hit = ((x < r) | (x > cfg.area_width - r) | (y < r)
               | (y > cfg.area_height - r))
        d = np.linalg.norm(s.obstacle_xy[None] - s.pos[:, None], axis=2)
        hit |= np.any(d < s.obstacle_r + r, axis=1)
        assert ev.collided.tolist() == hit.tolist()
        assert s.done_reason == ("collision" if hit.any() else None)

        charge = ev.charge[0]
        assert charge.target == 0
        assert charge.delivered == min(gap, e0)
        assert charge.delivered + charge.wasted == e0
        assert all(np.isfinite([o.delivered, o.wasted]).all() for o in ev.charge)
        # every take is an exact decrement, so their exact sum is the loss
        takes = [(m, take) for m, p, take in ev.collection_breakdown if p == 0]
        assert takes[0][0] == 0 and takes[0][1] > 0.0
        assert rem - s.poi_rem[0] == math.fsum(take for _, take in takes)


scaled = st.builds(lambda m, scale: m * scale, st.floats(-16.0, 16.0),
                   st.sampled_from([1e-150, 1.0, 1e150]))


@settings(max_examples=200)
@given(st.lists(st.tuples(scaled, scaled), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=6))
@example([(1e-150, -3e-150), (2e-150, 5e-151)], [0, 1, 0])
@example([(1e150, -3e150), (-2e150, 5e149)], [0, 1, 1])
def test_uav_distances_bit_equal_per_pair_norm(pool, picks):
    # repeated picks put several UAVs on one point
    pos = [pool[i % len(pool)] for i in picks]
    cfg = WorldConfig(num_muavs=len(pos), num_cuavs=0, num_obstacles=0)
    s = build_state(cfg, pos)
    got = uav_distances(s)
    assert got.shape == (len(pos), len(pos))
    for i, a in enumerate(s.pos):
        for j, b in enumerate(s.pos):
            want = np.linalg.norm(b - a)
            assert got[i, j].tobytes() == want.tobytes()


# --- step dynamics ----------------------------------------------------------

def _idle(n):
    return [np.zeros(2) for _ in range(n)]


def test_collection_basic():
    cfg = WorldConfig(num_cuavs=1)
    s = build_state(cfg, [(4.0, 4.0), (12.0, 12.0), (8.0, 8.0)],
                    poi_pos=[(4.0, 4.9)], poi_m0=[1.0])
    _, ev = step(s, _idle(3))
    assert ev.collected[0] == pytest.approx(0.2)
    assert s.poi_rem[0] == pytest.approx(0.8)
    assert ev.collected[1] == 0.0


def test_collection_sequential_flooring():
    # both MUAVs in range of one PoI holding less than two takes
    cfg = WorldConfig()
    s = build_state(cfg, [(4.0, 4.4), (4.0, 3.6), (12.0, 12.0)],
                    poi_pos=[(4.0, 4.0)], poi_m0=[0.3])
    _, ev = step(s, _idle(3))
    assert ev.collected[0] == pytest.approx(0.2)
    assert ev.collected[1] == pytest.approx(0.1)
    assert s.poi_rem[0] == 0.0


def test_charging_prefers_closest_muav():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.4), (8.0, 9.2), (8.0, 8.0)])
    # give both MUAVs headroom so delivery is possible
    s.ed[0] = 1.0
    s.ed[1] = 1.0
    _, ev = step(s, _idle(3))
    assert ev.charge[0].target == 0
    assert ev.charge[0].delivered == pytest.approx(0.5)
    assert s.ec[0] == pytest.approx(0.5)
    assert s.ec[1] == 0.0


def test_charging_full_battery_wasted():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.4), (14.0, 2.0), (8.0, 8.0)])
    _, ev = step(s, _idle(3))
    assert ev.charge[0].target == 0
    assert ev.charge[0].delivered == 0.0
    assert ev.charge[0].wasted == pytest.approx(0.5)
    assert ev.charge[0].target_full


def test_charge_delivered_plus_wasted_is_quantum():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.4), (14.0, 2.0), (8.0, 8.0)])
    s.ed[0] = 0.13
    _, ev = step(s, _idle(3))
    out = ev.charge[0]
    assert out.delivered == pytest.approx(0.13)
    assert out.delivered + out.wasted == pytest.approx(cfg.charge_per_step)


def test_energy_consumption_formula():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1)
    s = build_state(cfg, [(8.0, 8.0)], poi_pos=[(8.3, 8.0)], poi_m0=[1.0])
    _, ev = step(s, [np.array([0.0, 1.0])])
    # collected 0.2 plus moved 0.13 with beta = kappa = 1
    assert ev.collected[0] == pytest.approx(0.2)
    assert ev.dist_moved[0] == pytest.approx(0.13)
    assert s.ed[0] == pytest.approx(0.33)
    assert s.er[0] == pytest.approx(50.0 - 0.33)


def test_wall_exit_is_collision():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0)
    s = build_state(cfg, [(0.25, 8.0)])
    _, ev = step(s, [np.array([-1.0, 0.0])])
    assert ev.collided[0]
    assert s.done and s.done_reason == "collision"


def test_obstacle_hit_is_collision():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1)
    s = build_state(cfg, [(4.0, 8.0)], obstacles=[(4.7, 8.0, 0.5)])
    _, ev = step(s, [np.array([1.0, 0.0])])
    assert ev.collided[0] and s.done


def test_max_steps_terminates():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, max_steps=3)
    s = build_state(cfg, [(8.0, 8.0)])
    for _ in range(3):
        step(s, _idle(1))
    assert s.done and s.done_reason == "max_steps"


def test_step_after_done_raises():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, max_steps=1)
    s = build_state(cfg, [(8.0, 8.0)])
    step(s, _idle(1))
    with pytest.raises(ContractError):
        step(s, _idle(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 1, 2])
def test_non_finite_action_raises_before_state_changes(bad, row):
    s = generate_scenario(WorldConfig(), 1)
    pos, velocity, ed = s.pos.copy(), s.velocity.copy(), s.ed.copy()
    acts = [np.array([0.5, -0.5]) for _ in range(3)]
    acts[row] = np.array([0.3, bad]) if row % 2 else np.array([bad, 0.3])
    with pytest.raises(ContractError, match=f"agent {row}"):
        step(s, acts)
    assert s.pos.tobytes() == pos.tobytes() and s.t == 0 and not s.done
    assert s.velocity.tobytes() == velocity.tobytes()
    assert s.ed.tobytes() == ed.tobytes()


@pytest.mark.parametrize("bad", [
    [np.zeros(3), np.zeros(1), np.zeros(2)],   # ragged rows
    np.zeros((3, 4)),
    [np.zeros(1)] * 3,
    np.zeros((3, 2, 1)),
    np.zeros((3, 1, 2)),
], ids=["ragged", "3x4", "3x1", "3x2x1", "3x1x2"])
def test_wrong_shaped_actions_raise_before_state_changes(bad):
    s = generate_scenario(WorldConfig(), 1)
    pos, velocity, ed = s.pos.copy(), s.velocity.copy(), s.ed.copy()
    with pytest.raises(ContractError, match=r"shape \(3, 2\), got"):
        step(s, bad)
    assert s.pos.tobytes() == pos.tobytes() and s.t == 0 and not s.done
    assert s.velocity.tobytes() == velocity.tobytes()
    assert s.ed.tobytes() == ed.tobytes()


def _depleting(cfg, muav_pos):
    """One MUAV with 0.1 energy left, which one full step (0.13) empties,
    and one CUAV out of its charge radius."""
    s = build_state(cfg, [muav_pos, (2.0, 2.0)])
    s.ed[0] = cfg.initial_energy - 0.1
    return s


def test_energy_depletion_ends_episode():
    cfg = WorldConfig(num_muavs=1, num_cuavs=1, num_obstacles=0, num_pois=0)
    s = _depleting(cfg, (8.0, 8.0))
    step(s, [np.array([1.0, 0.0]), np.zeros(2)])
    assert s.er[0] <= 0.0
    assert s.done and s.done_reason == "energy"


def test_collision_outranks_depletion_in_one_step():
    cfg = WorldConfig(num_muavs=1, num_cuavs=1, num_obstacles=0, num_pois=0)
    s = _depleting(cfg, (0.25, 8.0))
    _, ev = step(s, [np.array([-1.0, 0.0]), np.zeros(2)])
    assert ev.collided[0] and s.er[0] <= 0.0
    assert s.done and s.done_reason == "collision"


def test_depletion_on_the_last_step_reports_energy():
    cfg = WorldConfig(num_muavs=1, num_cuavs=1, num_obstacles=0, num_pois=0,
                      max_steps=1)
    s = _depleting(cfg, (8.0, 8.0))
    step(s, [np.array([1.0, 0.0]), np.zeros(2)])
    assert s.t == cfg.max_steps
    assert s.done and s.done_reason == "energy"


@pytest.mark.parametrize("ed0", [0.7, 0.3])
def test_two_cuavs_charge_one_muav_in_index_order(ed0):
    # CUAV 2 is out of range; CUAVs 3 and 4 reach MUAV 0 only, whose
    # headroom ed0 is under two quanta: CUAV 3 charges first, and CUAV 4
    # sees its top-up
    cfg = WorldConfig(num_muavs=2, num_cuavs=3, num_obstacles=0, num_pois=0)
    s = build_state(cfg, [(8.0, 8.0), (14.0, 2.0), (2.0, 14.0), (8.0, 8.5),
                          (8.0, 7.0)])
    s.ed[0] = ed0
    e0, full = cfg.charge_per_step, cfg.initial_energy
    _, ev = step(s, _idle(5))
    idle, first, second = ev.charge
    assert idle.target is None and first.target == second.target == 0
    assert first.target_er == full - ed0 and not first.target_full
    assert first.muav_er_mean == (full - ed0 + full) / 2
    if ed0 > e0:    # a full quantum, then the rest of the headroom
        assert first.delivered == e0
        assert second.target_er == full + e0 - ed0
        assert second.delivered == ed0 - e0 and not second.target_full
    else:           # the first charge tops up, the second finds it full
        assert first.delivered == ed0
        assert second.target_er == full + ed0 - ed0
        assert second.delivered == 0.0 and second.target_full
    assert second.muav_er_mean == (second.target_er + full) / 2
    for out in (first, second):
        assert out.delivered + out.wasted == e0
    assert s.ec[0] == s.ed[0] == ed0   # topped up exactly: ec <= ed bitwise
    assert s.ec[1] == 0.0


def test_step_deterministic():
    cfg = WorldConfig()
    s1 = generate_scenario(cfg, 42)
    s2 = generate_scenario(cfg, 42)
    rng = np.random.default_rng(1)
    acts = list(rng.uniform(-1, 1, (3, 2)))
    _, ev1 = step(s1, acts)
    _, ev2 = step(s2, acts)
    assert np.array_equal(ev1.collected, ev2.collected)
    assert np.array_equal(s1.poi_rem, s2.poi_rem)
    assert np.array_equal(s1.pos, s2.pos)
    assert np.array_equal(s1.ed, s2.ed) and np.array_equal(s1.ec, s2.ec)


# --- observations -----------------------------------------------------------

def test_observation_lengths_default():
    cfg = WorldConfig()
    assert muav_obs_len(cfg) == 49
    assert cuav_obs_len(cfg) == 41
    assert max_obs_len(cfg) == 49
    s = generate_scenario(cfg, 7)
    assert len(observations(s)[0]) == 49
    assert len(observations(s)[2]) == 41


def test_observation_poi_block_zero_padded():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, num_pois=1)
    s = build_state(cfg, [(8.0, 8.0)], poi_pos=[(1.0, 1.0)], poi_m0=[1.0])
    obs = observations(s)[0]
    poi_block = obs[cfg.num_lasers + 8: cfg.num_lasers + 8 + 15]
    assert np.all(poi_block == 0.0)  # the only PoI is out of view


def test_observation_absent_uav_blocks_pad_with_fov():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, num_pois=0)
    s = build_state(cfg, [(8.0, 8.0)])
    obs = observations(s)[0]
    blocks = obs[cfg.num_lasers: cfg.num_lasers + 8].reshape(2, 4)
    for b in blocks:
        assert b == pytest.approx([0.0, 0.0, cfg.fov, 0.0])


def test_observation_poi_blocks_nearest_first():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, num_pois=3)
    s = build_state(cfg, [(8.0, 8.0)],
                    poi_pos=[(10.5, 8.0), (8.5, 8.0), (9.5, 8.0)],
                    poi_m0=[0.9, 0.8, 0.7])
    obs = observations(s)[0]
    start = cfg.num_lasers + 8
    blocks = obs[start: start + 15].reshape(5, 3)
    assert blocks[0] == pytest.approx([1.0, 0.0, 0.8])   # nearest
    assert blocks[1] == pytest.approx([1.0, 0.0, 0.7])
    assert blocks[2] == pytest.approx([1.0, 0.0, 0.9])
    assert np.all(blocks[3:] == 0.0)


def test_observation_depleted_pois_hidden():
    cfg = WorldConfig(num_cuavs=0, num_muavs=1, num_obstacles=0, num_pois=1)
    s = build_state(cfg, [(8.0, 8.0)], poi_pos=[(8.5, 8.0)], poi_m0=[1.0])
    s.poi_rem[0] = 0.0
    obs = observations(s)[0]
    start = cfg.num_lasers + 8
    assert np.all(obs[start: start + 15] == 0.0)


def _poi_block_reference(state, m):
    """MUAV m's PoI blocks one PoI at a time: visible PoIs ordered by
    (distance, index), each unit vector divided on its own."""
    pos = state.pos[m]
    dists = np.linalg.norm(state.poi_xy - pos, axis=1)
    visible = np.nonzero((state.poi_rem > 0.0) & (dists <= state.config.fov))[0]
    order = sorted(visible, key=lambda p: (dists[p], p))[:NUM_POI_BLOCKS]
    out = []
    for p in order:
        d = dists[p]
        ux, uy = (state.poi_xy[p] - pos) / d if d > 0 else (0.0, 0.0)
        out += [float(ux), float(uy), float(state.poi_rem[p])]
    return np.array(out + [0.0, 0.0, 0.0] * (NUM_POI_BLOCKS - len(order)))


def _tied_state():
    cfg = WorldConfig(num_obstacles=0, num_pois=31)
    step_x = 4.0 + cfg.step_length
    # MUAV 0 sits on PoI 6 with 27 PoIs one unit away (repeated points on
    # the four axis neighbours, more than a sort handles by insertion);
    # MUAV 1 moves onto PoI 10 (see below)
    pois = [(9.0, 8.0), (7.0, 8.0), (9.0, 8.0), (8.0, 9.0), (8.0, 7.0),
            (7.0, 8.0), (8.0, 8.0), (9.0, 8.0), (4.0, 5.0), (4.0, 3.0),
            (step_x, 4.0)] + [(8.0, 9.0), (8.0, 7.0)] * 10
    return build_state(cfg, [(8.0, 8.0), (4.0, 4.0), (12.0, 12.0)],
                       poi_pos=pois, poi_m0=np.linspace(0.5, 1.5, 31))


def test_observation_reads_step_poi_distances():
    # observations built from the step's (M, P) PoI distances equal fresh
    # ones bit for bit, and so does the PoI block against a per-PoI loop
    start = WorldConfig().num_lasers + 4 * NUM_UAV_BLOCKS
    rng = np.random.default_rng(3)
    states = [_tied_state()] + [generate_scenario(WorldConfig(), seed)
                                for seed in range(4)]
    for s in states:
        first = True
        for _ in range(30):
            if first:  # the tied state's MUAV 1 lands exactly on PoI 10
                acts = [np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)]
            else:
                acts = list(rng.uniform(-1, 1, (3, 2)))
            first = False
            _, ev = step(s, acts)
            assert ev.poi_dists.shape == (s.num_muavs, len(s.poi_xy))
            fresh = observations(s)
            for u in range(len(s.pos)):
                got = observe(s, u, ev.lasers, ev.uav_dists, ev.poi_dists)
                assert got.tobytes() == fresh[u].tobytes()
            for m, pos in enumerate(s.pos[: s.num_muavs]):
                want = np.linalg.norm(s.poi_xy - pos, axis=1)
                assert ev.poi_dists[m].tobytes() == want.tobytes()
                block = fresh[m][start: start + 3 * NUM_POI_BLOCKS]
                assert block.tobytes() == _poi_block_reference(s, m).tobytes()
            if s.done:
                break
    tied = _tied_state()
    step(tied, [np.zeros(2), np.array([1.0, 0.0]), np.zeros(2)])
    assert np.array_equal(tied.pos[1], tied.poi_xy[10])
    blocks = observations(tied)[0][start: start + 15].reshape(5, 3)
    assert blocks[0].tolist() == [0.0, 0.0, tied.poi_rem[6]]   # under MUAV 0
    assert blocks[1:, 2].tolist() == tied.poi_rem[[0, 1, 2, 3]].tolist()


def test_cuav_energy_table():
    cfg = WorldConfig()
    s = build_state(cfg, [(8.0, 8.0), (8.0, 10.0), (8.0, 9.0)])
    s.ed[0] = 10.0
    s.ec[0] = 4.0
    obs = observations(s)[2]
    start = cfg.num_lasers + 8
    table = obs[start: start + 10].reshape(2, 5)
    assert table[0] == pytest.approx([(50.0 - 6.0) / 50.0, 4.0 / 50.0, 0.0, -1.0, 1.0])
    assert table[1] == pytest.approx([1.0, 0.0, 0.0, 1.0, 1.0])


def test_observation_self_block_and_type_onehot():
    cfg = WorldConfig(num_obstacles=0)
    s = build_state(cfg, [(4.0, 8.0), (12.0, 8.0), (8.0, 8.0)])
    obs_m = observations(s)[0]
    obs_c = observations(s)[2]
    assert obs_m[-2:] == pytest.approx([1.0, 0.0])
    assert obs_c[-2:] == pytest.approx([0.0, 1.0])
    # normalized position of the first MUAV
    assert obs_m[cfg.num_lasers + 8 + 15 + 2: cfg.num_lasers + 8 + 15 + 4] == \
        pytest.approx([0.25, 0.5])


# --- conservation properties -------------------------------------------------

def test_data_conservation_random_episode():
    cfg = WorldConfig(max_steps=120)
    s = generate_scenario(cfg, 3)
    rng = np.random.default_rng(5)
    takes = []
    while not s.done:
        _, ev = step(s, list(rng.uniform(-1, 1, (3, 2))))
        takes += [t for _, _, t in ev.collection_breakdown]
    assert math.fsum(takes) == math.fsum(s.poi_m0 - s.poi_rem)


def test_energy_identity_every_step():
    cfg = WorldConfig(max_steps=150)
    s = generate_scenario(cfg, 9)
    rng = np.random.default_rng(2)
    while not s.done:
        step(s, list(rng.uniform(-1, 1, (3, 2))))
        for m in range(s.num_muavs):
            assert s.er[m] == cfg.initial_energy + s.ec[m] - s.ed[m]
            assert s.ec[m] <= s.ed[m]
