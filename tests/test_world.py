import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgam.errors import ConfigError, InfeasibleScenarioError
from hgam.world import (CUAV, MUAV, WorldConfig, generate_scenario, lens_area,
                        load_config, norms)


def test_default_scenario_counts():
    state = generate_scenario(WorldConfig(), seed=7)
    assert len(state.poi_m0) == 100
    assert state.pos.shape == (3, 2)
    assert state.config.kinds == [MUAV, MUAV, CUAV]
    assert len(state.obstacle_r) == 6
    assert state.t == 0 and not state.done


@pytest.mark.parametrize("muavs,cuavs", [(1, 1), (2, 1), (3, 2)])
def test_kinds_follow_scenario_fleet_order(muavs, cuavs):
    cfg = WorldConfig(num_muavs=muavs, num_cuavs=cuavs)
    for seed in range(3):
        assert generate_scenario(cfg, seed).pos.shape == (len(cfg.kinds), 2)
    assert cfg.kinds == [MUAV] * muavs + [CUAV] * cuavs


def test_scenario_initial_energies():
    state = generate_scenario(WorldConfig(), seed=3)
    assert state.ec.tolist() == state.ed.tolist() == [0.0] * 3
    assert state.er.tolist() == [50.0] * 3


def test_no_obstacles_always_generates():
    cfg = WorldConfig(num_obstacles=0)
    for seed in range(5):
        state = generate_scenario(cfg, seed)
        assert len(state.obstacle_r) == 0


def test_scenario_deterministic():
    a = generate_scenario(WorldConfig(), seed=11)
    b = generate_scenario(WorldConfig(), seed=11)
    assert np.array_equal(a.poi_xy, b.poi_xy)
    assert np.array_equal(a.poi_m0, b.poi_m0)
    assert np.array_equal(a.obstacle_xy, b.obstacle_xy)
    assert np.array_equal(a.pos, b.pos)


def test_obstacles_clear_of_uav_start_disks():
    for seed in range(10):
        state = generate_scenario(WorldConfig(), seed)
        for pos in state.pos:
            d = np.linalg.norm(state.obstacle_xy - pos, axis=1)
            assert np.all(d >= state.obstacle_r + state.config.uav_radius)


def test_obstacles_contained_in_area():
    state = generate_scenario(WorldConfig(), seed=5)
    cfg = state.config
    for c, r in zip(state.obstacle_xy, state.obstacle_r):
        assert r <= c[0] <= cfg.area_width - r
        assert r <= c[1] <= cfg.area_height - r


def test_infeasible_placement_raises():
    # arena smaller than any obstacle diameter: no placement can ever fit
    cfg = WorldConfig(area_width=0.7, area_height=0.7, num_muavs=1,
                      num_cuavs=0, num_pois=1, num_obstacles=1)
    with pytest.raises(InfeasibleScenarioError):
        generate_scenario(cfg, seed=0)


def test_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(step_length=0.0)
    with pytest.raises(ConfigError):
        WorldConfig(view_range=0.5, sense_radius=1.0)
    with pytest.raises(ConfigError):
        WorldConfig(w_f=1.5)
    with pytest.raises(ConfigError):
        WorldConfig(max_steps=0)
    # a negative rate or cost would let a run end in a metric error, or
    # let a MUAV gain energy by moving; a negative reward weight or penalty
    # would reward what it is meant to punish (with collision_penalty < 0 a
    # crash is the best action); zero is allowed
    for name in ("collect_rate", "charge_per_step", "beta", "kappa",
                 "laser_warn_dist", "w_c", "w_l", "w_e", "w_d",
                 "discovery_bonus", "rotation_penalty", "plow",
                 "collision_penalty", "laser_penalty"):
        with pytest.raises(ConfigError, match=f"{name} must be >= 0"):
            WorldConfig(**{name: -0.5})
        assert getattr(WorldConfig(**{name: 0.0}), name) == 0.0


def test_config_types_follow_annotations():
    cfg = WorldConfig(area_width=8, num_pois=np.int64(5),
                      sense_radius=np.float64(0.5), comm_radius=None)
    assert cfg.area_width == 8 and cfg.num_pois == 5
    for name, bad in (("area_width", True), ("num_pois", 5.0),
                      ("global_view", 1), ("comm_radius", "6"),
                      ("w_c", -math.inf)):
        with pytest.raises(ConfigError, match=f"{name} must be"):
            WorldConfig(**{name: bad})
    with pytest.raises(ConfigError, match="num_pois must be >= 0"):
        replace(WorldConfig(), num_pois=-1)


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "world.yaml"
    p.write_text("area_width: 8\narea_height: 8\nnum_pois: 20\n")
    cfg = load_config(WorldConfig, p)
    assert cfg.area_width == 8 and cfg.num_pois == 20
    assert cfg.num_muavs == 2  # default preserved


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "world.yaml"
    p.write_text("area_width: 8\nnot_a_field: 1\n")
    with pytest.raises(ConfigError, match="not_a_field"):
        load_config(WorldConfig, p)
    p.write_text("1: 2\nnot_a_field: 1\n")
    with pytest.raises(ConfigError, match=r"unknown keys \[1, 'not_a_field'\]"):
        load_config(WorldConfig, p)


def test_global_view_widens_fov():
    cfg = WorldConfig(global_view=True)
    assert cfg.fov == pytest.approx(math.hypot(16.0, 16.0))
    assert WorldConfig().fov == 4.0


# --- circle overlap ---------------------------------------------------------

def overlap(c1, c2, r):
    """Intersection area of two radius-r disks, computed the way
    `detect_dilemma` does: the lens formula at the `norms` distance."""
    return lens_area(float(norms(np.subtract(c1, c2, dtype=float))), r)


def test_overlap_full():
    assert overlap((3.0, 2.0), (3.0, 2.0), 1.0) == pytest.approx(math.pi)


def test_overlap_tangent():
    assert overlap((0.0, 0.0), (2.0, 0.0), 1.0) == 0.0


def test_overlap_unit_distance():
    # frozen from the Monte-Carlo oracle in test_overlap_matches_monte_carlo
    assert overlap((0.0, 0.0), (1.0, 0.0), 1.0) == pytest.approx(
        1.2283696986087567, abs=1e-12)


def test_overlap_matches_monte_carlo():
    rng = np.random.default_rng(0)
    r, d = 1.0, 1.0
    pts = rng.uniform((-1.0, -1.0), (2.0, 1.0), size=(200_000, 2))
    inside = (np.linalg.norm(pts, axis=1) <= r) & \
             (np.linalg.norm(pts - (d, 0.0), axis=1) <= r)
    est = inside.mean() * 3.0 * 2.0
    assert overlap((0.0, 0.0), (d, 0.0), r) == pytest.approx(est, rel=0.02)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0.1, 3.0))
def test_overlap_symmetric_and_bounded(x1, y1, x2, y2, r):
    a = overlap((x1, y1), (x2, y2), r)
    b = overlap((x2, y2), (x1, y1), r)
    assert a == pytest.approx(b, abs=1e-12)
    assert -1e-12 <= a <= math.pi * r * r + 1e-12


@settings(max_examples=50)
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.2, 2.0))
def test_overlap_monotone_in_distance(d1, d2, r):
    lo, hi = sorted((d1, d2))
    a_near = overlap((0.0, 0.0), (lo, 0.0), r)
    a_far = overlap((0.0, 0.0), (hi, 0.0), r)
    assert a_near >= a_far - 1e-12


@pytest.mark.parametrize("key", ["poi_radius", "low_battery_frac"])
def test_config_file_rejects_deleted_keys(tmp_path, key):
    p = tmp_path / "world.yaml"
    p.write_text(f"{key}: 0.1\n")
    with pytest.raises(ConfigError, match=key):
        load_config(WorldConfig, p)
