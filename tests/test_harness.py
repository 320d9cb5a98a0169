import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import build_state
from hgam import env, harness, rollout, training
from hgam.cli import main
from hgam.env import step
from hgam.errors import ConfigError
from hgam.harness import (ActorPolicy, GreedyPolicy, RandomPolicy, evaluate,
                          greedy_policy, make_policy)
from hgam.hetgraph import local_feature_batch
from hgam.neural import forward, load_checkpoint, save_checkpoint
from hgam.rollout import joint_observation, run_episode
from hgam.training import TrainConfig, Trainer, train
from hgam.world import WorldConfig, generate_scenario, load_config


def test_greedy_muav_heads_to_nearest_poi():
    cfg = WorldConfig(num_muavs=1, num_cuavs=0, num_obstacles=0, num_pois=1)
    s = build_state(cfg, [(4.0, 4.0)], poi_pos=[(7.0, 8.0)], poi_m0=[1.0])
    a = greedy_policy(s)[0]
    assert a == pytest.approx([0.6, 0.8])


def test_greedy_muav_dwells_in_sense_range():
    cfg = WorldConfig(num_muavs=1, num_cuavs=0, num_obstacles=0, num_pois=1)
    s = build_state(cfg, [(4.0, 4.0)], poi_pos=[(4.5, 4.0)], poi_m0=[1.0])
    assert greedy_policy(s)[0] == pytest.approx([0.0, 0.0])
    s.poi_rem[0] = 0.0   # depleted: nothing left to chase
    assert greedy_policy(s)[0] == pytest.approx([0.0, 0.0])


def test_greedy_cuav_tracks_lowest_battery():
    cfg = WorldConfig(num_obstacles=0, num_pois=0)
    s = build_state(cfg, [(2.0, 8.0), (14.0, 8.0), (8.0, 8.0)])
    s.ed[1] = 30.0   # the far MUAV is needier
    a = greedy_policy(s)[2]
    assert a == pytest.approx([1.0, 0.0])
    s.pos[2] = np.array([13.0, 8.0])  # within charge radius: dwell
    assert greedy_policy(s)[2] == pytest.approx([0.0, 0.0])


def greedy_reference(state, u):
    """UAV u's greedy action by the per-agent rule that `greedy_policy`
    computes for the whole fleet at once."""
    pos = state.pos[u]
    if u < state.num_muavs:
        live = state.poi_rem > 0.0
        if not np.any(live):
            return np.zeros(2)
        dists = np.linalg.norm(state.poi_xy - pos, axis=1)
        masked = np.where(live, dists, np.inf)
        p = int(np.argmin(masked))
        if masked[p] <= state.config.sense_radius:
            return np.zeros(2)
        direction = state.poi_xy[p] - pos
    else:
        if state.num_muavs == 0:
            return np.zeros(2)
        target = int(np.argmin(state.er[: state.num_muavs]))
        direction = state.pos[target] - pos
        if float(np.linalg.norm(direction)) <= state.config.charge_radius:
            return np.zeros(2)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        return np.zeros(2)
    return direction / norm


def assert_greedy_is_reference(state):
    got = greedy_policy(state)
    want = np.array([greedy_reference(state, u)
                     for u in range(state.config.num_uavs)]).reshape(-1, 2)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()   # bit for bit, signs of zero too
    return got


@pytest.mark.parametrize("muavs, cuavs, pois", [(1, 1, 20), (2, 1, 100),
                                                (8, 4, 100), (2, 1, 2)])
def test_greedy_policy_is_the_per_agent_rule(muavs, cuavs, pois):
    # random walks, mixed with greedy moves, through worlds of U = 2, 3 and
    # 12; some states put a UAV on another UAV or on a PoI, or empty PoIs
    # (the 2-PoI world runs dry)
    cfg = WorldConfig(num_muavs=muavs, num_cuavs=cuavs, num_pois=pois,
                      max_steps=60)
    n = cfg.num_uavs
    rng = np.random.default_rng(100 * muavs + pois)
    checked = dry = 0
    for seed in range(6):
        state = generate_scenario(cfg, seed)
        while not state.done:
            u = int(rng.integers(n))
            draw = rng.random()
            if draw < 0.15:
                state.pos[u] = state.pos[int(rng.integers(n))]
            elif draw < 0.3:
                state.pos[u] = state.poi_xy[int(rng.integers(pois))]
            elif draw < 0.35:
                state.poi_rem[rng.random(pois) < rng.random()] = 0.0
            greedy = assert_greedy_is_reference(state)
            checked += 1
            dry += not np.any(state.poi_rem > 0.0)
            _, events = step(state, greedy if rng.random() < 0.5
                             else rng.uniform(-1, 1, (n, 2)))
            # the step's PoI distances stand in for sensing the state again
            assert (greedy_policy(state, events).tobytes()
                    == greedy_policy(state).tobytes())
    assert checked > 30 and (pois > 2 or dry > 0)


def test_greedy_policy_edge_states():
    # every PoI empty: the argmin over all-inf distances picks PoI 0, which
    # must not become a goal
    cfg = WorldConfig(num_obstacles=0, num_pois=2)
    s = build_state(cfg, [(4.0, 4.0), (5.0, 5.0), (4.0, 4.0)],
                    poi_pos=[(8.0, 8.0), (9.0, 9.0)], poi_m0=[0.0, 0.0])
    assert not assert_greedy_is_reference(s).any()   # the CUAV sits on MUAV 0
    # no PoI: the MUAVs stay, the CUAV shadows MUAV 0
    s = build_state(replace(cfg, num_pois=0), [(4.0, 4.0), (5.0, 5.0), (8.0, 4.0)])
    assert assert_greedy_is_reference(s).tolist() == [[0.0, 0.0], [0.0, 0.0],
                                                      [-1.0, 0.0]]
    # no MUAV: the CUAVs have nobody to shadow
    s = build_state(replace(cfg, num_muavs=0, num_cuavs=2),
                    [(4.0, 4.0), (9.0, 9.0)], poi_pos=[(8.0, 8.0), (9.0, 9.0)],
                    poi_m0=[1.0, 1.0])
    assert not assert_greedy_is_reference(s).any()


def random_actions(num_uavs, seed, calls=1):
    """`calls` joint actions of a RandomPolicy reset to `seed`, stacked."""
    state = generate_scenario(WorldConfig(num_muavs=num_uavs, num_cuavs=0,
                                          num_pois=0, num_obstacles=0), 0)
    policy = RandomPolicy()
    policy.reset(seed)
    return np.concatenate([policy.actions(state, None) for _ in range(calls)])


def test_random_policy_range_and_determinism():
    acts = random_actions(3, seed=3, calls=334)
    assert np.all(acts >= -1.0) and np.all(acts <= 1.0)
    again = random_actions(3, seed=3)
    assert np.array_equal(acts[0], again[0])


def test_random_policy_mean_statistics():
    draws = random_actions(500_000, seed=99)
    se = (1.0 / np.sqrt(3.0)) / np.sqrt(draws.size)
    assert abs(draws.mean()) < 4 * se


def test_evaluate_report_structure(mini_config):
    report = evaluate(GreedyPolicy(), mini_config, episodes=3, seed=0)
    assert report["policy"] == "greedy"
    assert len(report["per_episode"]) == 3
    row = report["per_episode"][0]
    for key in ("C", "omega", "upsilon", "D", "F", "episode_len",
                "terminated_by", "reward_components", "seed"):
        assert key in row
    agg = report["aggregate"]
    c_vals = [r["C"] for r in report["per_episode"]]
    assert agg["C"]["mean"] == pytest.approx(np.mean(c_vals))
    assert agg["C"]["std"] == pytest.approx(np.std(c_vals))


def test_evaluate_deterministic(tmp_path, mini_config):
    evaluate(GreedyPolicy(), mini_config, 3, seed=4, out_dir=tmp_path / "a")
    evaluate(GreedyPolicy(), mini_config, 3, seed=4, out_dir=tmp_path / "b")
    ra = (tmp_path / "a/evaluation_report.json").read_bytes()
    rb = (tmp_path / "b/evaluation_report.json").read_bytes()
    assert ra == rb


def test_evaluate_random_deterministic(mini_config):
    r1 = evaluate(RandomPolicy(), mini_config, 2, seed=9)
    r2 = evaluate(RandomPolicy(), mini_config, 2, seed=9)
    assert r1 == r2


def test_evaluate_rejects_zero_episodes(mini_config):
    with pytest.raises(ConfigError):
        evaluate(GreedyPolicy(), mini_config, 0, seed=0)


def test_make_policy_requires_checkpoint(mini_config):
    with pytest.raises(ConfigError):
        make_policy("hgam", mini_config)
    with pytest.raises(ConfigError):
        make_policy("nonsense", mini_config)


def test_checkpoint_policy_evaluation_roundtrip(tmp_path, mini_config):
    tc = TrainConfig(max_episodes=2, e_min=1, batch_size=8, buffer_capacity=64)
    train(mini_config, tc, seed=0, out_dir=tmp_path)
    ckpt = tmp_path / "checkpoint.hgam"
    pol = make_policy("hgam", mini_config, ckpt)
    r1 = evaluate(pol, mini_config, 2, seed=1)
    r2 = evaluate(make_policy("hgam", mini_config, ckpt), mini_config, 2, seed=1)
    assert r1 == r2
    # the ablation switch comes from the policy kind, not the checkpoint
    no_gat = make_policy("hgam_no_gat", mini_config, ckpt)
    obs, nbrs = joint_observation(generate_scenario(mini_config, 0))
    for u, actor in enumerate(no_gat.actors):
        assert not actor.spec.use_gat
        feats, node_kinds, mask = local_feature_batch(obs[None], nbrs[None],
                                                      u, mini_config)
        assert np.all(forward(actor, feats, node_kinds, 0, mask).g == 0.0)
    nogat = evaluate(no_gat, mini_config, 2, seed=1)
    assert nogat["policy"] == "hgam_no_gat"
    assert nogat != r1  # ablation actually changes behaviour


def test_trajectory_export_needs_out_dir(monkeypatch, mini_config):
    # the trajectories would be built and then dropped; no episode runs
    monkeypatch.setattr(harness, "generate_scenario", None)
    with pytest.raises(ConfigError, match="output directory"):
        evaluate(GreedyPolicy(), mini_config, 1, seed=2, export_traj=True)


def test_trajectory_export(tmp_path, mini_config):
    evaluate(GreedyPolicy(), mini_config, 1, seed=2, out_dir=tmp_path,
             export_traj=True)
    traj = (tmp_path / "trajectory_ep0000.csv").read_text().splitlines()
    assert traj[0] == "t,uav_id,kind,x,y,Er,Ec,Ed,collected,charged_to,reward"
    assert len(traj) > 2
    pois = (tmp_path / "pois_ep0000.csv").read_text().splitlines()
    assert pois[0] == "poi_id,x,y,m0,m_final"
    assert len(pois) == 1 + mini_config.num_pois
    comp = json.loads((tmp_path / "reward_components_ep0000.json").read_text())
    assert len(comp["per_agent"]) == 2
    assert set(comp["per_agent"][0]) == {"h", "iota", "pl", "pb", "total"}


# --- the shared rollout path ----------------------------------------------------

@pytest.mark.parametrize("use_gat", [True, False])
def test_noise_free_trainer_actions_match_actor_policy(use_gat):
    wc = WorldConfig()
    assert wc.num_muavs == 2
    trainer = Trainer(wc, TrainConfig(use_gat=use_gat, buffer_capacity=64), seed=4)
    trainer.sigma = 0.0
    # every actor, critic and target network carries the switch
    nets = trainer.network_map().values()
    assert len(nets) == 2 * (wc.num_uavs + 2)
    assert all(net.spec.use_gat is use_gat for net in nets)
    policy = ActorPolicy(trainer.actors, wc)
    assert policy.name == ("hgam" if use_gat else "hgam_no_gat")
    compared = 0
    for scenario in range(4):
        state = generate_scenario(wc, scenario)
        while not state.done and state.t < 5:
            obs, nbrs = joint_observation(state)
            actions = policy.actions(state, None)
            assert np.array_equal(trainer.policy_actions(obs, nbrs), actions)
            compared += 1
            step(state, actions)
    assert compared >= 8


@pytest.mark.parametrize("export_traj", [False, True])
def test_evaluation_observes_only_states_it_acts_on(monkeypatch, tmp_path,
                                                   export_traj):
    wc = WorldConfig()
    policy = ActorPolicy(Trainer(wc, TrainConfig(buffer_capacity=64), seed=0).actors, wc)
    calls = []
    real = rollout.observe
    monkeypatch.setattr(rollout, "observe",
                        lambda state, u, *sensing: calls.append(u)
                        or real(state, u, *sensing))
    report = evaluate(policy, wc, 4, seed=0, out_dir=tmp_path,
                      export_traj=export_traj)
    steps = sum(row["episode_len"] for row in report["per_episode"])
    assert steps > 4
    assert len(calls) == steps * wc.num_uavs


@pytest.mark.parametrize("policy_kind", ["hgam", "greedy"])
def test_evaluation_senses_each_state_once(monkeypatch, policy_kind):
    # step senses every successor; the episode's first state is sensed by
    # the policy: hgam's joint observation senses it all, greedy measures
    # only its PoI distances
    wc = WorldConfig()
    if policy_kind == "hgam":
        policy = ActorPolicy(Trainer(wc, TrainConfig(buffer_capacity=64), seed=0).actors, wc)
    else:
        policy = GreedyPolicy()
    calls = {"cast_lasers": 0, "uav_distances": 0, "poi_distances": 0,
             "observe": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (env, rollout):
        counted(module, "cast_lasers")
        counted(module, "uav_distances")
    for module in (env, harness, rollout):
        counted(module, "poi_distances")
    counted(rollout, "observe")
    episodes = 3
    report = evaluate(policy, wc, episodes, seed=0)
    steps = sum(row["episode_len"] for row in report["per_episode"])
    assert steps > episodes
    observes = policy_kind == "hgam"
    first_states = episodes if observes else 0
    assert calls["cast_lasers"] == steps + first_states
    assert calls["uav_distances"] == steps + first_states
    assert calls["poi_distances"] == steps + episodes
    assert calls["observe"] == (steps * wc.num_uavs if observes else 0)


def test_run_episode_hands_each_step_record_to_the_next_action():
    wc = WorldConfig(num_pois=20, max_steps=12)
    state = generate_scenario(wc, 0)
    rng = np.random.default_rng(5)
    seen, handed, ts = [], [], []

    def act(s, events):
        assert s is state
        seen.append(events)
        return rng.uniform(-0.3, 0.3, (wc.num_uavs, 2))

    def on_step(s, t, actions, rewards, events):
        ts.append(t)
        handed.append(events)
        return "ignored"

    row = run_episode(state, act, on_step)
    steps = state.t
    assert steps == row["episode_len"] and steps > 1
    assert len(seen) == steps and ts == list(range(steps))
    assert seen[0] is None
    assert all(a is b for a, b in zip(seen[1:], handed[:-1]))


# --- CLI ---------------------------------------------------------------------

def write_mini_configs(tmp_path):
    world = tmp_path / "world.yaml"
    world.write_text("area_width: 8.0\narea_height: 8.0\nnum_muavs: 1\n"
                     "num_cuavs: 1\nnum_pois: 10\nmax_steps: 30\n")
    tr = tmp_path / "train.yaml"
    tr.write_text("max_episodes: 2\ne_min: 1\nbatch_size: 8\n"
                  "buffer_capacity: 64\n")
    return world, tr


def test_cli_train_and_evaluate(tmp_path, capsys):
    world, trainc = write_mini_configs(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(world), "--train-config", str(trainc),
               "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "training_report.csv").exists()
    rc = main(["evaluate", "--config", str(world), "--policy", "hgam",
               "--checkpoint", str(out / "checkpoint.hgam"),
               "--episodes", "2", "--seed", "3", "--out", str(out / "eval")])
    assert rc == 0
    report = json.loads((out / "eval/evaluation_report.json").read_text())
    assert report["episodes"] == 2


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.yaml"
    bad_cfg.write_text("unknown_key: 1\n")
    assert main(["evaluate", "--config", str(bad_cfg), "--policy", "greedy"]) == 2
    assert main(["compare", "--config", str(bad_cfg)]) == 2
    assert main(["evaluate", "--policy", "hgam",
                 "--checkpoint", str(tmp_path / "missing.hgam")]) == 3
    garbled = tmp_path / "garbled.hgam"
    garbled.write_bytes(b"NOTHGAM")
    assert main(["inspect-checkpoint", "--checkpoint", str(garbled)]) == 3
    empty = tmp_path / "empty.hgam"
    empty.write_bytes(b"")
    assert main(["inspect-checkpoint", "--checkpoint", str(empty)]) == 3


@pytest.mark.parametrize("key, code", [("actor_0/head_b2", 3),
                                       ("critic_muav/head_b2", 0),
                                       ("actor_target_1/gat_w", 0),
                                       ("actor_0/gat_w#m", 0)])
def test_cli_evaluate_non_finite_checkpoint_value(tmp_path, capsys, key, code):
    # evaluate reads only the actors' parameters, so a NaN elsewhere, even
    # in an actor's moments, does not concern it
    world, _ = write_mini_configs(tmp_path)
    path = tmp_path / "checkpoint.hgam"
    Trainer(load_config(WorldConfig, world), TrainConfig(buffer_capacity=64),
            seed=0).save(path)
    tensors = load_checkpoint(path)
    # an untrained network has no moments in the file: add a zero one
    tensors.setdefault(key, np.zeros_like(tensors[key.partition("#")[0]]))
    tensors[key][0, 0] = np.nan
    save_checkpoint(path, tensors)
    assert main(["evaluate", "--config", str(world), "--policy", "hgam",
                 "--checkpoint", str(path), "--episodes", "1",
                 "--out", str(tmp_path / "eval")]) == code
    if code:
        assert f"tensor {key}: non-finite" in capsys.readouterr().err


def with_moments_everywhere(tensors):
    """The same networks in the layout v1 files had before moments were
    kept only for updated networks: every network carries `#m`, `#v` and
    `adam_t`, zero where the new layout leaves them out."""
    out = dict(tensors)
    for key, arr in tensors.items():
        net, _, tensor = key.partition("/")
        if "#" not in tensor and tensor != "adam_t":
            out.setdefault(f"{key}#m", np.zeros_like(arr))
            out.setdefault(f"{key}#v", np.zeros_like(arr))
            out.setdefault(f"{net}/adam_t", np.zeros((1, 1)))
    return out


@pytest.mark.parametrize("episodes", [0, 2], ids=["fresh", "trained"])
def test_cli_evaluate_reads_both_checkpoint_layouts(tmp_path, episodes):
    world, trainc = write_mini_configs(tmp_path)
    trainer = Trainer(load_config(WorldConfig, world),
                      load_config(TrainConfig, trainc), seed=2)
    for e in range(1, episodes + 1):
        trainer.run_episode(e)
    new, old = tmp_path / "new.hgam", tmp_path / "old.hgam"
    trainer.save(new)
    tensors = load_checkpoint(new)
    save_checkpoint(old, with_moments_everywhere(tensors))
    assert len(load_checkpoint(old)) > len(tensors)
    reports = []
    for ckpt in (new, old):
        out = tmp_path / f"eval_{ckpt.stem}"
        assert main(["evaluate", "--config", str(world), "--policy", "hgam",
                     "--checkpoint", str(ckpt), "--episodes", "2",
                     "--out", str(out)]) == 0
        reports.append((out / "evaluation_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command, line", [
    ("evaluate", "area_width: abc"),
    ("evaluate", "comm_radius: near"),
    ("evaluate", "num_muavs: 1.5"),
    ("evaluate", "num_pois: true"),
    ("evaluate", "max_steps: 10.5"),
    ("evaluate", 'global_view: "yes"'),
    ("train", "batch_size: many"),
    ("train", "gamma: null"),
    ("train", "lr_critic: 1e-3"),   # YAML 1.1 reads this as a string
    # NaN fails every range comparison, so finiteness is checked on its own
    ("evaluate", "sense_radius: .nan"),
    ("evaluate", "view_range: .nan"),
    ("evaluate", "comm_radius: .nan"),
    ("evaluate", "area_width: .inf"),
    ("train", "lr_critic: .nan"),
    ("train", "per_alpha: .nan"),
    ("train", "noise_sigma0: .nan"),
    # out of range: numpy's normal fails in episode 1 on a negative scale,
    # and a negative rate ascends the critic loss without complaint
    ("train", "noise_sigma0: -0.3"),
    ("train", "lr_critic: -0.001"),
    # no start position fits a UAV wider than the arena: at the start draw
    # numpy's uniform failed with `high - low < 0`
    ("evaluate", "uav_radius: 9.0"),
    ("evaluate", "area_width: 0.3"),
])
def test_cli_rejects_ill_typed_config_values(tmp_path, capsys, command, line):
    world, _ = write_mini_configs(tmp_path)
    bad = tmp_path / "bad.yaml"
    bad.write_text(line + "\n")
    out = tmp_path / "run"
    if command == "evaluate":
        argv = ["evaluate", "--config", str(bad), "--episodes", "1"]
    else:
        argv = ["train", "--config", str(world), "--train-config", str(bad),
                "--episodes", "2", "--out", str(out)]
    assert main(argv) == 2
    field = line.partition(":")[0]
    assert f"error: {bad}: {field} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, seed", [("evaluate", "-1"),
                                           ("export-traj", "-1"),
                                           ("train", "-2"),
                                           ("compare", "-1")])
def test_cli_rejects_negative_seed(tmp_path, capsys, command, seed):
    world, _ = write_mini_configs(tmp_path)
    out = tmp_path / "run"
    argv = [command, "--config", str(world), "--episodes", "1", "--seed", seed]
    if command != "compare":   # compare writes no files and has no --out
        argv += ["--out", str(out)]
    if command in ("evaluate", "export-traj"):
        argv += ["--policy", "greedy"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: seed must be >= 0, got {seed}" in captured.err
    assert captured.out == ""   # not even compare's table header
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("line", ["uav_radius: 9.0", "area_height: 0.3"])
def test_cli_refuses_a_uav_wider_than_the_arena(tmp_path, capsys, command, line):
    # refused before any work: `train` used to leave an untrained checkpoint
    world = tmp_path / "world.yaml"
    world.write_text(line + "\n")
    out = tmp_path / "run"
    argv = [command, "--config", str(world), "--episodes", "1"]
    if command == "train":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    field = line.partition(":")[0]
    assert f"error: {world}: {field} must be" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "export-traj", "compare"])
def test_cli_rejects_world_without_pois(tmp_path, capsys, command):
    # the metrics are undefined without data to collect: refused before
    # any episode runs or any output is written
    world, _ = write_mini_configs(tmp_path)
    world.write_text(world.read_text().replace("num_pois: 10", "num_pois: 0"))
    out = tmp_path / "run"
    argv = [command, "--config", str(world), "--episodes", "1"]
    if command != "compare":
        argv += ["--out", str(out)]
    if command in ("evaluate", "export-traj"):
        argv += ["--policy", "greedy"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error: a run needs at least one MUAV and one CUAV, and a PoI" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--config", "--train-config"])
@pytest.mark.parametrize("case", ["missing", "directory", "malformed",
                                  "undecodable"])
def test_cli_rejects_unreadable_config(tmp_path, capsys, flag, case):
    world, _ = write_mini_configs(tmp_path)
    bad = tmp_path / case
    if case == "directory":
        bad.mkdir()
    elif case == "malformed":
        bad.write_text("area_width: [1,\n")
    elif case == "undecodable":
        bad.write_bytes(b"\xff\xfe area_width: 8.0\n")
    out = tmp_path / "run"
    if flag == "--config":
        argv = ["evaluate", "--config", str(bad), "--episodes", "1",
                "--out", str(out)]
    else:
        argv = ["train", "--config", str(world), "--train-config", str(bad),
                "--episodes", "1", "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {bad}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "evaluate", "export-traj"])
def test_cli_rejects_out_that_is_a_file(monkeypatch, tmp_path, capsys, command):
    # no episode may run: either one would call generate_scenario
    monkeypatch.setattr(harness, "generate_scenario", None)
    monkeypatch.setattr(training, "generate_scenario", None)
    world, _ = write_mini_configs(tmp_path)
    taken = tmp_path / "README.md"
    taken.write_text("kept\n")
    assert main([command, "--config", str(world), "--episodes", "1",
                 "--out", str(taken)]) == 2
    assert f"error: output directory {taken}: " in capsys.readouterr().err
    assert taken.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "README.md", "train.yaml", "world.yaml"]


@pytest.mark.parametrize("with_checkpoint", [False, True],
                         ids=["baselines", "checkpoint"])
def test_cli_compare_table(tmp_path, capsys, with_checkpoint):
    world, trainc = write_mini_configs(tmp_path)
    kinds = ["random", "greedy"]
    argv = ["compare", "--config", str(world), "--episodes", "2", "--seed", "3"]
    ckpt = None
    if with_checkpoint:
        assert main(["train", "--config", str(world), "--train-config",
                     str(trainc), "--seed", "1", "--out", str(tmp_path / "run")]) == 0
        ckpt = tmp_path / "run" / "checkpoint.hgam"
        kinds += ["hgam", "hgam_no_gat"]
        argv += ["--checkpoint", str(ckpt)]
    capsys.readouterr()
    assert main(argv) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    metrics = ("C", "omega", "upsilon", "D", "F")
    assert header.split() == ["policy", *metrics]
    assert rule == "-" * len(header)
    assert [row[:12].rstrip() for row in rows] == kinds
    config = load_config(WorldConfig, world)
    for kind, row in zip(kinds, rows):
        agg = evaluate(make_policy(kind, config, ckpt), config, 2, 3)["aggregate"]
        assert row[12:] == "".join("%10.3f" % agg[m]["mean"] for m in metrics)


def test_cli_export_traj_and_inspect(tmp_path, capsys):
    world, trainc = write_mini_configs(tmp_path)
    out = tmp_path / "run"
    main(["train", "--config", str(world), "--train-config", str(trainc),
          "--seed", "1", "--out", str(out)])
    rc = main(["export-traj", "--config", str(world), "--policy", "greedy",
               "--episodes", "1", "--seed", "0", "--out", str(out / "traj")])
    assert rc == 0
    assert (out / "traj/trajectory_ep0000.csv").exists()
    rc = main(["inspect-checkpoint", "--checkpoint",
               str(out / "checkpoint.hgam")])
    assert rc == 0
    text = capsys.readouterr().out
    assert "actor_0/gat_w" in text and "format HGAM v1" in text


def test_cli_no_gat_flag(tmp_path):
    world, trainc = write_mini_configs(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(world), "--train-config", str(trainc),
               "--seed", "1", "--out", str(out), "--no-gat"])
    assert rc == 0
    rc = main(["evaluate", "--config", str(world), "--policy", "hgam_no_gat",
               "--checkpoint", str(out / "checkpoint.hgam"),
               "--episodes", "1", "--seed", "0"])
    assert rc == 0


@pytest.mark.parametrize("command", ["evaluate", "export-traj"])
def test_no_gat_flag_only_on_train(command):
    # `--policy hgam_no_gat` selects the ablation on evaluate/export-traj
    with pytest.raises(SystemExit) as exc:
        main([command, "--policy", "hgam", "--no-gat", "--out", "unused"])
    assert exc.value.code == 2


def test_evaluate_requires_both_kinds():
    # training and evaluation share one precondition check and its message
    solo = WorldConfig(num_muavs=1, num_cuavs=0)
    with pytest.raises(ConfigError, match="at least one MUAV and one CUAV") as ev:
        evaluate(GreedyPolicy(), solo, 1, seed=0)
    with pytest.raises(ConfigError) as tr:
        Trainer(solo, TrainConfig(), seed=0)
    assert str(tr.value) == str(ev.value)
