"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The learning check
(criterion 8) trains four seeds on the miniature world and dominates the
runtime (about 2.5-6 minutes on 2 vCPUs); everything else finishes in
under a minute.
"""

import functools
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (branch_signature, build_state, forward_graph,
                      kink_free_fd, observations)
from hgam.cli import main as cli_main
from hgam.env import step
from hgam.harness import ActorPolicy, GreedyPolicy, RandomPolicy, evaluate, \
    greedy_policy, make_policy
from hgam.hetgraph import (build_global_graph, build_local_graph,
                           local_feature_batch)
from hgam.metrics import compute_all, jain_index
from hgam.neural import Network, backward, forward
from hgam.rollout import EpisodeTracker, joint_observation
from hgam.training import (SumTree, TrainConfig, Trainer, actor_spec,
                           critic_spec, nstep_return, priorities)
from hgam.world import WorldConfig, generate_scenario

MINI_WORLD = dict(area_width=8.0, area_height=8.0, num_muavs=1, num_cuavs=1,
                  num_pois=20, max_steps=200)


def report(criterion: str, passed: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


def run_reporting(criterion):
    """Decorator printing the criterion verdict even on assertion failure."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                report(criterion, False)
                raise
            report(criterion, True)
            return result
        return inner
    return wrap


# --- 1. gradient correctness --------------------------------------------------

def _rel_err(analytic: float, fd: float) -> float:
    diff = abs(analytic - fd)
    if diff < 1e-8:          # below central-difference noise at these scales
        return 0.0
    return diff / max(abs(analytic), abs(fd))


@run_reporting("1 gradient-correctness")
def test_criterion_1_gradients():
    t0 = time.time()
    wc = WorldConfig(**MINI_WORLD)
    a_spec, c_spec = actor_spec(wc), critic_spec(wc)
    rng = np.random.default_rng(2024)
    kinds = ("muav", "cuav")
    worst = 0.0
    draws = 0
    skipped = 0
    measured = 0

    def check_group(net, prefixes, loss, coords=3):
        nonlocal worst, draws, skipped, measured
        names = [n for n in net.params if n.startswith(prefixes)]
        for name in names:
            arr = net.params[name]
            g = net.grads[name]
            for _ in range(coords):
                i = int(rng.integers(arr.size))
                fd = kink_free_fd(loss, arr, i)
                if fd is None:
                    skipped += 1
                    continue
                an = float(g.flat[i])
                worst = float(np.maximum(worst, _rel_err(an, fd)))  # keeps NaN
                measured += 1
        draws += 1

    for spec, prefixes in ((c_spec, ("enc_",)), (c_spec, ("gat_",)),
                           (a_spec, ("head_",)), (c_spec, ("head_",))):
        b = 2
        for _ in range(25):
            net = Network(spec, rng)
            feats = rng.normal(0, 1, (b, 2, spec.in_widths["muav"]))
            w = rng.normal(0, 1, (b, spec.out_dim))

            def loss():
                tape = forward(net, feats, kinds, 0)
                return float(np.sum(tape.out * w)), branch_signature(tape)

            tape = forward(net, feats, kinds, 0)
            backward(net, tape, w)
            check_group(net, prefixes, loss)

    # full weighted squared-error path through the critic
    for _ in range(25):
        net = Network(c_spec, rng)
        b = 4
        feats = rng.normal(0, 1, (b, 2, c_spec.in_widths["muav"]))
        y = rng.normal(0, 1, b)
        zeta = rng.uniform(0.05, 1.0, b)

        def loss():
            tape = forward(net, feats, kinds, 0)
            q = tape.out[:, 0]
            return float(np.mean(zeta * (y - q) ** 2)), branch_signature(tape)

        tape = forward(net, feats, kinds, 0)
        q = tape.out[:, 0]
        backward(net, tape, ((-2.0 / b) * zeta * (y - q))[:, None])
        check_group(net, ("enc_", "gat_", "head_"), loss, coords=2)

    elapsed = time.time() - t0
    print(f"  {draws} draws, {measured} coordinates ({skipped} kink-adjacent "
          f"skips), max relative error {worst:.3e}, {elapsed:.1f}s")
    assert draws >= 100
    assert measured > 2000
    assert worst < 1e-4
    assert elapsed < 60.0


# --- 2. attention normalization -------------------------------------------------

@run_reporting("2 attention-normalization")
def test_criterion_2_attention():
    wc = WorldConfig()
    rng = np.random.default_rng(7)
    a_net = Network(actor_spec(wc), rng)
    c_net = Network(critic_spec(wc), rng)
    checked = 0
    for scenario in range(50):
        state = generate_scenario(wc, scenario)
        obs = observations(state)
        actions = rng.uniform(-1, 1, (3, 2))
        if scenario % 10 == 0:
            a_net = Network(actor_spec(wc), rng)
            c_net = Network(critic_spec(wc), rng)
        for u in range(3):
            tape = forward_graph(a_net, build_local_graph(state, u, obs))
            assert tape.alpha is not None
            assert np.all(tape.alpha > 0.0)
            assert abs(tape.alpha.sum() - 1.0) <= 1e-9
            checked += 1
        for view in build_global_graph(state, obs, actions):
            tape = forward_graph(c_net, view)
            assert np.all(tape.alpha > 0.0)
            assert abs(tape.alpha.sum() - 1.0) <= 1e-9
            checked += 1
        if checked >= 1000:
            break
    # top up with random graphs until one thousand egos were checked
    while checked < 1000:
        state = generate_scenario(wc, 1000 + checked)
        obs = observations(state)
        tape = forward_graph(a_net, build_local_graph(state, 0, obs))
        assert np.all(tape.alpha > 0.0) and abs(tape.alpha.sum() - 1.0) <= 1e-9
        checked += 1

    # actors on masked local graphs, as training builds them: under
    # comm_radius some or every neighbour slot of a row is absent
    fleet = WorldConfig(num_muavs=3, num_cuavs=2, comm_radius=6.0)
    joint = [joint_observation(generate_scenario(fleet, s)) for s in range(60)]
    obs = np.stack([o for o, _ in joint])
    nbrs = np.stack([nb for _, nb in joint])
    partial = empty = 0
    for u in range(fleet.num_uavs):
        a_net = Network(actor_spec(fleet), rng)
        feats, node_kinds, mask = local_feature_batch(obs, nbrs, u, fleet)
        tape = forward(a_net, feats, node_kinds, 0, mask)
        assert np.all(tape.alpha[mask] > 0.0)
        assert np.all(tape.alpha[~mask] == 0.0)
        some = mask.any(axis=1)
        assert np.all(np.abs(tape.alpha[some].sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(tape.g[~some] == 0.0)
        partial += int(np.sum(some & ~mask.all(axis=1)))
        empty += int(np.sum(~some))
    assert partial > 0 and empty > 0
    print(f"  {checked} ego views checked; masked actor rows: "
          f"{partial} with some slots absent, {empty} with every slot absent")


# --- 3. metric oracles -----------------------------------------------------------

@run_reporting("3 metric-oracles")
def test_criterion_3_metrics():
    cfg = WorldConfig(num_muavs=2, num_cuavs=1, num_pois=2, num_obstacles=0,
                      max_steps=3)
    state = build_state(cfg, [(4.0, 4.0), (12.0, 12.0), (4.0, 4.5)],
                        poi_pos=[(4.0, 4.0), (12.0, 12.0)],
                        poi_m0=[1.0, 0.5])
    tracker = EpisodeTracker(state)
    idle = [np.zeros(2)] * 3
    for _ in range(3):
        _, ev = step(state, idle)
        tracker.after_step(state, ev)
    assert state.done and state.done_reason == "max_steps"
    out = compute_all(tracker.episode_log(state))

    # hand computation: MUAV 1 empties 0.2/step from PoI A (1.0 -> 0.4) and
    # consumes 0.6; MUAV 2 drains PoI B (0.5 -> 0) and consumes 0.5. The
    # CUAV finds no headroom at step 1, then delivers 0.2 at steps 2 and 3.
    exp_c = ((1.0 - 0.4) + 0.5) / 1.5
    exp_omega = 0.4 ** 2 / (2 * (0.4 ** 2))            # jain(0.4, 0.0)
    exp_upsilon = (0.6 / 50.4 + 0.5 / 50.0) / 2.0
    exp_d = 2.0 / 3.0
    exp_f = (0.4 / 50.0) ** 2 / (2 * (0.4 / 50.0) ** 2)  # jain(0.008, 0)
    assert abs(out["C"] - exp_c) <= 1e-12
    assert abs(out["omega"] - exp_omega) <= 1e-12
    assert abs(out["upsilon"] - exp_upsilon) <= 1e-12
    assert abs(out["D"] - exp_d) <= 1e-12
    assert abs(out["F"] - exp_f) <= 1e-12

    rng = np.random.default_rng(123)
    for _ in range(10_000):
        n = int(rng.integers(1, 12))
        x = rng.uniform(0.0, 100.0, n)
        alphas = rng.uniform(1e-3, 1e3)
        assert jain_index(np.full(n, float(rng.uniform(0.1, 9.0)))) == \
            pytest.approx(1.0, abs=1e-12)
        single = np.zeros(n)
        single[int(rng.integers(n))] = float(rng.uniform(0.1, 5.0))
        assert jain_index(single) == pytest.approx(1.0 / n, abs=1e-12)
        assert jain_index(x * alphas) == pytest.approx(jain_index(x), rel=1e-9)


# --- 4. prioritized sampling -------------------------------------------------------

@run_reporting("4 per-distribution")
def test_criterion_4_per():
    deltas = np.arange(1, 65, dtype=float)
    tree = SumTree(64)
    tree.set_many(np.arange(64), priorities(deltas, alpha=0.6, eps=0.0))
    probs = deltas ** 0.6 / np.sum(deltas ** 0.6)
    rng = np.random.default_rng(99)
    counts = np.zeros(64)
    batches, k = 1563, 64           # 100,032 stratified draws
    for _ in range(batches):
        idx, _ = tree.sample(k, rng)
        np.add.at(counts, idx, 1)
    freq = counts / (batches * k)
    l1 = float(np.abs(freq - probs).sum())
    print(f"  L1 deviation over {batches * k} draws: {l1:.4f}")
    assert l1 < 0.02

    # one million random leaf updates, then exact internal consistency
    tree = SumTree(128)
    leaves = np.zeros(128)
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        idx = rng.integers(0, 128, size=100)
        vals = rng.uniform(0.0, 10.0, size=100)
        tree.set_many(idx, vals)
        leaves[idx] = vals
        assert tree.max_leaf(tree.capacity) == leaves.max()
    assert tree.leaves(np.arange(128)).tobytes() == leaves.tobytes()
    for node in range(1, tree.capacity):
        assert tree.sums[node] == tree.sums[2 * node] + tree.sums[2 * node + 1]


# --- 5. n-step oracle ----------------------------------------------------------------

@run_reporting("5 nstep-oracle")
def test_criterion_5_nstep():
    rng = np.random.default_rng(17)
    draws = {1: 4000, 2: 1000, 128: 100}
    for b, count in draws.items():
        for _ in range(count):
            n = int(rng.integers(1, 11))
            gamma = float(rng.uniform(0.0, 0.999))
            rewards = rng.uniform(-5.0, 5.0, (n, b))
            lengths = rng.integers(0, n + 1, b)   # summed prefix per column
            oks = np.arange(n)[:, None] < lengths
            lam = nstep_return(rewards, oks, gamma)
            assert lam.shape == (b,)
            # gamma^k as training has always tabulated it (np.power over
            # arange; Python's gamma ** k differs in the last bit)
            discounts = np.power(gamma, np.arange(n))
            for j in range(b):
                brute = 0.0
                for k in range(lengths[j]):
                    brute += discounts[k] * rewards[k, j]
                assert lam[j] == brute
    print(f"  {sum(draws.values())} chains, batch sizes {sorted(draws)}")


# --- 6. environment conservation --------------------------------------------------------

@run_reporting("6 environment-conservation")
def test_criterion_6_conservation():
    cfg = WorldConfig()   # default 700-step world
    episodes = 100
    for seed in range(episodes):
        state = generate_scenario(cfg, seed)
        takes_by_poi = [[] for _ in range(cfg.num_pois)]
        while not state.done:
            actions = [greedy_policy(state, u) for u in range(3)]
            _, ev = step(state, actions)
            for _, p, amount in ev.collection_breakdown:
                takes_by_poi[p].append(amount)
            for m in range(state.num_muavs):   # bitwise identity
                assert state.er[m] == cfg.initial_energy + state.ec[m] - state.ed[m]
        per_poi = [math.fsum(t) for t in takes_by_poi]
        for p in range(cfg.num_pois):
            assert per_poi[p] == state.poi_m0[p] - state.poi_rem[p]
        assert math.fsum(per_poi) == math.fsum(state.poi_m0 - state.poi_rem)


# --- 7. determinism -----------------------------------------------------------------------

@run_reporting("7 determinism")
def test_criterion_7_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / f"train_{tag}"
        rc = cli_main(["train", "--seed", "7", "--episodes", "20",
                       "--out", str(out)])
        assert rc == 0
        runs.append((out / "training_report.csv").read_bytes())
    assert runs[0] == runs[1]

    evals = []
    for tag in ("a", "b"):
        out = tmp_path / f"eval_{tag}"
        rc = cli_main(["evaluate", "--policy", "greedy", "--episodes", "20",
                       "--seed", "7", "--out", str(out)])
        assert rc == 0
        evals.append((out / "evaluation_report.json").read_bytes())
    assert evals[0] == evals[1]


# --- 8. learning smoke test -----------------------------------------------------------------

@run_reporting("8 learning-smoke")
def test_criterion_8_learning(tmp_path):
    world = tmp_path / "mini_world.yaml"
    world.write_text("".join(f"{k}: {v}\n" for k, v in MINI_WORLD.items()))
    trainc = tmp_path / "train.yaml"
    trainc.write_text("max_episodes: 400\n")

    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"

    def run_seed(seed: int) -> list[dict]:
        out = tmp_path / f"seed{seed}"
        cmd = [sys.executable, "-m", "hgam", "train", "--config", str(world),
               "--train-config", str(trainc), "--seed", str(seed),
               "--out", str(out)]
        subprocess.run(cmd, check=True, env=env, capture_output=True)
        lines = (out / "training_report.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, row.split(","))) for row in lines[1:]]

    t0 = time.time()
    seeds = [1, 2, 3, 4]
    with ThreadPoolExecutor(max_workers=2) as pool:
        reports = list(pool.map(run_seed, seeds))
    elapsed = time.time() - t0

    improved = 0
    for seed, rows in zip(seeds, reports):
        assert len(rows) == 400
        r = [float(row["reward_muav_mean"]) for row in rows]
        first = float(np.mean(r[50:100]))     # first 50 post-warmup episodes
        last = float(np.mean(r[-50:]))
        ok = last >= first + 0.2 * abs(first)
        improved += ok
        print(f"  seed {seed}: first50={first:.2f} last50={last:.2f} "
              f"{'improved' if ok else 'flat'}")
    print(f"  {improved}/4 seeds improved, wall time {elapsed:.0f}s")
    assert improved >= 3
    assert elapsed < 1800.0


# --- 9. baseline ordering ----------------------------------------------------------------------

@run_reporting("9 baseline-ordering")
def test_criterion_9_baselines():
    wc = WorldConfig(**MINI_WORLD)
    greedy = evaluate(GreedyPolicy(), wc, episodes=20, seed=0)
    rand = evaluate(RandomPolicy(), wc, episodes=20, seed=0)
    c_greedy = greedy["aggregate"]["C"]["mean"]
    c_random = rand["aggregate"]["C"]["mean"]
    print(f"  C greedy={c_greedy:.3f} random={c_random:.3f}")
    assert c_greedy >= 2.0 * c_random


# --- 10. checkpoint round trip ------------------------------------------------------------------

@run_reporting("10 checkpoint-roundtrip")
def test_criterion_10_checkpoint(tmp_path):
    wc = WorldConfig(**MINI_WORLD)
    tc = TrainConfig(max_episodes=3, e_min=1, batch_size=16,
                     buffer_capacity=512)
    trainer = Trainer(wc, tc, seed=11)
    for e in range(1, 4):
        trainer.run_episode(e)

    live = ActorPolicy(trainer.actors, wc)
    evaluate(live, wc, 3, seed=5, out_dir=tmp_path / "before")
    ckpt = tmp_path / "checkpoint.hgam"
    trainer.save(ckpt)
    restored = make_policy("hgam", wc, ckpt)
    evaluate(restored, wc, 3, seed=5, out_dir=tmp_path / "after")

    before = (tmp_path / "before/evaluation_report.json").read_bytes()
    after = (tmp_path / "after/evaluation_report.json").read_bytes()
    assert before == after
