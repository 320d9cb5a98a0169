import copy
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgam import rollout, training
from hgam.cli import main
from hgam.errors import ConfigError, ContractError
from hgam.hetgraph import global_feature_width
from hgam.neural import LINEAR, NetSpec, Network, forward, load_checkpoint
from hgam.training import (PRIORITY_EPS, ReplayStore, SumTree, TrainConfig,
                           Trainer, actor_actions, actor_spec, actor_update,
                           critic_spec, critic_target_values, critic_update,
                           nstep_return, priorities, soft_update, train)
from hgam.world import (CUAV, MUAV, WorldConfig, generate_scenario,
                        load_config)


# --- n-step returns -----------------------------------------------------------

def column(values, dtype=float):
    """One chain as an (n, 1) array, the shape `Trainer.update` passes."""
    return np.asarray(values, dtype=dtype)[:, None]


def test_nstep_geometric():
    lam = nstep_return(column([1.0, 1.0, 1.0]), column([True] * 3, bool), 0.5)
    assert lam == pytest.approx([1.75])
    assert lam.shape == (1,)


def test_nstep_single_step():
    lam = nstep_return(column([3.0, 9.0]), column([True, False], bool), 0.5)
    assert lam.tolist() == [3.0]


def test_nstep_truncates():
    # a chain that ends after two of three steps: the third reward is not summed
    lam = nstep_return(column([1.0, 1.0, 7.0]), column([True, True, False], bool), 0.5)
    assert lam == pytest.approx([1.5])


@settings(max_examples=200)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=10),
       st.floats(0.0, 0.999), st.integers(1, 10))
def test_nstep_matches_bruteforce(rewards, gamma, n):
    length = min(n, len(rewards))
    padded = column((rewards + [0.0] * n)[:n])
    lam = nstep_return(padded, np.arange(n)[:, None] < length, gamma)
    discounts = np.power(gamma, np.arange(n))
    brute = 0.0
    for k in range(length):
        brute += discounts[k] * rewards[k]
    assert lam.tolist() == [brute]  # same accumulation order: exact equality


# --- sum tree -------------------------------------------------------------------

def test_sumtree_capacity_rounds_to_power_of_two():
    t = SumTree(100_000)
    assert t.capacity == 131072


def test_sumtree_total_and_leaves():
    t = SumTree(8)
    t.set_many([0, 3, 5], [1.0, 2.0, 3.0])
    assert t.total == 6.0
    assert t.leaves([0, 3, 5]) == pytest.approx([1.0, 2.0, 3.0])
    assert t.max_leaf(t.capacity) == 3.0
    # only the first n leaves count
    assert t.max_leaf(4) == 2.0 and t.max_leaf(0) == 0.0


def test_sumtree_internal_sums_exact_after_random_ops():
    rng = np.random.default_rng(0)
    t = SumTree(64)
    leaves = np.zeros(64)
    for _ in range(3000):
        idx = rng.integers(0, 64, size=rng.integers(1, 8))
        vals = rng.uniform(0.0, 10.0, size=len(idx))
        t.set_many(idx, vals)
        leaves[idx] = vals
        assert t.max_leaf(t.capacity) == leaves.max()
    assert t.leaves(np.arange(64)).tobytes() == leaves.tobytes()
    for node in range(1, t.capacity):
        assert t.sums[node] == t.sums[2 * node] + t.sums[2 * node + 1]


def test_sumtree_sample_distribution_alpha_one():
    t = SumTree(4)
    t.set_many([0, 1, 2], [1.0, 2.0, 3.0])
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    draws = 60_000
    for _ in range(draws // 60):
        idx, probs = t.sample(60, rng)
        np.add.at(counts, idx, 1)
    freq = counts / draws
    assert freq[:3] == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=0.01)
    assert freq[3] == 0.0


def test_per_probabilities_alpha_exponent():
    t = SumTree(4)
    deltas = np.array([1.0, 2.0, 3.0])
    t.set_many([0, 1, 2], priorities(deltas, alpha=0.6, eps=0.0))
    expected = deltas ** 0.6 / np.sum(deltas ** 0.6)
    # frozen from a 40-digit evaluation of i^0.6 / sum(j^0.6)
    assert expected == pytest.approx(
        [0.2247747335549728, 0.3406947873822329, 0.4345304790627944], abs=1e-12)
    leaf_probs = t.leaves([0, 1, 2]) / t.total
    assert leaf_probs == pytest.approx(expected, rel=1e-12)


def test_per_update_floor_never_starves():
    t = SumTree(4)
    t.set(0, priorities(0.0, alpha=0.6))
    assert t.leaves([0])[0] == pytest.approx(PRIORITY_EPS ** 0.6)
    assert t.leaves([0])[0] > 0.0


def test_per_update_out_of_range():
    t = SumTree(4)
    with pytest.raises(ContractError):
        t.set(9, priorities(1.0, alpha=0.6))
    # one index walks a scalar path, several a vector path: both check
    for idxs in ([4], [-1], [0, 4], [-1, 2]):
        with pytest.raises(ContractError):
            t.set_many(idxs, np.ones(len(idxs)))
    assert t.total == 0.0


@pytest.mark.parametrize("capacity", [1, 2, 50, 100_000])
def test_sumtree_one_index_writes_match_many_index_writes(capacity):
    # the same writes, one leaf per call (scalar root path) and several
    # per call (vector levels), leave byte-identical trees, duplicates,
    # zeros and NaN priorities included; the max leaf follows every write
    # (NaN once any leaf is NaN)
    rng = np.random.default_rng(capacity)
    one, many = SumTree(capacity), SumTree(capacity)
    leaves = np.zeros(one.capacity)
    specials = np.array([0.0, -0.0, np.nan, 1.0, 1.0])

    def batches():
        for _ in range(400):
            yield rng.integers(0, capacity, size=int(rng.integers(2, 7)))
        # indices that all share one parent, with repeats
        base = max(capacity - 2, 0) & ~1
        for _ in range(20):
            yield base + rng.integers(0, min(capacity, 2),
                                      size=int(rng.integers(2, 7)))

    for idx in batches():
        k = len(idx)
        vals = rng.uniform(0.0, 5.0, size=k)
        pick = rng.uniform(size=k) < 0.2
        vals[pick] = rng.choice(specials, size=int(pick.sum()))
        many.set_many(idx, vals)
        for i, v in zip(idx, vals):
            one.set(int(i), float(v))
            leaves[i] = v
            np.testing.assert_equal(one.max_leaf(one.capacity), leaves.max())
        np.testing.assert_equal(many.max_leaf(many.capacity), leaves.max())
        assert one.sums.tobytes() == many.sums.tobytes()


def test_sample_empty_tree_raises():
    with pytest.raises(ContractError):
        SumTree(4).sample(2, np.random.default_rng(0))


def test_sumtree_matches_flat_array_oracle():
    rng = np.random.default_rng(5)
    t = SumTree(32)
    flat = np.zeros(32)
    max_seen = 0.0
    for step_i in range(500):
        # mimic the insert convention: new entries take the current max leaf
        slot = step_i % 32
        prio = max_seen if max_seen > 0 else 1.0
        t.set(slot, prio)
        flat[slot] = prio
        if rng.uniform() < 0.5:
            j = int(rng.integers(0, 32))
            val = float(rng.uniform(0.0, 4.0))
            t.set(j, val)
            flat[j] = val
        assert t.total == pytest.approx(flat.sum(), rel=1e-12)
        assert t.max_leaf(t.capacity) == flat.max()
        max_seen = t.max_leaf(t.capacity)


# --- noise and soft updates -------------------------------------------------------

@pytest.mark.parametrize("sigma", [0.3, 0.0])
def test_policy_actions_add_one_gaussian_draw_to_the_actors(sigma):
    # one (U, 2) draw from noise_rng, the stream U draws of size 2 gave
    wc = WorldConfig()
    assert wc.num_uavs == 3
    trainer = Trainer(wc, TrainConfig(buffer_capacity=64), seed=8)
    trainer.sigma = sigma
    obs, nbrs = rollout.joint_observation(generate_scenario(wc, 1))
    rng = copy.deepcopy(trainer.noise_rng)
    want = np.clip(actor_actions(trainer.actors, wc, obs[None], nbrs[None])[0]
                   + rng.normal(0.0, sigma, (3, 2)), -1.0, 1.0)
    got = trainer.policy_actions(obs, nbrs)
    assert got.tobytes() == want.tobytes()
    assert trainer.noise_rng.bit_generator.state == rng.bit_generator.state


def test_noise_decay_schedule():
    tc = TrainConfig()
    sigma = tc.noise_sigma0
    sigma = max(tc.noise_min, sigma * tc.noise_decay)
    assert sigma == pytest.approx(0.3 * 0.9995)
    for _ in range(20_000):
        sigma = max(tc.noise_min, sigma * tc.noise_decay)
    assert sigma == tc.noise_min


def test_soft_update_cases():
    spec = NetSpec({MUAV: 3}, 1, LINEAR, embed_dim=2, head_hidden=2)
    src = Network(spec, np.random.default_rng(0))
    tgt = Network(spec, np.random.default_rng(1))
    snap = tgt.flat.copy()
    soft_update(tgt, src, 0.0)
    assert np.array_equal(tgt.flat, snap)
    soft_update(tgt, src, 1.0)
    assert np.array_equal(tgt.flat, src.flat)


def test_soft_update_affine_composition():
    spec = NetSpec({MUAV: 3}, 1, LINEAR, embed_dim=2, head_hidden=2)
    src = Network(spec, np.random.default_rng(0))
    a = Network(spec, np.random.default_rng(1))
    b = a.clone()
    tau = 0.25
    soft_update(a, src, tau)
    soft_update(a, src, tau)
    tau_eff = 1.0 - (1.0 - tau) ** 2
    soft_update(b, src, tau_eff)
    assert a.flat == pytest.approx(b.flat, rel=1e-12, abs=1e-15)


def test_soft_update_scalar_example():
    spec = NetSpec({MUAV: 1}, 1, LINEAR, embed_dim=1, head_hidden=1)
    src = Network(spec, rng=None)
    tgt = Network(spec, rng=None)
    src.params["gat_w"][...] = 1.0
    soft_update(tgt, src, 0.01)
    assert tgt.params["gat_w"][0, 0] == pytest.approx(0.01)


# --- replay store and chains --------------------------------------------------------

def transition(k, episode=1, done=False):
    """Step k of a two-agent episode: its state is filled with k, its
    successor with k + 1."""
    return dict(obs=np.full((2, 4), float(k)), actions=np.zeros((2, 2)),
                rewards=np.array([float(k + 1), 10.0 * (k + 1)]),
                next_obs=np.full((2, 4), float(k + 1)), done=done,
                episode=episode, step=k, nbrs=np.zeros((2, 2), dtype=np.int64),
                next_nbrs=np.zeros((2, 2), dtype=np.int64))


def store_with_episode(num_steps, capacity=16, done_at=None):
    store = ReplayStore(capacity, num_agents=2, obs_width=4)
    for k in range(num_steps):
        store.add(**transition(k, done=done_at is not None and k == done_at))
    return store


def test_chain_full_horizon():
    store = store_with_episode(6)
    oks, js, count, boot, terminal = store.chain(np.array([0, 2]), 3)
    assert count.tolist() == [3, 3]
    assert boot.tolist() == [2, 4]
    assert not terminal.any()
    assert oks.all()


def test_chain_stops_at_done():
    store = store_with_episode(6, done_at=3)
    oks, js, count, boot, terminal = store.chain(np.array([2]), 3)
    assert count[0] == 2          # steps 2 and 3; 3 is terminal
    assert boot[0] == 3
    assert terminal[0]


def test_add_refuses_transition_that_breaks_an_episode():
    store = store_with_episode(3)     # episode 1, steps 0-2, not finished
    for episode, k in ((2, 0), (1, 4), (1, 2)):
        with pytest.raises(ContractError, match="does not continue"):
            store.add(**transition(k, episode=episode))
    assert (store.size, store.cursor) == (3, 3)
    store.add(**transition(3, done=True))
    assert store.add(**transition(0, episode=2)) == 4   # a new episode
    oks, js, count, boot, terminal = store.chain(np.array([2]), 3)
    assert count[0] == 2 and boot[0] == 3 and terminal[0]


def test_chain_detects_ring_overwrite():
    store = store_with_episode(6, capacity=4)  # slots hold steps 4, 5, 2, 3
    # slot 1 holds step 5; the slot after it holds the older step 2 of the
    # same episode, which must not extend the chain
    oks, js, count, boot, terminal = store.chain(np.array([1]), 3)
    assert count[0] == 1
    assert boot[0] == 1


class TwoCopyStore:
    """Reference layout: each slot keeps its own successor and (episode,
    step), and a chain follows slots while they hold the next step of the
    same episode."""

    def __init__(self, capacity, num_agents, obs_width):
        self.capacity = capacity
        self.next_obs = np.zeros((capacity, num_agents, obs_width))
        self.next_nbrs = np.zeros((capacity, num_agents, 2), dtype=np.int64)
        self.done = np.zeros(capacity, dtype=bool)
        self.episode = np.full(capacity, -1, dtype=np.int64)
        self.step = np.zeros(capacity, dtype=np.int64)
        self.cursor = 0

    def add(self, *, next_obs, done, episode, step, next_nbrs, **_):
        i = self.cursor
        self.next_obs[i], self.next_nbrs[i] = next_obs, next_nbrs
        self.done[i], self.episode[i], self.step[i] = done, episode, step
        self.cursor = (i + 1) % self.capacity

    def chain(self, idxs, n):
        b = len(idxs)
        oks, js = np.zeros((n, b), dtype=bool), np.zeros((n, b), dtype=np.int64)
        valid, count = np.ones(b, dtype=bool), np.zeros(b, dtype=np.int64)
        boot, terminal = idxs.copy(), np.zeros(b, dtype=bool)
        for k in range(n):
            j = (idxs + k) % self.capacity
            ok = (valid & (self.episode[j] == self.episode[idxs])
                  & (self.step[j] == self.step[idxs] + k))
            oks[k], js[k] = ok, j
            count = np.where(ok, k + 1, count)
            boot = np.where(ok, j, boot)
            terminal = np.where(ok, self.done[j], terminal)
            valid = ok & ~self.done[j]
        return oks, js, count, boot, terminal


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=8), st.booleans(),
       st.integers(1, 12), st.integers(1, 4), st.randoms(use_true_random=False))
def test_store_matches_two_copy_reference(lengths, last_done, capacity, n, rnd):
    # every episode but the last ends with a terminal transition; the ring
    # wraps whenever the stream is longer than the capacity
    store, ref = ReplayStore(capacity, 2, 3), TwoCopyStore(capacity, 2, 3)
    state = 0

    def observed(s):
        return (np.arange(6.0).reshape(2, 3) + 10.0 * s,
                np.array([[s, -1], [rnd.randint(-1, 1), s]], dtype=np.int64))

    for e, length in enumerate(lengths):
        obs, nbrs = observed(state)
        for k in range(length):
            state += 1
            next_obs, next_nbrs = observed(state)
            row = dict(obs=obs, actions=np.zeros((2, 2)), rewards=np.zeros(2),
                       next_obs=next_obs, nbrs=nbrs, next_nbrs=next_nbrs,
                       done=k == length - 1 and (e < len(lengths) - 1 or last_done),
                       episode=e, step=k)
            store.add(**row)
            ref.add(**row)
            obs, nbrs = next_obs, next_nbrs
        state += 1
    # every slot once, then a draw with repeats as the sampler makes
    drawn = rnd.choices(range(store.size), k=rnd.randint(1, 19))
    for idxs in (np.arange(store.size), np.array(drawn, dtype=np.int64)):
        got, want = store.chain(idxs, n), ref.chain(idxs, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        boot, terminal = got[3], got[4]
        next_obs, next_nbrs = store.successor(boot)
        live = ~terminal
        np.testing.assert_array_equal(next_obs[live], ref.next_obs[boot[live]])
        np.testing.assert_array_equal(next_nbrs[live], ref.next_nbrs[boot[live]])


def test_buffer_fifo_capacity():
    store = store_with_episode(10, capacity=4)
    assert store.size == 4
    assert store.cursor == 10 % 4


# --- update rules ----------------------------------------------------------------

def small_world():
    return WorldConfig(num_muavs=1, num_cuavs=1, num_pois=5, num_obstacles=2,
                       area_width=8.0, area_height=8.0, max_steps=50)


def test_critic_target_terminal_and_zero_target():
    wc = small_world()
    spec = critic_spec(wc)
    net = Network(spec, rng=None)   # zero params -> Q' = 0
    kinds = [MUAV, CUAV]
    feats = np.random.default_rng(0).normal(0, 1, (4, 2, global_feature_width(wc)))
    lam = np.array([1.0, 2.0, 3.0, 4.0])
    count = np.array([3, 3, 2, 1])
    terminal = np.array([False, True, False, True])
    y = critic_target_values(net, feats, kinds, 0, lam, count, terminal, 0.9)
    assert y == pytest.approx(lam)  # zero-parameter target contributes nothing

    rng = np.random.default_rng(1)
    net2 = Network(spec, rng)
    y2 = critic_target_values(net2, feats, kinds, 0, lam, count, terminal, 0.9)
    assert y2[1] == lam[1] and y2[3] == lam[3]   # terminal rows keep y = lambda
    q = forward(net2, feats, kinds, 0).out[:, 0]
    assert y2[0] == pytest.approx(lam[0] + 0.9 ** 3 * q[0])
    assert y2[2] == pytest.approx(lam[2] + 0.9 ** 2 * q[2])

    y3 = critic_target_values(net2, feats, kinds, 0, lam, count, terminal, 0.0)
    assert y3 == pytest.approx(lam)  # gamma = 0 is fully myopic


def test_critic_update_zero_residual_keeps_params():
    wc = small_world()
    rng = np.random.default_rng(2)
    net = Network(critic_spec(wc), rng)
    feats = rng.normal(0, 1, (4, 2, global_feature_width(wc)))
    kinds = [MUAV, CUAV]
    y = forward(net, feats, kinds, 0).out[:, 0].copy()
    before = net.flat.copy()
    loss, delta = critic_update(net, feats, kinds, 0, y, np.full(4, 0.25), 0.01)
    assert loss == 0.0
    assert delta == pytest.approx(np.zeros(4))
    assert np.array_equal(net.flat, before)


def test_critic_update_zeta_scales_loss():
    wc = small_world()
    rng = np.random.default_rng(3)
    kinds = [MUAV, CUAV]
    feats = rng.normal(0, 1, (4, 2, global_feature_width(wc)))
    y = rng.normal(0, 1, 4)
    zeta = np.array([0.1, 0.2, 0.3, 0.4])

    net1 = Network(critic_spec(wc), np.random.default_rng(9))
    net2 = net1.clone()
    loss1, _ = critic_update(net1, feats, kinds, 0, y, zeta, 0.0)
    doubled = zeta.copy()
    doubled[1] *= 2
    loss2, _ = critic_update(net2, feats, kinds, 0, y, doubled, 0.0)
    q = forward(net2, feats, kinds, 0).out[:, 0]
    contrib = (y[1] - q[1]) ** 2 * zeta[1] / 4
    assert loss2 - loss1 == pytest.approx(contrib, rel=1e-9)


def test_critic_update_gradient_matches_fd():
    wc = small_world()
    rng = np.random.default_rng(4)
    kinds = [MUAV, CUAV]
    feats = rng.normal(0, 1, (4, 2, global_feature_width(wc)))
    y = rng.normal(0, 1, 4)
    zeta = rng.uniform(0.1, 1.0, 4)
    net = Network(critic_spec(wc), rng)

    def loss_fn():
        q = forward(net, feats, kinds, 0).out[:, 0]
        return float(np.mean(zeta * (y - q) ** 2))

    from hgam.neural import backward
    tape = forward(net, feats, kinds, 0)
    q = tape.out[:, 0]
    dq = (-2.0 / 4) * zeta * (y - q)
    backward(net, tape, dq[:, None])
    worst = 0.0
    for name, arr in net.params.items():
        g = net.grads[name]
        for _ in range(3):
            i = int(rng.integers(arr.size))
            old = arr.flat[i]
            arr.flat[i] = old + 1e-5
            up = loss_fn()
            arr.flat[i] = old - 1e-5
            dn = loss_fn()
            arr.flat[i] = old
            fd_val = (up - dn) / 2e-5
            an = float(g.flat[i])
            d = abs(an - fd_val)
            if not d < 1e-8:                    # NaN is kept, not skipped
                worst = float(np.maximum(worst, d / max(abs(an), abs(fd_val))))
    assert worst < 1e-4


def test_actor_update_zero_critic_no_motion():
    wc = small_world()
    rng = np.random.default_rng(5)
    actor = Network(actor_spec(wc), rng)
    critic = Network(critic_spec(wc), rng=None)  # Q == 0 everywhere
    before = actor.flat.copy()
    b = 4
    afeats = rng.normal(0, 1, (b, 2, actor.spec.in_widths[MUAV]))
    cfeats = rng.normal(0, 1, (b, 2, critic.spec.in_widths[MUAV]))
    from hgam.hetgraph import global_action_slice
    obj = actor_update(actor, critic, afeats, (MUAV, CUAV), None,
                       cfeats, [MUAV, CUAV], 0, global_action_slice(wc), 0.01)
    assert obj == 0.0
    assert np.array_equal(actor.flat, before)


def test_actor_update_objective_is_mean_q_and_dqda_matches_fd():
    wc = small_world()
    rng = np.random.default_rng(6)
    actor = Network(actor_spec(wc), rng)
    critic = Network(critic_spec(wc), rng)
    b = 3
    kinds = [MUAV, CUAV]
    afeats = rng.normal(0, 1, (b, 2, actor.spec.in_widths[MUAV]))
    cfeats = rng.normal(0, 1, (b, 2, critic.spec.in_widths[MUAV]))
    from hgam.hetgraph import global_action_slice
    sl = global_action_slice(wc)

    mu = forward(actor, afeats, (MUAV, CUAV), 0).out
    subbed = cfeats.copy()
    subbed[:, 0, sl] = mu
    expected_obj = float(np.mean(forward(critic, subbed, kinds, 0).out[:, 0]))

    # finite-difference dQ/da at the substituted actions
    from hgam.neural import backward
    tape = forward(critic, subbed, kinds, 0)
    _, dfeats = backward(critic, tape, np.full((b, 1), 1.0))
    for bi in range(b):
        for ai in range(2):
            old = subbed[bi, 0, sl][ai]
            subbed[bi, 0, sl.start + ai] += 1e-5
            up = forward(critic, subbed, kinds, 0).out[bi, 0]
            subbed[bi, 0, sl.start + ai] = old - 1e-5
            dn = forward(critic, subbed, kinds, 0).out[bi, 0]
            subbed[bi, 0, sl.start + ai] = old
            fd_val = (up - dn) / 2e-5
            an = dfeats[bi, 0, sl.start + ai]
            assert abs(an - fd_val) < 1e-4 * max(1.0, abs(fd_val))

    obj = actor_update(actor.clone(), critic, afeats, (MUAV, CUAV), None,
                       cfeats, kinds, 0, sl, 0.0)
    assert obj == pytest.approx(expected_obj, rel=1e-12)


# --- config and the training loop ---------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(tau=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(n_step=0)
    for field, value in (("noise_sigma0", -0.3), ("noise_min", -0.01),
                         ("lr_critic", -0.001), ("lr_actor", -1.0e-4),
                         ("noise_decay", -0.1), ("noise_decay", 1.5)):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})
    # zero noise, a frozen learner and either end of the decay range work
    TrainConfig(noise_sigma0=0.0, noise_min=0.0, lr_critic=0.0, lr_actor=0.0,
                noise_decay=0.0)
    TrainConfig(noise_decay=1.0)


def test_train_config_replace_checks_again():
    with pytest.raises(ConfigError, match="max_episodes"):
        replace(TrainConfig(), max_episodes=0)
    with pytest.raises(ConfigError, match="use_gat must be bool"):
        replace(TrainConfig(), use_gat=0)


def test_train_config_file(tmp_path):
    p = tmp_path / "train.yaml"
    p.write_text("gamma: 0.9\nmax_episodes: 3\n")
    tc = load_config(TrainConfig, p)
    assert tc.gamma == 0.9 and tc.max_episodes == 3 and tc.tau == 0.01
    p.write_text("nope: 1\n")
    with pytest.raises(ConfigError):
        load_config(TrainConfig, p)


def quick_configs(**overrides):
    wc = WorldConfig(num_muavs=1, num_cuavs=1, num_pois=5, num_obstacles=2,
                     area_width=6.0, area_height=6.0, max_steps=12)
    defaults = dict(max_episodes=6, e_min=2, batch_size=16,
                    buffer_capacity=256)
    defaults.update(overrides)
    return wc, TrainConfig(**defaults)


def test_no_updates_before_e_min():
    wc, tc = quick_configs(e_min=4, max_episodes=4)
    trainer = Trainer(wc, tc, seed=0)
    snaps = [n.flat.copy() for n in trainer.network_map().values()]
    for e in range(1, 5):
        trainer.run_episode(e)
    for snap, net in zip(snaps, trainer.network_map().values()):
        assert np.array_equal(snap, net.flat)


def test_updates_after_e_min_change_params():
    wc, tc = quick_configs()
    trainer = Trainer(wc, tc, seed=0)
    actor_before = trainer.actors[0].flat.copy()
    for e in range(1, 7):
        trainer.run_episode(e)
    assert not np.array_equal(actor_before, trainer.actors[0].flat)


def test_target_sync_gated_by_f_soft():
    wc, tc = quick_configs(f_soft=4, max_episodes=5, e_min=1)
    trainer = Trainer(wc, tc, seed=0)
    tgt0 = trainer.actor_targets[0].flat.copy()
    for e in range(1, 4):
        trainer.run_episode(e)
    assert np.array_equal(tgt0, trainer.actor_targets[0].flat)  # episodes 2,3 train but no sync
    trainer.run_episode(4)
    assert not np.array_equal(tgt0, trainer.actor_targets[0].flat)


def test_target_sync_runs_on_every_update_step_of_f_soft_episodes(monkeypatch):
    wc, tc = quick_configs(f_soft=2, e_min=1)
    trainer = Trainer(wc, tc, seed=0)
    updates, syncs = Counter(), Counter()
    current = []
    real_update, real_sync = trainer.update, trainer.sync_targets

    def update(episode, step_index):
        current[:] = [episode]
        loss = real_update(episode, step_index)
        updates[episode] += loss is not None
        return loss

    def sync():
        syncs[current[0]] += 1
        real_sync()

    monkeypatch.setattr(trainer, "update", update)
    monkeypatch.setattr(trainer, "sync_targets", sync)
    for e in range(1, 6):
        steps = trainer.run_episode(e)["steps"]
        assert updates[e] == (0 if e <= tc.e_min else steps)
        assert syncs[e] == (updates[e] if e % tc.f_soft == 0 else 0)
    assert sum(syncs.values()) > 0


@pytest.mark.parametrize("group, key, name", [("critics", MUAV, "critic_muav"),
                                              ("actors", 0, "actor_0")])
def test_update_rejects_non_finite_network(group, key, name):
    wc, tc = quick_configs(e_min=1)
    trainer = Trainer(wc, tc, seed=0)
    trainer.run_episode(1)   # fills the replay store without updates
    getattr(trainer, group)[key].flat[0] = np.nan
    with pytest.raises(ContractError, match=f"in {name} at episode 2 step 5"):
        trainer.update(2, 5)


def test_training_episode_observes_every_state_once(monkeypatch):
    wc, tc = quick_configs()
    trainer = Trainer(wc, tc, seed=0)
    calls = []
    real = rollout.observe
    monkeypatch.setattr(rollout, "observe",
                        lambda state, u, *sensing: calls.append(u)
                        or real(state, u, *sensing))
    row = trainer.run_episode(1)
    # the terminal state too: the last transition stores it as next_obs
    assert len(calls) == (row["steps"] + 1) * trainer.num_agents


def test_train_writes_report_and_checkpoints(tmp_path):
    wc, tc = quick_configs(max_episodes=3, e_min=1)
    rows = train(wc, tc, seed=0, out_dir=tmp_path)
    assert len(rows) == 3
    report = (tmp_path / "training_report.csv").read_text().splitlines()
    assert report[0] == ("episode,steps,reward_muav_mean,reward_cuav_mean,"
                         "C,omega,upsilon,D,F,sigma,loss_critic_mean")
    assert len(report) == 4
    assert (tmp_path / "checkpoint.hgam").exists()


@pytest.mark.parametrize("error", [ContractError("non-finite loss"),
                                   KeyboardInterrupt()],
                         ids=["contract", "interrupt"])
def test_failed_training_leaves_no_final_checkpoint(monkeypatch, tmp_path, error):
    # the fail-fast save before episode 1 holds untrained networks, which
    # must not be left behind as the run's checkpoint
    wc, tc = quick_configs(max_episodes=3)
    monkeypatch.setattr(training, "CHECKPOINT_INTERVAL", 1)
    real = Trainer.run_episode

    def failing(self, episode):
        if episode == 2:
            raise error
        return real(self, episode)
    monkeypatch.setattr(Trainer, "run_episode", failing)
    with pytest.raises(type(error)):
        train(wc, tc, seed=0, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_ep000001.hgam"]
    assert main(["evaluate", "--policy", "hgam", "--checkpoint",
                 str(tmp_path / "checkpoint.hgam")]) == 3


@pytest.mark.parametrize("episodes", [0, 2], ids=["fresh", "trained"])
def test_checkpoint_moments_of_updated_networks_only(tmp_path, episodes):
    wc, tc = quick_configs(max_episodes=2, e_min=1)
    trainer = Trainer(wc, tc, seed=0)
    for e in range(1, episodes + 1):
        trainer.run_episode(e)
    trainer.save(tmp_path / "checkpoint.hgam")
    held: dict[str, set] = {}
    for key in load_checkpoint(tmp_path / "checkpoint.hgam"):
        name, _, tensor = key.partition("/")
        held.setdefault(name, set()).add(tensor)
    assert sorted(held) == sorted(trainer.network_map())
    for name, net in trainer.network_map().items():
        want = set(net.params)
        if episodes and "_target_" not in name:
            assert net.adam_t > 0
            want |= {f"{k}#{s}" for k in net.params for s in "mv"} | {"adam_t"}
        assert held[name] == want, name


def test_train_deterministic_rows(tmp_path):
    wc, tc = quick_configs(max_episodes=4, e_min=1)
    rows1 = train(wc, tc, seed=5, out_dir=tmp_path / "a")
    rows2 = train(wc, tc, seed=5, out_dir=tmp_path / "b")
    assert rows1 == rows2
    assert (tmp_path / "a/training_report.csv").read_bytes() == \
        (tmp_path / "b/training_report.csv").read_bytes()


def test_train_unwritable_checkpoint_fails_fast(tmp_path):
    wc, tc = quick_configs()
    target = tmp_path / "not_a_dir"
    target.write_text("file in the way")
    # a file where the output directory goes is a configuration error
    with pytest.raises(ConfigError, match="output directory"):
        train(wc, tc, seed=0, out_dir=target)
    assert target.read_text() == "file in the way"


def test_critic_shared_per_type_actors_independent():
    wc, tc = quick_configs()
    wc2 = WorldConfig(**{**wc.__dict__, "num_muavs": 2})
    trainer = Trainer(wc2, tc, seed=0)
    # one critic per agent type, one actor per agent
    assert set(trainer.critics) == {MUAV, CUAV}
    assert trainer.actors[0] is not trainer.actors[1]
    assert len({id(n) for n in trainer.critics.values()}) == 2


def test_per_agent_trees_share_transition_slots():
    wc, tc = quick_configs(max_episodes=3, e_min=1)
    trainer = Trainer(wc, tc, seed=1)
    for e in range(1, 4):
        trainer.run_episode(e)
    n = trainer.store.size
    assert n > 0
    for tree in trainer.trees:
        assert np.all(tree.leaves(np.arange(n)) > 0.0)
    # priorities diverge across agents once updates ran
    assert not np.allclose(trainer.trees[0].leaves(np.arange(n)),
                           trainer.trees[1].leaves(np.arange(n)))


def test_trainer_requires_both_kinds():
    with pytest.raises(ConfigError):
        Trainer(WorldConfig(num_cuavs=0), TrainConfig(), seed=0)
