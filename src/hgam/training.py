"""Training pipeline: per-agent prioritized replay over a shared transition
store, truncated multi-step returns, deterministic-policy updates with a
shared critic per agent type, and soft target syncs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import make_out_dir, max_obs_len, write_csv
from .errors import CheckpointError, ConfigError, ContractError
from .hetgraph import (global_action_slice, global_feature_batch,
                       global_feature_width, local_feature_batch,
                       local_feature_width)
from .neural import (LINEAR, TANH, NetSpec, Network, adam_step, backward,
                     forward, load_checkpoint, network_from_tensors,
                     network_tensors, save_checkpoint)
from .rollout import joint_observation, run_episode
from .world import WorldConfig, check_field_types, check_run, generate_scenario

PRIORITY_EPS = 1e-4
CHECKPOINT_INTERVAL = 100   # episodes between numbered checkpoints in Trainer.run


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = 0.98
    tau: float = 0.01
    n_step: int = 3
    f_soft: int = 50
    e_min: int = 50
    buffer_capacity: int = 100_000
    batch_size: int = 128
    per_alpha: float = 0.6
    lr_critic: float = 0.001
    lr_actor: float = 0.0001
    noise_sigma0: float = 0.3
    noise_decay: float = 0.9995
    noise_min: float = 0.05
    max_episodes: int = 500
    use_gat: bool = True

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma must lie in [0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError("tau must lie in (0, 1]")
        if self.n_step < 1:
            raise ConfigError("n_step must be >= 1")
        if self.buffer_capacity < 1 or self.batch_size < 1:
            raise ConfigError("buffer_capacity and batch_size must be >= 1")
        if self.f_soft < 1:
            raise ConfigError("f_soft must be >= 1")
        if self.e_min < 0 or self.max_episodes < 1:
            raise ConfigError("e_min must be >= 0 and max_episodes >= 1")
        if self.per_alpha < 0:
            raise ConfigError("per_alpha must be >= 0")


# ---------------------------------------------------------------------------
# prioritized replay

class SumTree:
    """Binary tree over leaf priorities; every internal node is recomputed as
    the sum of its children on update, so the partial sums stay exactly
    consistent under any update sequence."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        cap = 1
        while cap < capacity:
            cap <<= 1
        self.capacity = cap
        self.levels = cap.bit_length() - 1
        self.sums = np.zeros(2 * cap)

    @property
    def total(self) -> float:
        return float(self.sums[1])

    def max_leaf(self, n: int) -> float:
        """The largest of the first `n` leaf priorities (0.0 when n is 0)."""
        return float(self.sums[self.capacity:self.capacity + n].max(initial=0.0))

    def leaves(self, idxs) -> np.ndarray:
        return self.sums[np.asarray(idxs, dtype=int) + self.capacity]

    def set_many(self, idxs, values) -> None:
        """Write leaf priorities (the last write wins for a repeated index)
        and recompute every ancestor of the written leaves."""
        cap = self.capacity
        nodes = np.asarray(idxs, dtype=int) + cap
        if nodes.size == 1:
            node = int(nodes.flat[0])
            if not cap <= node < 2 * cap:
                raise ContractError("sum-tree index out of range")
            self._set_one(node, float(np.asarray(values, dtype=float).flat[0]))
            return
        if np.any(nodes < cap) or np.any(nodes >= 2 * cap):
            raise ContractError("sum-tree index out of range")
        self.sums[nodes] = values
        # parents of a sorted, unique level are sorted: dedupe by neighbours
        level = np.unique(nodes >> 1)
        while level.size and level[0] > 0:
            left = level << 1
            self.sums[level] = self.sums[left] + self.sums[left + 1]
            level = level >> 1
            keep = np.empty(level.size, dtype=bool)
            keep[0] = True
            np.not_equal(level[1:], level[:-1], out=keep[1:])
            level = level[keep]

    def _set_one(self, node: int, value: float) -> None:
        """One leaf's root path with scalar reads and writes (an insert per
        environment step), doing the vector walk's arithmetic."""
        sums = memoryview(self.sums)
        sums[node] = value
        node >>= 1
        while node:
            left = node << 1
            sums[node] = sums[left] + sums[left + 1]
            node >>= 1

    def set(self, idx: int, value: float) -> None:
        self.set_many([idx], [value])

    def sample(self, k: int, rng: np.random.Generator):
        """Stratified proportional draw: one uniform point per equal-mass
        segment, walked down the tree. Returns (leaf indices, normalized
        probabilities)."""
        total = self.total
        if total <= 0.0:
            raise ContractError("sampling from an empty sum-tree")
        x = (np.arange(k) + rng.uniform(size=k)) * (total / k)
        x = np.minimum(x, np.nextafter(total, 0.0))
        node = np.ones(k, dtype=int)
        for _ in range(self.levels):
            left = node << 1
            left_sum = self.sums[left]
            go_left = x < left_sum
            node = np.where(go_left, left, left + 1)
            x = np.where(go_left, x, x - left_sum)
            # keep x strictly inside the chosen subtree despite rounding
            x = np.minimum(x, np.nextafter(self.sums[node], 0.0))
        idx = node - self.capacity
        return idx, self.sums[node] / total


def priorities(deltas, alpha: float, eps: float = PRIORITY_EPS) -> np.ndarray:
    """Sum-tree priorities (|delta| + eps)^alpha of TD errors."""
    return (np.abs(deltas) + eps) ** alpha


def nstep_return(rewards: np.ndarray, oks: np.ndarray, gamma: float) -> np.ndarray:
    """Truncated n-step returns sum_k gamma^k r_k over the steps k of each
    column where `oks` (n, B) holds, for rewards (n, B). The terms are added
    in order of k at every batch size (a cumulative sum; `np.sum` would sum
    a single column pairwise)."""
    discounts = np.power(gamma, np.arange(len(rewards)))
    terms = np.where(oks, rewards, 0.0) * discounts[:, None]
    return np.cumsum(terms, axis=0)[-1]


class ReplayStore:
    """Ring buffer of joint transitions shared by all per-agent trees.

    Each observation is kept once. A transition's successor is the
    observation and neighbour rows of the next slot, except for the newest
    transition, whose successor is held apart until the next `add`. So the
    store takes a transition only when it continues the newest episode step
    by step, with the newest successor as its `obs`, or when the newest
    transition is terminal: every episode ends with a terminal transition."""

    def __init__(self, capacity: int, num_agents: int, obs_width: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, num_agents, obs_width))
        self.actions = np.zeros((capacity, num_agents, 2))
        self.rewards = np.zeros((capacity, num_agents))
        self.done = np.zeros(capacity, dtype=bool)
        self.nbrs = np.zeros((capacity, num_agents, 2), dtype=np.int64)
        self.held_obs = np.zeros((num_agents, obs_width))
        self.held_nbrs = np.zeros((num_agents, 2), dtype=np.int64)
        self.newest = None   # (episode, step, done) of the newest transition
        self.size = 0
        self.cursor = 0

    def add(self, *, obs, actions, rewards, next_obs, done, episode, step,
            nbrs, next_nbrs) -> int:
        """Store one joint transition: padded observations (U, W), actions
        (U, 2), rewards (U,) and neighbor rows (U, 2) (-1 = absent) of the
        step with index `step` of `episode`. Returns its slot. Raises
        ContractError when the transition neither continues the newest
        episode at its next step nor follows a terminal transition."""
        if self.newest is not None:
            last_episode, last_step, last_done = self.newest
            if not last_done and (episode, step) != (last_episode, last_step + 1):
                raise ContractError(
                    f"transition (episode {episode}, step {step}) does not "
                    f"continue unfinished episode {last_episode} after step "
                    f"{last_step}")
        i = self.cursor
        self.obs[i] = obs
        self.actions[i] = actions
        self.rewards[i] = rewards
        self.done[i] = done
        self.nbrs[i] = nbrs
        self.held_obs[...] = next_obs
        self.held_nbrs[...] = next_nbrs
        self.newest = (episode, step, bool(done))
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        return i

    def successor(self, idxs: np.ndarray):
        """Observations (B, U, W) and neighbor rows (B, U, 2) of the state
        each slot's transition led to: slot i+1's, or the held successor
        when slot i+1 is the cursor. For a terminal slot the rows are some
        finite state, not necessarily its successor (the next episode's
        first state); a terminal transition's target never reads them."""
        nxt = (np.asarray(idxs, dtype=np.int64) + 1) % self.capacity
        obs, nbrs = self.obs[nxt], self.nbrs[nxt]
        held = nxt == self.cursor
        obs[held] = self.held_obs
        nbrs[held] = self.held_nbrs
        return obs, nbrs

    def chain(self, idxs: np.ndarray, n: int):
        """Follow up to n consecutive transitions of one episode from each
        index: slot i+1 continues slot i unless slot i is terminal or slot
        i+1 is the cursor (the oldest or an empty slot). Returns (per-step
        inclusion mask (n, B), per-step slot indices (n, B), steps summed
        (B,), bootstrap slot (B,), terminal flag (B,))."""
        b = len(idxs)
        oks = np.zeros((n, b), dtype=bool)
        js = np.zeros((n, b), dtype=np.int64)
        valid = np.ones(b, dtype=bool)
        count = np.zeros(b, dtype=np.int64)
        boot = np.asarray(idxs, dtype=np.int64).copy()
        terminal = np.zeros(b, dtype=bool)
        for k in range(n):
            j = (idxs + k) % self.capacity
            ok = valid & (j != self.cursor) if k else valid
            oks[k] = ok
            js[k] = j
            count = np.where(ok, k + 1, count)
            boot = np.where(ok, j, boot)
            terminal = np.where(ok, self.done[j], terminal)
            valid = ok & ~self.done[j]
        return oks, js, count, boot, terminal


def exploration_noise(rng: np.random.Generator, sigma: float) -> np.ndarray:
    """Independent zero-mean Gaussian noise per action component."""
    return rng.normal(0.0, sigma, size=2)


def soft_update(target: Network, source: Network, tau: float) -> None:
    target.flat *= (1.0 - tau)
    target.flat += tau * source.flat


# ---------------------------------------------------------------------------
# update rules (free functions so they can be exercised in isolation)

def actor_spec(config: WorldConfig, use_gat: bool = True) -> NetSpec:
    return NetSpec({k: local_feature_width(config) for k in config.kinds}, 2,
                   TANH, use_gat=use_gat)


def critic_spec(config: WorldConfig, use_gat: bool = True) -> NetSpec:
    return NetSpec({k: global_feature_width(config) for k in config.kinds}, 1,
                   LINEAR, use_gat=use_gat)


def actor_actions(actors, config: WorldConfig, obs: np.ndarray,
                  nbrs: np.ndarray) -> np.ndarray:
    """Decentralized execution: agent u's actor `actors[u]` on its own local
    graph, built from padded observations (B, U, W) and neighbor rows
    (B, U, 2). Returns the unclipped actions (B, U, 2)."""
    out = np.empty((obs.shape[0], config.num_uavs, 2))
    for u in range(config.num_uavs):
        feats, node_kinds, mask = local_feature_batch(obs, nbrs, u, config)
        out[:, u] = forward(actors[u], feats, node_kinds, 0, mask).out
    return out


def critic_target_values(critic_target: Network, next_feats: np.ndarray,
                         kinds, ego: int, lam: np.ndarray, count: np.ndarray,
                         terminal: np.ndarray, gamma: float) -> np.ndarray:
    """Bootstrapped targets y = lambda + gamma^n Q'(o', a'); terminal
    transitions keep y = lambda."""
    q_next = forward(critic_target, next_feats, kinds, ego).out[:, 0]
    return lam + np.where(terminal, 0.0, (gamma ** count) * q_next)


def critic_update(critic: Network, feats: np.ndarray, kinds, ego: int,
                  y: np.ndarray, zeta: np.ndarray, lr: float):
    """One descent step on mean(zeta * (y - Q)^2). Returns (loss, deltas)."""
    b = feats.shape[0]
    tape = forward(critic, feats, kinds, ego)
    q = tape.out[:, 0]
    delta = y - q
    loss = float(np.mean(zeta * delta * delta))
    dq = (-2.0 / b) * zeta * delta
    grads, _ = backward(critic, tape, dq[:, None], input_grads=False)
    adam_step(critic, grads, lr)
    return loss, delta


def actor_update(actor: Network, critic: Network,
                 actor_feats: np.ndarray, actor_kinds, actor_mask,
                 critic_feats: np.ndarray, critic_kinds, ego: int,
                 action_slice: slice, lr: float) -> float:
    """Ascend mean Q with the ego's action slot replaced by the current
    policy output; the critic is read-only here. Returns the objective."""
    b = actor_feats.shape[0]
    atape = forward(actor, actor_feats, actor_kinds, 0, actor_mask)
    subbed = critic_feats.copy()
    subbed[:, ego, action_slice] = atape.out
    ctape = forward(critic, subbed, critic_kinds, ego)
    objective = float(np.mean(ctape.out[:, 0]))
    _, dfeats = backward(critic, ctape, np.full((b, 1), -1.0 / b))
    da = dfeats[:, ego, action_slice]
    agrads, _ = backward(actor, atape, da, input_grads=False)
    adam_step(actor, agrads, lr)
    return objective


# ---------------------------------------------------------------------------
# trainer

class Trainer:
    def __init__(self, world_config: WorldConfig, train_config: TrainConfig,
                 seed: int):
        check_run(world_config, seed)
        self.wc = world_config
        self.tc = train_config
        self.seed = seed
        self.num_agents = world_config.num_uavs

        ss = np.random.SeedSequence(seed)
        init_ss, noise_ss, sample_ss = ss.spawn(3)
        init_rng = np.random.default_rng(init_ss)
        self.noise_rng = np.random.default_rng(noise_ss)
        self.sample_rng = np.random.default_rng(sample_ss)

        a_spec = actor_spec(world_config, train_config.use_gat)
        c_spec = critic_spec(world_config, train_config.use_gat)
        self.actors = [Network(a_spec, init_rng) for _ in range(self.num_agents)]
        self.actor_targets = [a.clone() for a in self.actors]
        self.critics = {kind: Network(c_spec, init_rng)
                        for kind in dict.fromkeys(world_config.kinds)}
        self.critic_targets = {k: v.clone() for k, v in self.critics.items()}

        self.obs_width = max_obs_len(world_config)
        self.store = ReplayStore(train_config.buffer_capacity, self.num_agents,
                                 self.obs_width)
        self.trees = [SumTree(train_config.buffer_capacity)
                      for _ in range(self.num_agents)]
        self.sigma = train_config.noise_sigma0
        self.action_slice = global_action_slice(world_config)

    # -- acting ------------------------------------------------------------

    def policy_actions(self, obs_rows: np.ndarray, nbr_rows: np.ndarray) -> np.ndarray:
        """Exploring actions for one timestep: the actors' batch-1 output for
        the joint observation (U, W) and neighbor rows (U, 2), plus
        Gaussian noise, clipped to [-1, 1]."""
        actions = actor_actions(self.actors, self.wc, obs_rows[None],
                                nbr_rows[None])[0]
        for u in range(self.num_agents):
            actions[u] += exploration_noise(self.noise_rng, self.sigma)
        return np.clip(actions, -1.0, 1.0)

    # -- learning ----------------------------------------------------------

    def insert_priority(self, tree: SumTree) -> float:
        # leaves past the store's size were never written: they hold 0.0
        m = tree.max_leaf(self.store.size)
        return m if m > 0.0 else 1.0

    def update(self, episode: int, step_index: int):
        """One round of critic/actor updates for every agent; returns the
        mean critic loss or None when updates are gated off. A non-finite
        critic loss, or a non-finite parameter in a network the round
        changed, raises ContractError."""
        tc = self.tc
        if episode <= tc.e_min or self.store.size == 0:
            return None
        tree = self.trees[step_index % self.num_agents]
        if tree.total <= 0.0:
            return None
        idxs, _ = tree.sample(tc.batch_size, self.sample_rng)
        b = len(idxs)
        oks, js, count, boot, terminal = self.store.chain(idxs, tc.n_step)

        kinds = self.wc.kinds
        next_obs, next_nbrs = self.store.successor(boot)
        a_prime = actor_actions(self.actor_targets, self.wc, next_obs, next_nbrs)
        next_gfeats = global_feature_batch(next_obs, a_prime, self.wc)

        cur_obs = self.store.obs[idxs]
        cur_nbrs = self.store.nbrs[idxs]
        cur_gfeats = global_feature_batch(cur_obs, self.store.actions[idxs],
                                          self.wc)

        losses = []
        deltas = np.zeros((self.num_agents, b))
        for u, kind in enumerate(kinds):
            lam = nstep_return(self.store.rewards[js, u], oks, tc.gamma)
            y = critic_target_values(self.critic_targets[kind], next_gfeats,
                                     kinds, u, lam, count, terminal, tc.gamma)
            zeta = self.trees[u].leaves(idxs) / self.trees[u].total
            loss, delta = critic_update(self.critics[kind], cur_gfeats,
                                        kinds, u, y, zeta, tc.lr_critic)
            losses.append(loss)
            deltas[u] = delta

            afeats, akinds, amask = local_feature_batch(cur_obs, cur_nbrs, u,
                                                        self.wc)
            actor_update(self.actors[u], self.critics[kind], afeats, akinds,
                         amask, cur_gfeats, kinds, u, self.action_slice,
                         tc.lr_actor)

        synced = episode % tc.f_soft == 0
        if synced:
            self.sync_targets()

        # a NaN or inf stops the run before it reaches the priorities
        where = f"at episode {episode} step {step_index}"
        for u, loss in enumerate(losses):
            if not np.isfinite(loss):
                raise ContractError(f"non-finite loss {loss} (agent {u}) in "
                                    f"critic_{kinds[u]} {where}")
        for name, net in self.network_map().items():
            if (synced or "_target_" not in name) and not np.isfinite(net.flat).all():
                raise ContractError(f"non-finite parameter in {name} {where}")

        for tree, vals in zip(self.trees, priorities(deltas, tc.per_alpha)):
            tree.set_many(idxs, vals)
        return float(np.mean(losses))

    def sync_targets(self) -> None:
        for a, at in zip(self.actors, self.actor_targets):
            soft_update(at, a, self.tc.tau)
        for kind, c in self.critics.items():
            soft_update(self.critic_targets[kind], c, self.tc.tau)

    # -- episodes ----------------------------------------------------------

    def scenario_seed(self, episode: int) -> int:
        return int(np.random.SeedSequence((self.seed, episode)).generate_state(1)[0])

    def run_episode(self, episode: int) -> dict:
        losses = []

        def learn(state, t, obs, nbrs, actions, rewards, events):
            # the store holds the successor, terminal or not, until the next
            # step's transition stores it as its obs; the next action reuses it
            next_obs, next_nbrs = joint_observation(state, events)
            slot = self.store.add(
                obs=obs, actions=actions, rewards=rewards, next_obs=next_obs,
                done=state.done, episode=episode, step=t, nbrs=nbrs,
                next_nbrs=next_nbrs)
            for tree in self.trees:
                tree.set(slot, self.insert_priority(tree))
            loss = self.update(episode, t)
            if loss is not None:
                losses.append(loss)
            return next_obs, next_nbrs

        state = generate_scenario(self.wc, self.scenario_seed(episode))
        report = run_episode(
            state, lambda _, obs, nbrs: self.policy_actions(obs, nbrs), learn)
        row = {"episode": episode, "steps": state.t}
        for key in ("reward_muav_mean", "reward_cuav_mean", "C", "omega",
                    "upsilon", "D", "F"):
            row[key] = report[key]
        row["sigma"] = self.sigma
        row["loss_critic_mean"] = float(np.mean(losses)) if losses else 0.0
        self.sigma = max(self.tc.noise_min, self.sigma * self.tc.noise_decay)
        return row

    # -- persistence -------------------------------------------------------

    def network_map(self) -> dict[str, Network]:
        nets: dict[str, Network] = {}
        for i, (a, at) in enumerate(zip(self.actors, self.actor_targets)):
            nets[f"actor_{i}"] = a
            nets[f"actor_target_{i}"] = at
        for kind in self.critics:
            nets[f"critic_{kind}"] = self.critics[kind]
            nets[f"critic_target_{kind}"] = self.critic_targets[kind]
        return nets

    def save(self, path) -> None:
        tensors: dict[str, np.ndarray] = {}
        for name, net in self.network_map().items():
            tensors.update(network_tensors(name, net))
        save_checkpoint(path, tensors)

    def run(self, out_dir) -> list[dict]:
        out = make_out_dir(out_dir)
        final_ckpt = out / "checkpoint.hgam"
        self.save(final_ckpt)  # fail fast on an unwritable destination
        rows = []
        for episode in range(1, self.tc.max_episodes + 1):
            rows.append(self.run_episode(episode))
            if episode % CHECKPOINT_INTERVAL == 0:
                self.save(out / f"checkpoint_ep{episode:06d}.hgam")
        self.save(final_ckpt)
        write_training_csv(out / "training_report.csv", rows)
        return rows


TRAIN_COLUMNS = ["episode", "steps", "reward_muav_mean", "reward_cuav_mean",
                 "C", "omega", "upsilon", "D", "F", "sigma", "loss_critic_mean"]


def write_training_csv(path, rows) -> None:
    write_csv(path, TRAIN_COLUMNS, ([row[c] for c in TRAIN_COLUMNS] for row in rows))


def train(world_config: WorldConfig, train_config: TrainConfig, seed: int,
          out_dir) -> list[dict]:
    """Full training run; writes the per-episode report CSV and checkpoints
    under out_dir and returns the report rows."""
    trainer = Trainer(world_config, train_config, seed)
    return trainer.run(out_dir)


def load_actor_networks(path, world_config: WorldConfig,
                        use_gat: bool = True) -> list[Network]:
    """Actor networks for every agent from a checkpoint, shape-validated
    against the world configuration. Only the actors' parameter tensors are
    read."""
    n = world_config.num_uavs
    spec = actor_spec(world_config, use_gat)
    tensors = load_checkpoint(path, {f"actor_{i}/{k}" for i in range(n)
                                     for k in spec.param_shapes()})
    missing = [f"actor_{i}" for i in range(n)
               if f"actor_{i}/head_w2" not in tensors]
    if missing:
        raise CheckpointError(f"checkpoint lacks networks for agents: {missing}")
    return [network_from_tensors(f"actor_{i}", spec, tensors) for i in range(n)]
