import numpy as np
import pytest

from hgam.env import cast_lasers, observe, poi_distances, uav_distances
from hgam.neural import forward
from hgam.world import WorldConfig, WorldState


def build_state(config: WorldConfig, uav_pos, poi_pos=(), poi_m0=(),
                obstacles=()) -> WorldState:
    """Hand-placed world: uav_pos must list MUAV positions first (matching
    config counts); obstacles are (x, y, radius) triples."""
    assert len(uav_pos) == config.num_uavs
    poi_xy = np.asarray(poi_pos, dtype=float).reshape(-1, 2)
    m0 = np.asarray(poi_m0, dtype=float).reshape(-1)
    obs = np.asarray(obstacles, dtype=float).reshape(-1, 3)
    return WorldState(
        config=config,
        pos=np.array(uav_pos, dtype=float).reshape(-1, 2),
        poi_xy=poi_xy,
        poi_m0=m0,
        poi_rem=m0.copy(),
        obstacle_xy=obs[:, :2].copy(),
        obstacle_r=obs[:, 2].copy(),
    )


def observations(state: WorldState) -> list[np.ndarray]:
    """Every agent's unpadded observation of `state` as it is now."""
    sensing = cast_lasers(state), uav_distances(state), poi_distances(state)
    return [observe(state, u, *sensing) for u in range(state.config.num_uavs)]


def forward_graph(net, graph):
    """Batch-1 forward pass over one reference `HeteroGraph`."""
    return forward(net, graph.features[None], graph.node_kinds, graph.ego)


def branch_signature(tape):
    """Which side of every LeakyReLU kink (encoder, attention logit, head)
    a forward tape took: an activation is positive exactly where its input
    is."""
    return (np.concatenate(tape.a1) > 0, tape.h > 0, tape.a3 > 0,
            None if tape.el is None else tape.el > 0)


def _same_branches(a, b):
    return all((x is None and y is None) or np.array_equal(x, y)
               for x, y in zip(a, b))


def kink_free_fd(loss, arr, i, h=1e-5):
    """Central difference of `loss() -> (value, branch_signature)` in
    arr.flat[i]; returns None when the perturbation crosses a LeakyReLU kink
    (the two evaluations activate different branches), since the difference
    quotient is meaningless there."""
    old = arr.flat[i]
    arr.flat[i] = old + h
    up, sig_up = loss()
    arr.flat[i] = old - h
    down, sig_down = loss()
    arr.flat[i] = old
    if not _same_branches(sig_up, sig_down):
        return None
    return (up - down) / (2.0 * h)


@pytest.fixture
def mini_config():
    """The miniature world used by the learning and baseline checks."""
    return WorldConfig(area_width=8.0, area_height=8.0, num_muavs=1,
                       num_cuavs=1, num_pois=20, max_steps=200)
