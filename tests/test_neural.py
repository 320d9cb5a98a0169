import math
import sys
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import branch_signature, forward_graph, kink_free_fd
from hgam.errors import CheckpointError
from hgam.hetgraph import HeteroGraph
from hgam.neural import (LINEAR, LRELU_ATTN, LRELU_HIDDEN, TANH, NetSpec,
                         Network, _slope_mask, adam_step, backward, forward,
                         load_checkpoint, network_from_tensors, network_tensors,
                         save_checkpoint)
from hgam.world import CUAV, MUAV

SMALL_ACTOR = NetSpec({MUAV: 9, CUAV: 9}, 2, TANH, embed_dim=8, head_hidden=12)
SMALL_CRITIC = NetSpec({MUAV: 11, CUAV: 11}, 1, LINEAR, embed_dim=8, head_hidden=12)


def make_graph(spec, kinds, ego=0, rng=None, features=None):
    rng = rng or np.random.default_rng(0)
    n = len(kinds)
    if features is None:
        features = rng.normal(0, 1, (n, spec.in_widths[kinds[0]]))
    edges = [(i, ego) for i in range(n) if i != ego]
    return HeteroGraph(list(range(n)), list(kinds), features, ego, edges)


# --- encoder -----------------------------------------------------------------

def test_encode_zero_params_gives_zero():
    net = Network(SMALL_ACTOR, rng=None)
    tape = forward(net, np.ones((1, 3, 9)), (MUAV, MUAV, CUAV), 0)
    assert np.all(tape.h == 0.0)


def test_encode_scalar_positive_branch():
    spec = NetSpec({MUAV: 1}, 1, LINEAR, embed_dim=1, head_hidden=1)
    net = Network(spec, rng=None)
    net.params["enc_muav_w1"][...] = 2.0
    net.params["enc_muav_w2"][...] = 1.0
    tape = forward(net, np.array([[[3.0]]]), (MUAV,), 0)
    assert tape.h[0, 0, 0] == pytest.approx(6.0)


def test_encode_scalar_negative_branch():
    spec = NetSpec({MUAV: 1}, 1, LINEAR, embed_dim=1, head_hidden=1)
    net = Network(spec, rng=None)
    net.params["enc_muav_w1"][...] = 2.0
    net.params["enc_muav_w2"][...] = 1.0
    # first layer: lrelu(-6) = -0.06; second: lrelu(-0.06) = -0.0006
    tape = forward(net, np.array([[[-3.0]]]), (MUAV,), 0)
    assert tape.h[0, 0, 0] == pytest.approx(-0.0006)


def test_encode_rejects_width_mismatch():
    net = Network(SMALL_ACTOR, rng=None)
    with pytest.raises(ValueError):
        forward(net, np.zeros((1, 1, 5)), (MUAV,), 0)


# --- attention ----------------------------------------------------------------

def test_attention_singleton():
    net = Network(SMALL_ACTOR, np.random.default_rng(1))
    feats = np.random.default_rng(2).normal(0, 1, (1, 2, 9))
    tape = forward(net, feats, (MUAV, CUAV), 0)
    assert tape.alpha[0] == pytest.approx([1.0])


def test_attention_identical_neighbors_split_evenly():
    net = Network(SMALL_ACTOR, np.random.default_rng(1))
    feats = np.random.default_rng(3).normal(0, 1, (1, 3, 9))
    feats[0, 2] = feats[0, 1]
    tape = forward(net, feats, (MUAV, CUAV, CUAV), 0)
    assert tape.alpha[0] == pytest.approx([0.5, 0.5])


def test_attention_softmax_values():
    # identity encoders pass non-negative features through unchanged, and
    # these parameters make the post-activation logits exactly (0, ln 3)
    net = Network(SMALL_ACTOR, rng=None)
    net.params["enc_muav_w1"][:, :8] = np.eye(8)
    net.params["enc_muav_w2"][...] = np.eye(8)
    net.params["gat_w"][...] = np.eye(8)
    net.params["gat_a"][0] = 1.0          # logit = first component of W h_v
    feats = np.zeros((1, 3, 9))
    feats[0, 2, 0] = math.log(3.0)
    tape = forward(net, feats, (MUAV, MUAV, MUAV), 0)
    assert tape.alpha[0] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_attention_positive_and_normalized_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        net = Network(SMALL_ACTOR, rng)
        n = int(rng.integers(2, 6))
        kinds = tuple(MUAV if c else CUAV for c in rng.integers(0, 2, n))
        tape = forward(net, rng.normal(0, 1, (1, n, 9)), kinds,
                       int(rng.integers(n)))
        assert np.all(tape.alpha > 0)
        assert abs(tape.alpha.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("spec,b", [(SMALL_ACTOR, 1), (SMALL_ACTOR, 128),
                                     (SMALL_CRITIC, 1), (SMALL_CRITIC, 128)],
                         ids=["actor-1", "actor-128", "critic-1", "critic-128"])
def test_mask_none_is_every_slot_present(spec, b):
    kinds = (MUAV, MUAV, CUAV)
    rng = np.random.default_rng(b)
    net = Network(spec, rng)
    feats = rng.normal(0, 1, (b, len(kinds), spec.in_widths[MUAV]))
    w = rng.normal(0, 1, (b, spec.out_dim))
    passes = []
    for mask in (None, np.ones((b, len(kinds) - 1), dtype=bool)):
        tape = forward(net, feats, kinds, 0, mask)
        grad, dfeats = backward(net, tape, w)
        passes.append((tape.out, tape.alpha, tape.g, grad.copy(), dfeats))
    for free, masked in zip(*passes):
        assert free.tobytes() == masked.tobytes()


# --- aggregation ----------------------------------------------------------------

def test_gat_aggregate_identity_passthrough():
    net = Network(SMALL_ACTOR, np.random.default_rng(1))
    net.params["gat_w"][...] = np.eye(8)
    feats = np.random.default_rng(2).normal(0, 1, (1, 2, 9))
    tape = forward(net, feats, (MUAV, CUAV), 0)
    assert np.array_equal(tape.g[0], tape.h[0, 1])


def test_gat_aggregate_identical_neighbors_convexity():
    net = Network(SMALL_ACTOR, np.random.default_rng(1))
    net.params["gat_w"][...] = np.eye(8)
    feats = np.random.default_rng(2).normal(0, 1, (1, 3, 9))
    feats[0, 2] = feats[0, 1]
    tape = forward(net, feats, (MUAV, CUAV, CUAV), 0)
    assert tape.g[0] == pytest.approx(tape.h[0, 1])


# --- heads ----------------------------------------------------------------------

def test_actor_zero_params_outputs_zero_action():
    net = Network(SMALL_ACTOR, rng=None)
    a = forward_graph(net, make_graph(SMALL_ACTOR, (MUAV, MUAV, CUAV))).out[0]
    assert a == pytest.approx([0.0, 0.0])


def test_actor_outputs_in_open_interval():
    rng = np.random.default_rng(11)
    for _ in range(50):
        net = Network(SMALL_ACTOR, rng)
        g = make_graph(SMALL_ACTOR, (MUAV, CUAV), rng=rng)
        a = forward_graph(net, g).out[0]
        assert np.all(np.abs(a) < 1.0)


def test_actor_single_node_uses_zero_aggregate():
    rng = np.random.default_rng(5)
    net = Network(SMALL_ACTOR, rng)
    g1 = make_graph(SMALL_ACTOR, (MUAV,), rng=np.random.default_rng(6))
    tape = forward_graph(net, g1)
    assert np.all(tape.g == 0.0)


def test_critic_zero_params_outputs_zero():
    net = Network(SMALL_CRITIC, rng=None)
    g = make_graph(SMALL_CRITIC, (MUAV, MUAV, CUAV))
    assert forward_graph(net, g).out[0, 0] == 0.0


def test_critic_neighbor_order_invariance():
    rng = np.random.default_rng(8)
    net = Network(SMALL_CRITIC, rng)
    feats = rng.normal(0, 1, (3, 11))
    g1 = HeteroGraph([0, 1, 2], [MUAV, MUAV, CUAV], feats, 0,
                     [(1, 0), (2, 0)])
    swapped = feats[[0, 2, 1]]
    g2 = HeteroGraph([0, 2, 1], [MUAV, CUAV, MUAV], swapped, 0,
                     [(1, 0), (2, 0)])
    assert forward_graph(net, g1).out[0, 0] == pytest.approx(
        forward_graph(net, g2).out[0, 0], rel=1e-12)


def test_critic_duplicate_identical_neighbor_keeps_aggregate():
    rng = np.random.default_rng(9)
    net = Network(SMALL_CRITIC, rng)
    feats = rng.normal(0, 1, (2, 11))
    g2 = HeteroGraph([0, 1], [MUAV, MUAV], feats, 0, [(1, 0)])
    feats3 = np.vstack([feats, feats[1]])
    g3 = HeteroGraph([0, 1, 2], [MUAV, MUAV, MUAV], feats3, 0,
                     [(1, 0), (2, 0)])
    t2 = forward_graph(net, g2)
    t3 = forward_graph(net, g3)
    assert t3.alpha[0] == pytest.approx([0.5, 0.5])
    assert t2.g[0] == pytest.approx(t3.g[0], rel=1e-12)
    assert t2.out[0, 0] == pytest.approx(t3.out[0, 0], rel=1e-12)


def test_no_gat_flag_zeroes_aggregate():
    rng = np.random.default_rng(10)
    net = Network(replace(SMALL_CRITIC, use_gat=False), rng)
    g = make_graph(SMALL_CRITIC, (MUAV, MUAV, CUAV), rng=rng)
    tape = forward_graph(net, g)
    assert np.all(tape.g == 0.0)
    backward(net, tape, np.ones((1, 1)))
    assert not net.grads["gat_w"].any()


# --- activations ------------------------------------------------------------------

EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max,
                  -sys.float_info.max, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("slope", [LRELU_HIDDEN, LRELU_ATTN])
@settings(max_examples=200, deadline=None)
@given(z=st.lists(st.floats() | st.sampled_from(EXTREME_FLOATS), min_size=1,
                  max_size=32))
@example(z=EXTREME_FLOATS)
def test_activation_is_the_slope_mask_product(slope, z):
    """forward's LeakyReLU max(z, slope z) is z times the derivative mask,
    and the mask read back from the activation is the input's."""
    z = np.array(z)
    act = np.maximum(z, z * slope)
    want = z * _slope_mask(z, slope)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(act), nan)
    assert act[~nan].tobytes() == want[~nan].tobytes()
    assert _slope_mask(act, slope).tobytes() == _slope_mask(z, slope).tobytes()


# --- backward ---------------------------------------------------------------------

def rel_err(a, f):
    d = abs(a - f)
    return 0.0 if d < 1e-8 else d / max(abs(a), abs(f))


def test_backward_single_linear_unit():
    # L = (w x)^2 with x = 1, w = 2 -> dL/dw = 2 w x^2 = 4
    spec = NetSpec({MUAV: 1}, 1, LINEAR, embed_dim=1, head_hidden=1)
    net = Network(spec, rng=None)
    net.params["enc_muav_w1"][...] = 2.0
    net.params["enc_muav_w2"][...] = 1.0
    net.params["head_w1"][...] = [[1.0, 0.0]]
    net.params["head_w2"][...] = 1.0
    g = make_graph(spec, (MUAV,), features=np.array([[1.0]]))
    tape = forward_graph(net, g)
    q = tape.out[0, 0]
    assert q == pytest.approx(2.0)
    backward(net, tape, np.array([[2.0 * q]]))  # dL/dout for L=out^2
    assert net.grads["enc_muav_w1"][0, 0] == pytest.approx(4.0)


def test_backward_tanh_unit_slope_at_zero():
    net = Network(SMALL_ACTOR, rng=None)  # all zeros -> out = tanh(0) = 0
    g = make_graph(SMALL_ACTOR, (MUAV, CUAV))
    tape = forward_graph(net, g)
    backward(net, tape, np.array([[1.0, 0.0]]))
    # d tanh(z)/dz at 0 is 1, so the head bias gradient passes through intact
    assert net.grads["head_b2"] == pytest.approx([1.0, 0.0])


@pytest.mark.parametrize("kinds,ego,out_spec,mask", [
    ((MUAV, MUAV, CUAV), 0, SMALL_ACTOR, None),
    ((MUAV, CUAV, MUAV), 1, SMALL_CRITIC, None),
    ((CUAV, MUAV), 0, SMALL_ACTOR, None),
    ((MUAV,), 0, SMALL_CRITIC, None),
    # actor templates with absent slots: rows with some, none or every
    # neighbour slot absent
    ((MUAV, MUAV, CUAV), 0, SMALL_ACTOR,
     np.array([[True, False], [False, False], [False, True]])),
    ((CUAV, MUAV), 0, SMALL_ACTOR, np.array([[False], [True], [False]])),
], ids=[  # the unmasked ids keep pytest's generated form, so test ids stay stable
    "kinds0-0-out_spec0", "kinds1-1-out_spec1", "kinds2-0-out_spec2",
    "kinds3-0-out_spec3", "masked-muav-actor", "masked-cuav-actor"])
def test_backward_matches_finite_differences(kinds, ego, out_spec, mask):
    # hash() of strings changes with PYTHONHASHSEED; crc32 is stable
    rng = np.random.default_rng(zlib.crc32(repr((kinds, ego)).encode()))
    worst = 0.0
    measured = skipped = 0

    def check(analytic, arr, i):
        nonlocal worst, measured, skipped
        num = kink_free_fd(loss, arr, i)
        if num is None:
            skipped += 1
            return
        worst = float(np.maximum(worst, rel_err(analytic, num)))  # keeps NaN
        measured += 1

    for _ in range(5):
        net = Network(out_spec, rng)
        feats = rng.normal(0, 1, (3, len(kinds), out_spec.in_widths[kinds[0]]))
        w = rng.normal(0, 1, (3, out_spec.out_dim))

        def loss():
            tape = forward(net, feats, kinds, ego, mask)
            return float(np.sum(tape.out * w)), branch_signature(tape)

        tape = forward(net, feats, kinds, ego, mask)
        grad, dfeats = backward(net, tape, w)
        grads = net.views(grad.copy())   # the wild pass below overwrites net.grad
        assert np.all(np.isfinite(tape.out))
        for name, arr in net.params.items():
            g = grads[name]
            for _ in range(3):
                i = int(rng.integers(arr.size))
                check(float(g.flat[i]), arr, i)
        for _ in range(5):
            i = int(rng.integers(feats.size))
            check(float(dfeats.flat[i]), feats, i)
        if mask is None:
            continue
        absent = ~mask                   # the ego is slot 0 of these templates
        assert np.all(dfeats[:, 1:][absent] == 0.0)
        # what an absent slot holds never reaches the output or a gradient,
        # even where its attention logit would overflow exp
        wild = feats.copy()
        wild[:, 1:][absent] = rng.normal(0, 1e6, (int(absent.sum()), feats.shape[2]))
        wild_tape = forward(net, wild, kinds, ego, mask)
        wild_grad, wild_dfeats = backward(net, wild_tape, w)
        wild_grads = net.views(wild_grad)
        assert wild_tape.out.tobytes() == tape.out.tobytes()
        assert np.all(wild_dfeats[:, 1:][absent] == 0.0)
        assert all(np.array_equal(wild_grads[k], g) for k, g in grads.items())
    assert worst < 1e-4
    # kinks are rare: at least 90% of the drawn coordinates are measured
    assert measured >= 0.9 * (measured + skipped)


@pytest.mark.parametrize("kinds,ego,spec,masked", [
    ((MUAV, MUAV, CUAV), 0, SMALL_ACTOR, True),
    ((CUAV, MUAV, CUAV), 0, replace(SMALL_ACTOR, use_gat=False), False),
    ((MUAV, MUAV, CUAV), 1, SMALL_CRITIC, False),
    ((MUAV,), 0, SMALL_CRITIC, False),
])
def test_backward_without_input_grads_keeps_parameter_grads(kinds, ego, spec,
                                                             masked):
    rng = np.random.default_rng(zlib.crc32(repr((kinds, ego)).encode()))
    net = Network(spec, rng)
    b = 4
    feats = rng.normal(0, 1, (b, len(kinds), spec.in_widths[kinds[0]]))
    mask = rng.uniform(size=(b, len(kinds) - 1)) < 0.7 if masked else None
    tape = forward(net, feats, kinds, ego, mask)
    w = rng.normal(0, 1, (b, spec.out_dim))
    grad, dfeats = backward(net, tape, w)
    grads = net.views(grad.copy())       # the second pass overwrites net.grad
    only_grad, none = backward(net, tape, w, input_grads=False)
    only = net.views(only_grad)
    assert dfeats.shape == feats.shape and none is None
    assert only.keys() == grads.keys()
    for name, g in grads.items():
        assert only[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("spec,kinds,unreached", [
    (replace(SMALL_ACTOR, use_gat=False), (MUAV, MUAV, CUAV), ("gat_w", "gat_a")),
    (SMALL_ACTOR, (MUAV, MUAV), ("enc_cuav_w1", "enc_cuav_b1",
                                 "enc_cuav_w2", "enc_cuav_b2")),
], ids=["no-gat", "kind-missing"])
def test_backward_zeroes_unreached_parameter_grads(spec, kinds, unreached):
    rng = np.random.default_rng(11)
    net = Network(spec, rng)
    fresh = Network(spec, rng=None)
    fresh.flat[...] = net.flat
    feats = rng.normal(0, 1, (3, len(kinds), spec.in_widths[kinds[0]]))
    w = rng.normal(0, 1, (3, spec.out_dim))
    net.grad[...] = np.nan                # whatever a previous pass left
    grad, _ = backward(net, forward(net, feats, kinds, 0), w)
    for name in unreached:
        assert np.all(net.grads[name] == 0.0), name
    want, _ = backward(fresh, forward(fresh, feats, kinds, 0), w)
    assert grad.tobytes() == want.tobytes()


def test_backward_returns_a_new_view_of_the_gradient_each_call():
    net = Network(SMALL_ACTOR, np.random.default_rng(12))
    tape = forward(net, np.ones((2, 3, 9)), (MUAV, MUAV, CUAV), 0)
    first, _ = backward(net, tape, np.ones((2, 2)))
    second, _ = backward(net, tape, np.ones((2, 2)))
    assert first is not second
    assert first.base is net.grad and second.base is net.grad


# --- adam -------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    net = Network(SMALL_ACTOR, np.random.default_rng(0))
    before = net.flat.copy()
    adam_step(net, np.zeros_like(net.flat), 0.01)
    assert np.array_equal(net.flat, before)


def test_adam_first_step_magnitude():
    net = Network(SMALL_ACTOR, np.random.default_rng(0))
    before = net.flat.copy()
    adam_step(net, np.ones_like(net.flat), 0.001)
    delta = net.flat - before
    assert delta == pytest.approx(np.full_like(delta, -0.001), rel=1e-6)


def test_adam_equal_gradients_update_equally():
    net = Network(SMALL_ACTOR, np.random.default_rng(0))
    before = net.params["gat_w"].copy()
    adam_step(net, np.full_like(net.flat, 0.7), 0.01)
    delta = net.params["gat_w"] - before
    assert np.allclose(delta, delta.flat[0])


# --- checkpoints --------------------------------------------------------------------

def test_checkpoint_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    net = Network(SMALL_ACTOR, rng)
    net.adam_t = 17
    net.flat_m[...] = rng.normal(0, 1, net.flat_m.shape)
    net.flat_v[...] = rng.uniform(0, 1, net.flat_v.shape)
    path = tmp_path / "net.hgam"
    saved = network_tensors("actor_0", net)
    save_checkpoint(path, saved)
    tensors = load_checkpoint(path)
    # parameters, moments and step come back bit for bit as tensors
    assert sorted(tensors) == sorted(saved)
    for key, arr in saved.items():
        assert tensors[key].tobytes() == np.asarray(arr, dtype="<f8").tobytes()
    assert tensors["actor_0/adam_t"].tolist() == [[17.0]]
    # a rebuilt network holds the parameters and fresh optimizer state
    loaded = network_from_tensors("actor_0", SMALL_ACTOR, tensors)
    assert np.array_equal(loaded.flat, net.flat)
    assert loaded.adam_t == 0 and not loaded.flat_m.any() and not loaded.flat_v.any()


def test_checkpoint_moments_only_after_adam_step():
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    params = {f"a/{k}" for k in SMALL_ACTOR.param_shapes()}
    assert set(network_tensors("a", net)) == params
    adam_step(net, np.ones_like(net.flat), 0.01)
    moments = {f"{k}#{s}" for k in params for s in "mv"}
    assert set(network_tensors("a", net)) == params | moments | {"a/adam_t"}
    # a clone is a target: parameters only, however far its source has run
    target = net.clone()
    assert np.array_equal(target.flat, net.flat)
    assert set(network_tensors("a", target)) == params


def test_checkpoint_header(tmp_path):
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, network_tensors("a", net))
    blob = path.read_bytes()
    assert blob[:4] == b"HGAM"
    assert int.from_bytes(blob[4:8], "little") == 1


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.hgam"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_unsupported_version(tmp_path):
    path = tmp_path / "v2.hgam"
    path.write_bytes(b"HGAM" + (2).to_bytes(4, "little"))
    with pytest.raises(CheckpointError, match="version 2"):
        load_checkpoint(path)
    path.write_bytes(b"HGAM")
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("names", [None, {f"a/{k}" for k in SMALL_ACTOR.param_shapes()}],
                         ids=["all", "skipped"])
def test_checkpoint_truncated(tmp_path, names):
    # the cut falls in the last record, one of b's, which a's names seek past
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, {**network_tensors("a", net), **network_tensors("b", net)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(CheckpointError, match="truncated tensor b/"):
        load_checkpoint(path, names)


@pytest.mark.parametrize("names", [None, {"a/gat_w"}], ids=["all", "skipped"])
def test_checkpoint_oversized_header_fails_before_allocating(tmp_path, names):
    # 2**31 x 4 doubles would be a 64 GiB array; the file holds 16 bytes
    path = tmp_path / "huge.hgam"
    name = b"a/head_w2"
    path.write_bytes(b"HGAM" + (1).to_bytes(4, "little")
                     + len(name).to_bytes(4, "little") + name
                     + (2 ** 31).to_bytes(4, "little") + (4).to_bytes(4, "little")
                     + bytes(16))
    with pytest.raises(CheckpointError, match="truncated tensor a/head_w2"):
        load_checkpoint(path, names)


@pytest.mark.parametrize("names", [None, {"a/gat_w"}], ids=["all", "skipped"])
def test_checkpoint_name_past_end_fails_before_allocating(tmp_path, names):
    # a 4 GiB name length in a 25-byte file: nothing of that size is read
    path = tmp_path / "long_name.hgam"
    path.write_bytes(b"HGAM" + (1).to_bytes(4, "little")
                     + (2 ** 32 - 1).to_bytes(4, "little") + b"a/gat_w" + bytes(6))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_checkpoint(path, names)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_checkpoint_name_not_utf8(tmp_path):
    path = tmp_path / "bad_name.hgam"
    name = b"a/\xff\xfe"
    path.write_bytes(b"HGAM" + (1).to_bytes(4, "little")
                     + len(name).to_bytes(4, "little") + name
                     + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
                     + bytes(8))
    with pytest.raises(CheckpointError, match="truncated or corrupt"):
        load_checkpoint(path)


@pytest.mark.parametrize("names", [None, {"a/gat_w", "a/head_b2"}], ids=["all", "some"])
def test_checkpoint_arrays_own_their_data(tmp_path, names):
    # each tensor is a copy, not a view into the file's closed mapping
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, network_tensors("a", net))
    tensors = load_checkpoint(path, names)
    assert tensors and (names is None or set(tensors) == names)
    for key, arr in tensors.items():
        assert arr.flags.owndata and arr.flags.writeable, key
        arr += 1.0   # and stays usable after the load returns


def test_checkpoint_selected_networks_bit_identical(tmp_path):
    rng = np.random.default_rng(4)
    tensors = {}
    # actor_01 shares actor_0's prefix but is another network
    for name in ("actor_0", "actor_01", "actor_target_0", "critic_muav"):
        net = Network(SMALL_ACTOR, rng)
        net.flat_m[...] = rng.normal(0, 1, net.flat_m.shape)
        net.adam_t = 3
        tensors.update(network_tensors(name, net))
    path = tmp_path / "nets.hgam"
    save_checkpoint(path, tensors)
    full = load_checkpoint(path)
    # actor_0's parameters and step, not its moments, and one absent name
    names = {f"actor_0/{k}" for k in SMALL_ACTOR.param_shapes()}
    names |= {"actor_0/adam_t", "actor_0/absent"}
    part = load_checkpoint(path, names)
    assert sorted(part) == sorted(names - {"actor_0/absent"})
    for key, arr in part.items():
        assert arr.dtype == full[key].dtype and arr.shape == full[key].shape
        assert arr.tobytes() == full[key].tobytes()
    assert load_checkpoint(path, set()) == {}


def test_checkpoint_shape_mismatch(tmp_path):
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, network_tensors("a", net))
    bigger = NetSpec({MUAV: 9, CUAV: 9}, 2, TANH, embed_dim=16, head_hidden=12)
    with pytest.raises(CheckpointError, match="shape|missing"):
        network_from_tensors("a", bigger, load_checkpoint(path))


def test_checkpoint_missing_network(tmp_path):
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, network_tensors("a", net))
    with pytest.raises(CheckpointError, match="missing"):
        network_from_tensors("b", SMALL_ACTOR, load_checkpoint(path))


@pytest.mark.parametrize("key, value", [("a/head_b2", np.nan)])
def test_checkpoint_rejects_non_finite_values(tmp_path, key, value):
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    tensors = {k: v.copy() for k, v in network_tensors("a", net).items()}
    tensors[key].flat[1] = value
    path = tmp_path / "net.hgam"
    save_checkpoint(path, tensors)
    with pytest.raises(CheckpointError, match=f"{key}: non-finite"):
        network_from_tensors("a", SMALL_ACTOR, load_checkpoint(path))


def test_failed_save_keeps_previous_checkpoint(tmp_path):
    net = Network(SMALL_ACTOR, np.random.default_rng(3))
    path = tmp_path / "net.hgam"
    save_checkpoint(path, network_tensors("a", net))
    before = path.read_bytes()
    # the rank-3 tensor sorts last, so every other tensor is written first
    bad = {**network_tensors("b", net), "z/rank3": np.zeros((2, 2, 2))}
    with pytest.raises(CheckpointError, match="rank 3"):
        save_checkpoint(path, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.hgam"]
