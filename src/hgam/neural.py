"""Small-tensor neural stack with hand-derived reverse-mode gradients.

One network = per-type two-layer MLP encoders (shared embedding width), a
single-head graph attention layer, and a two-layer MLP head. Everything is
float64 and batched over graphs that share a node template (same kinds and
ego slot); per-sample absent neighbors are handled by masking, which is
exactly softmax over the present subset.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CheckpointError

EMBED_DIM = 64
HEAD_HIDDEN = 128
LRELU_HIDDEN = 0.01   # encoder / head hidden layers
LRELU_ATTN = 0.2      # attention logits
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TANH = "tanh"
LINEAR = "linear"


@dataclass(frozen=True)
class NetSpec:
    in_widths: dict[str, int]     # node kind -> encoder input width
    out_dim: int
    out_activation: str           # TANH or LINEAR
    embed_dim: int = EMBED_DIM
    head_hidden: int = HEAD_HIDDEN
    use_gat: bool = True          # False: the no-GAT ablation's zero aggregate

    def param_shapes(self) -> dict[str, tuple[int, int] | tuple[int]]:
        shapes: dict = {}
        for kind in sorted(self.in_widths):
            w = self.in_widths[kind]
            shapes[f"enc_{kind}_w1"] = (self.embed_dim, w)
            shapes[f"enc_{kind}_b1"] = (self.embed_dim,)
            shapes[f"enc_{kind}_w2"] = (self.embed_dim, self.embed_dim)
            shapes[f"enc_{kind}_b2"] = (self.embed_dim,)
        shapes["gat_w"] = (self.embed_dim, self.embed_dim)
        shapes["gat_a"] = (2 * self.embed_dim,)
        shapes["head_w1"] = (self.head_hidden, 2 * self.embed_dim)
        shapes["head_b1"] = (self.head_hidden,)
        shapes["head_w2"] = (self.out_dim, self.head_hidden)
        shapes["head_b2"] = (self.out_dim,)
        return shapes


def _fan_in(name: str, shape) -> int:
    if name.endswith(("_w1", "_w2")):
        return shape[1]
    # biases and the attention vector scale with the embedding they act on
    return shape[-1]


class Network:
    """Parameters plus Adam moment state for one actor or critic.

    The parameters live in one flat float64 buffer with named views, and the
    moments and the gradient in three more of the same layout, so backward,
    the optimizer and soft updates write single vectors. The views are never
    rebound; mutate through them only. The moments stay zero until `adam_step`.
    """

    def __init__(self, spec: NetSpec, rng: np.random.Generator | None = None):
        self.spec = spec
        self.shapes = spec.param_shapes()
        total = sum(math.prod(shape) for shape in self.shapes.values())
        self.flat = np.zeros(total)
        self.flat_m = np.zeros(total)
        self.flat_v = np.zeros(total)
        self.grad = np.zeros(total)
        self.params = self.views(self.flat)
        self.grads = self.views(self.grad)
        if rng is not None:
            for name, shape in self.shapes.items():
                bound = 1.0 / np.sqrt(_fan_in(name, shape))
                self.params[name][...] = rng.uniform(-bound, bound, size=shape)
        self.adam_t = 0

    def views(self, buf: np.ndarray) -> dict[str, np.ndarray]:
        """Named parameter-shaped views of a buffer with the flat layout."""
        out, lo = {}, 0
        for name, shape in self.shapes.items():
            hi = lo + math.prod(shape)
            out[name] = buf[lo:hi].reshape(shape)
            lo = hi
        return out

    def clone(self) -> "Network":
        """A copy of the parameters with fresh optimizer state, as a target
        network starts."""
        out = Network(self.spec, rng=None)
        out.flat[...] = self.flat
        return out


def _slope_mask(x, slope):
    """Pointwise LeakyReLU derivative; y = x * mask gives the activation and
    the same mask backpropagates it."""
    return slope + (1.0 - slope) * (x > 0)


@lru_cache(maxsize=64)
def _kind_runs(kinds: tuple) -> tuple:
    """Consecutive same-kind node ranges, so encoder batches use views."""
    runs = []
    start = 0
    for i in range(1, len(kinds) + 1):
        if i == len(kinds) or kinds[i] != kinds[start]:
            runs.append((kinds[start], start, i))
            start = i
    return tuple(runs)


@lru_cache(maxsize=64)
def _nbr_idx(n: int, ego: int) -> np.ndarray:
    """Node indices of the ego's neighbours (every node but the ego); the
    cached array is shared, so it is read-only."""
    idx = np.array([i for i in range(n) if i != ego], dtype=int)
    idx.flags.writeable = False
    return idx


@dataclass
class Tape:
    """Cached intermediates of one batched forward pass (slope arrays hold
    the LeakyReLU derivatives, which double as the activation masks).

    The encoder entries are per kind run of `_kind_runs(kinds)`, each a 2-D
    array over the run's (B * run length) node rows."""

    feats: np.ndarray            # (B, n, F)
    kinds: tuple
    ego: int
    nbr_idx: np.ndarray          # node indices of the neighbors
    x: list                      # per run: encoder input rows
    s1: list                     # per run: first encoder layer slopes
    a1: list                     # per run: first encoder layer activations
    s2: list                     # per run: second encoder layer slopes
    h: np.ndarray                # (B, n, E) encoder outputs
    wh: np.ndarray | None        # (B, n, E)
    se: np.ndarray | None        # (B, n-1) attention logit slopes
    alpha: np.ndarray | None     # (B, n-1)
    g: np.ndarray                # (B, E)
    x_head: np.ndarray           # (B, 2E)
    s3: np.ndarray
    a3: np.ndarray
    out: np.ndarray              # (B, out_dim)


def forward(net: Network, feats: np.ndarray, kinds, ego: int,
            mask: np.ndarray | None = None) -> Tape:
    """Batched forward pass over graphs sharing one node template.

    feats: (B, n, F); kinds: length-n node kinds; ego: ego slot index;
    mask: (B, n-1) presence of each non-ego node (None = all present).
    """
    spec = net.spec
    p = net.params
    b, n, in_w = feats.shape
    e_dim = spec.embed_dim
    kinds = tuple(kinds)

    xs, s1, a1, s2 = [], [], [], []
    h = np.empty((b, n, e_dim))
    for kind, lo, hi in _kind_runs(kinds):
        x = feats[:, lo:hi, :].reshape(-1, in_w)
        z1 = x @ p[f"enc_{kind}_w1"].T
        z1 += p[f"enc_{kind}_b1"]
        s1k = _slope_mask(z1, LRELU_HIDDEN)
        z1 *= s1k                                   # now the activation a1
        z2 = z1 @ p[f"enc_{kind}_w2"].T
        z2 += p[f"enc_{kind}_b2"]
        s2k = _slope_mask(z2, LRELU_HIDDEN)
        shape = (b, hi - lo, e_dim)
        np.multiply(z2.reshape(shape), s2k.reshape(shape), out=h[:, lo:hi])
        xs.append(x)
        s1.append(s1k)
        a1.append(z1)
        s2.append(s2k)

    nbr_idx = _nbr_idx(n, ego)
    wh = se = alpha = None
    g = np.zeros((b, e_dim))
    if spec.use_gat and len(nbr_idx) > 0:
        wh = (h.reshape(-1, e_dim) @ p["gat_w"].T).reshape(b, n, e_dim)
        a_src = p["gat_a"][:e_dim]
        a_dst = p["gat_a"][e_dim:]
        wh_nbr = wh[:, nbr_idx, :]
        e_logits = wh_nbr @ a_src
        e_logits += (wh[:, ego, :] @ a_dst)[:, None]
        se = _slope_mask(e_logits, LRELU_ATTN)
        el = e_logits * se
        # absent slots get exactly zero weight; with every slot absent the
        # row's weights and aggregate are zero
        present = True if mask is None else mask
        top = np.where(present, el, -np.inf).max(axis=1, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        ex = np.exp(np.where(present, el - top, -np.inf))
        denom = ex.sum(axis=1, keepdims=True)
        alpha = np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)
        g = np.einsum("bk,bke->be", alpha, wh_nbr)

    x_head = np.concatenate([h[:, ego, :], g], axis=1)
    z3 = x_head @ p["head_w1"].T
    z3 += p["head_b1"]
    s3 = _slope_mask(z3, LRELU_HIDDEN)
    z3 *= s3                                        # now the activation a3
    out = z3 @ p["head_w2"].T
    out += p["head_b2"]
    if spec.out_activation == TANH:
        np.tanh(out, out=out)

    return Tape(feats, kinds, ego, nbr_idx, xs, s1, a1, s2, h,
                wh, se, alpha, g, x_head, s3, z3, out)


def backward(net: Network, tape: Tape, dout: np.ndarray,
             input_grads: bool = True):
    """Exact gradients of sum(dout * out) w.r.t. parameters and inputs.

    Returns (a new view of `net.grad`, dfeats of shape (B, n, F)), or
    (grad, None) with `input_grads` false. Parameters the pass does not reach
    get zero; the next `backward` on `net` overwrites the gradient, but each
    call's view is a new object, so perfbench's tracer can tell results apart.
    """
    spec = net.spec
    p = net.params
    grads = net.grads
    net.grad[...] = 0.0
    b, n, in_w = tape.feats.shape
    e_dim = spec.embed_dim

    dz4 = dout * (1.0 - tape.out ** 2) if spec.out_activation == TANH else np.asarray(dout)
    grads["head_w2"] += dz4.T @ tape.a3
    grads["head_b2"] += dz4.sum(axis=0)
    da3 = dz4 @ p["head_w2"]
    dz3 = da3 * tape.s3
    grads["head_w1"] += dz3.T @ tape.x_head
    grads["head_b1"] += dz3.sum(axis=0)
    dx_head = dz3 @ p["head_w1"]

    dg = dx_head[:, e_dim:]
    if spec.use_gat and len(tape.nbr_idx) > 0:
        wh_nbr = tape.wh[:, tape.nbr_idx, :]
        a_src = p["gat_a"][:e_dim]
        a_dst = p["gat_a"][e_dim:]

        dalpha = np.einsum("be,bke->bk", dg, wh_nbr)
        dwh_nbr = tape.alpha[:, :, None] * dg[:, None, :]
        # softmax: masked entries have alpha == 0, so they drop out here
        inner = (tape.alpha * dalpha).sum(axis=1, keepdims=True)
        d_el = tape.alpha * (dalpha - inner)
        de = d_el * tape.se

        grads["gat_a"][:e_dim] += np.einsum("bk,bke->e", de, wh_nbr)
        grads["gat_a"][e_dim:] += (de.sum(axis=1)[:, None] * tape.wh[:, tape.ego, :]).sum(axis=0)
        dwh_nbr += de[:, :, None] * a_src[None, None, :]

        # neighbor slots and the ego cover every node exactly once
        dwh = np.empty((b, n, e_dim))
        dwh[:, tape.nbr_idx, :] = dwh_nbr
        dwh[:, tape.ego, :] = de.sum(axis=1)[:, None] * a_dst[None, :]
        grads["gat_w"] += dwh.reshape(-1, e_dim).T @ tape.h.reshape(-1, e_dim)
        dh = (dwh.reshape(-1, e_dim) @ p["gat_w"]).reshape(b, n, e_dim)
        dh[:, tape.ego, :] += dx_head[:, :e_dim]
    else:
        dh = np.zeros((b, n, e_dim))
        dh[:, tape.ego, :] = dx_head[:, :e_dim]

    # no zeroing needed: the kind runs cover every node
    dfeats = np.empty_like(tape.feats) if input_grads else None
    for r, (kind, lo, hi) in enumerate(_kind_runs(tape.kinds)):
        shape = (b, hi - lo, e_dim)
        dz2 = (dh[:, lo:hi, :] * tape.s2[r].reshape(shape)).reshape(-1, e_dim)
        grads[f"enc_{kind}_w2"] += dz2.T @ tape.a1[r]
        grads[f"enc_{kind}_b2"] += dz2.sum(axis=0)
        dz1 = dz2 @ p[f"enc_{kind}_w2"]
        dz1 *= tape.s1[r]
        grads[f"enc_{kind}_w1"] += dz1.T @ tape.x[r]
        grads[f"enc_{kind}_b1"] += dz1.sum(axis=0)
        if input_grads:
            dfeats[:, lo:hi, :] = (dz1 @ p[f"enc_{kind}_w1"]).reshape(b, hi - lo, in_w)
    return net.grad[:], dfeats


def adam_step(net: Network, grads: np.ndarray, lr: float) -> None:
    """Bias-corrected adaptive moment update, in place over the flat buffer;
    `grads` (flat, as `backward` returns it) is consumed as scratch."""
    net.adam_t += 1
    t = net.adam_t
    g = grads
    m, v = net.flat_m, net.flat_v
    m *= ADAM_BETA1
    g *= (1.0 - ADAM_BETA1)
    m += g
    g *= g  # now (1-b1)^2 g^2; rescale into the v update
    g *= (1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA1) ** 2
    v *= ADAM_BETA2
    v += g
    denom = v / (1.0 - ADAM_BETA2 ** t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step_vec = m / denom
    step_vec *= lr / (1.0 - ADAM_BETA1 ** t)
    net.flat -= step_vec


# ---------------------------------------------------------------------------
# checkpoint format: magic, version, then (name_len, name, rows, cols, data)

CHECKPOINT_MAGIC = b"HGAM"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, tensors: dict[str, np.ndarray]) -> None:
    """Binary dump of named float64 tensors (vectors as one row, little
    endian), in sorted name order. The dump goes to a temporary file next to
    `path`, is synced and then renamed over it, so a failed save leaves the
    previous checkpoint intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            for name in sorted(tensors):
                arr = np.asarray(tensors[name], dtype="<f8")
                mat = arr.reshape(1, -1) if arr.ndim <= 1 else arr
                if mat.ndim != 2:
                    raise CheckpointError(f"tensor {name} has rank {arr.ndim} > 2")
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
                fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
        raise


def load_checkpoint(path, names=None) -> dict[str, np.ndarray]:
    """Read the tensors whose full names are in `names`, or every tensor
    when it is None. The file is mapped read-only; a kept tensor is copied
    out once its record is known to end inside the file, any other skipped
    by offset. Mapping risks SIGBUS only if the file is truncated in place,
    and hgam never does that: it replaces checkpoints with `os.replace`."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise CheckpointError(f"{path}: bad magic {magic!r}")
            buf = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    tensors: dict[str, np.ndarray] = {}
    with buf:
        try:
            (version,) = struct.unpack_from("<I", buf, 4)
            if version != CHECKPOINT_VERSION:
                raise CheckpointError(f"{path}: unsupported format version {version}")
            off = 8
            while off < len(buf):
                (name_len,) = struct.unpack_from("<I", buf, off)
                start = off + 12 + name_len   # the data, after the 8 bytes of rows, cols
                rows, cols = struct.unpack_from("<II", buf, start - 8)
                name = buf[off + 4:start - 8].decode("utf-8")
                off = start + 8 * rows * cols
                if off > len(buf):
                    raise CheckpointError(f"{path}: truncated tensor {name}")
                if names is None or name in names:   # a copy: no view outlives buf
                    tensors[name] = np.frombuffer(buf, "<f8", rows * cols,
                                                  start).reshape(rows, cols).copy()
        except (struct.error, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: truncated or corrupt ({exc})") from exc
    return tensors


def network_tensors(name: str, net: Network) -> dict[str, np.ndarray]:
    """The named tensors a checkpoint holds for one network: its parameters
    always, and its Adam moments (`#m`, `#v`) and step (`adam_t`) once
    `adam_step` has run on it. Targets, which only soft updates move, and
    networks saved before their first update carry parameters only."""
    out = {f"{name}/{k}": v for k, v in net.params.items()}
    if net.adam_t > 0:
        for suffix, buf in (("#m", net.flat_m), ("#v", net.flat_v)):
            out.update((f"{name}/{k}{suffix}", v) for k, v in net.views(buf).items())
        out[f"{name}/adam_t"] = np.array([[float(net.adam_t)]])
    return out


def network_from_tensors(name: str, spec: NetSpec,
                         tensors: dict[str, np.ndarray]) -> Network:
    """Rebuild a network's parameters, validating every shape against the
    spec and rejecting any NaN or infinite value. Optimizer state is not
    read: the network starts with zero moments at step 0."""
    net = Network(spec, rng=None)
    for k, shape in spec.param_shapes().items():
        key = f"{name}/{k}"
        if key not in tensors:
            raise CheckpointError(f"missing tensor {key}")
        arr = tensors[key]
        flat_ok = len(shape) == 1 and arr.shape == (1, shape[0])
        if arr.shape != tuple(shape) and not flat_ok:
            raise CheckpointError(
                f"tensor {key}: shape {arr.shape} incompatible with {shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {key}: non-finite value")
        net.params[k][...] = arr.reshape(shape)
    return net
