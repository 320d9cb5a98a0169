"""Span tracing installed from outside hgam.

`Tracer.install()` replaces the public entry points of each hgam layer with
wrappers that record one span per call (name, start, end, parent span) in
memory; `Tracer.uninstall()` puts the originals back. Functions are bound by
name in every module that imports them (`from .neural import forward` in
both `training` and `harness`), so a function is replaced wherever a module
holds it, and methods are replaced on their classes.

A call made while `training.Trainer.update` is open belongs to the learner:
`forward`, `local_feature_batch` and `SumTree.set_many` get the `.learn` /
`.reprioritize` name there and the `.act` / `.insert` name elsewhere.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

import numpy as np

UPDATE = "training.Trainer.update"

# (module, attribute, span name); a pair of names is (outside an update,
# inside an update).
FUNCTIONS = (
    ("world", "generate_scenario", "world.generate_scenario"),
    ("env", "step", "env.step"),
    ("env", "observe", "env.observe"),
    ("env", "cast_lasers", "env.cast_lasers"),
    ("reward", "detect_dilemma", "reward.detect_dilemma"),
    ("metrics", "compute_all", "metrics.compute_all"),
    ("hetgraph", "local_neighbors", "hetgraph.local_neighbors"),
    ("hetgraph", "local_feature_batch",
     ("hetgraph.local_feature_batch.act", "hetgraph.local_feature_batch.learn")),
    ("hetgraph", "global_feature_batch", "hetgraph.global_feature_batch"),
    ("neural", "forward", ("neural.forward.act", "neural.forward.learn")),
    ("neural", "backward", "neural.backward"),
    ("neural", "adam_step", "neural.adam_step"),
    ("neural", "save_checkpoint", "neural.save_checkpoint"),
    ("neural", "load_checkpoint", "neural.load_checkpoint"),
    ("training", "critic_target_values", "training.critic_target_values"),
    ("training", "critic_update", "training.critic_update"),
    ("training", "actor_update", "training.actor_update"),
    ("training", "soft_update", "training.soft_update"),
    ("harness", "evaluate", "harness.evaluate"),
)

# (module, class, method, span name)
METHODS = (
    ("rollout", "EpisodeTracker", "after_step", "rollout.EpisodeTracker.after_step"),
    ("training", "Trainer", "run_episode", "training.Trainer.run_episode"),
    ("training", "Trainer", "update", UPDATE),
    ("training", "Trainer", "policy_actions", "training.Trainer.policy_actions"),
    ("training", "SumTree", "sample", "training.SumTree.sample"),
    ("training", "SumTree", "set_many",
     ("training.SumTree.set_many.insert", "training.SumTree.set_many.reprioritize")),
    ("training", "ReplayStore", "add", "training.ReplayStore.add"),
    ("training", "ReplayStore", "chain", "training.ReplayStore.chain"),
    ("harness", "ActorPolicy", "actions", "harness.ActorPolicy.actions"),
)


def _names(entry) -> tuple[str, str]:
    return (entry, entry) if isinstance(entry, str) else entry


SPANS = tuple(dict.fromkeys(
    n for entry in FUNCTIONS + METHODS for n in _names(entry[-1])))

# Checkpoint spans run only during set-up, so they are aggregated over the
# whole traced repeat; every other span over its timed region.
SETUP_SPANS = ("neural.save_checkpoint", "neural.load_checkpoint")

# The eight layers; `reward` is reported with `rollout`, which calls it.
LAYERS = ("world", "env", "rollout", "metrics", "hetgraph", "neural",
          "training", "harness")


def layer_of(span: str) -> str:
    module = span.split(".", 1)[0]
    return "rollout" if module == "reward" else module


class Tracer:
    """In-memory span recorder; one instance traces one repeat."""

    def __init__(self):
        self._ids: dict[str, int] = {n: i for i, n in enumerate(SPANS)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._updates_open = 0
        # backward() results whose parameter gradients may reach adam_step
        self._grads_pending: list = []
        self._grads_applied: set[int] = set()
        self.backward_calls = 0
        self.grads_discarded = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, entry):
        outside, inside = _names(entry)
        ids = (self._ids[outside], self._ids[inside])
        is_update = outside == UPDATE
        is_backward = outside == "neural.backward"
        is_adam = outside == "neural.adam_step"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.name_id.append(ids[1] if tracer._updates_open else ids[0])
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(i)
            if is_update:
                tracer._updates_open += 1
            elif is_adam:
                grads = args[1] if len(args) > 1 else kwargs.get("grads")
                tracer._grads_applied.add(id(grads))
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = clock()
                tracer._stack.pop()
                if is_update:
                    tracer._updates_open -= 1
                    tracer._settle_grads()
            if is_backward:
                tracer.backward_calls += 1
                if result[0] is not None:
                    tracer._grads_pending.append(result[0])
            return result

        return traced

    def _settle_grads(self) -> None:
        for grads in self._grads_pending:
            if id(grads) not in self._grads_applied:
                self.grads_discarded += 1
        self._grads_pending.clear()
        self._grads_applied.clear()

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hgam" or name.startswith("hgam.")]
        for mod_name, attr, entry in FUNCTIONS:
            original = getattr(sys.modules[f"hgam.{mod_name}"], attr)
            wrapper = self._wrap(original, entry)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, entry in METHODS:
            cls = getattr(sys.modules[f"hgam.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, entry))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self._settle_grads()

    # -- reporting ---------------------------------------------------------

    def metrics(self, setup_start: float, timed_start: float,
                timed_end: float, updates: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced repeat as {name: (value, unit)}.

        `updates` is the number of learner updates in the timed region.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        # self time: the span minus the spans it called
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        timed = start >= timed_start
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            sel = name_id == self._ids[name]
            if name not in SETUP_SPANS:
                sel &= timed
            out[f"{name}.calls"] = (int(sel.sum()), "count")
            out[f"{name}.self_ms"] = (float(self_t[sel].sum()) * 1e3, "ms")
            p50 = statistics.median(dur[sel].tolist()) * 1e6 if sel.any() else 0.0
            out[f"{name}.p50_us"] = (p50, "us")
        per = max(updates, 1)
        for span in ("neural.forward.learn", "neural.backward", "neural.adam_step"):
            out[f"{span}.per_update"] = (out[f"{span}.calls"][0] / per, "count")
        out["neural.backward.param_grads_discarded_ratio"] = (
            self.grads_discarded / self.backward_calls if self.backward_calls else 0.0,
            "ratio")
        layer = np.array([LAYERS.index(layer_of(n)) for n in SPANS])[name_id]
        for prefix, phase, wall in (("", timed, timed_end - timed_start),
                                    ("setup.", ~timed, timed_start - setup_start)):
            for i, name in enumerate(LAYERS):
                share = float(self_t[phase & (layer == i)].sum()) / wall
                out[f"{prefix}layer.{name}.self_share"] = (share, "ratio")
        return out

    def write_csv(self, path, origin: float) -> None:
        """Every span, times in microseconds after `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_us,end_us\n")
            for i, (n, p, s, e) in enumerate(zip(self.name_id, self.parent,
                                                 self.start, self.end)):
                fh.write(f"{i},{SPANS[n]},{p},{(s - origin) * 1e6:.3f},"
                         f"{(e - origin) * 1e6:.3f}\n")
