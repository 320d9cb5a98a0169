#!/usr/bin/env python3
"""hgam benchmark: learner-update and evaluation-step throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_mini --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads (each a closed loop with one caller: a step starts when the
previous one returns):

- train_mini     Trainer on the 8x8 mini world (1 MUAV, 1 CUAV, 20 PoIs,
                 200 steps) with the default TrainConfig. Set-up runs the
                 e_min update-free warm-up episodes; the timed part runs whole
                 Trainer.run_episode episodes until a fixed step budget, and
                 every timed step carries one learner update. One ego per
                 agent type: work shared per type has nothing to share.
- train_default  The same loop on the default WorldConfig (16x16, 2 MUAVs,
                 1 CUAV, 100 PoIs, 6 obstacles): two MUAV egos share one
                 critic, so ego-independent work is repeated.
- eval_default   Noise-free harness.evaluate, one episode per call, on the
                 default world with the `hgam` policy. Set-up writes a
                 checkpoint from a fixed-seed untrained Trainer and loads it
                 through make_policy. No learner runs; forward runs at batch 1.

Each run sets the workload up and times it REPEATS times in one process,
with the same inputs; every repeat must report the same digest of its
output rows. With --trace 1 the middle repeat is traced (see tracing.py) and
the per-layer metrics come from it; the other two give the untraced
throughput for trace.overhead_ratio.

Predictions the per-layer metrics are meant to explain:

- neural.forward.learn / backward / adam_step, training.Trainer.update,
  critic_target_values, critic_update, actor_update, soft_update, SumTree.*,
  ReplayStore.*, hetgraph.local_feature_batch.learn, global_feature_batch
  move steps_per_s on train_*; no change is predicted on eval_default.
- neural.forward.act, harness.ActorPolicy.actions, Trainer.policy_actions,
  hetgraph.local_feature_batch.act, local_neighbors, env.*,
  rollout.EpisodeTracker.after_step and reward.detect_dilemma move
  steps_per_s on eval_default; they are a few percent of train_*.
- world.generate_scenario and metrics.compute_all move steps_per_s on
  eval_default and setup_s on train_* (the warm-up episodes).
- neural.save_checkpoint / load_checkpoint move setup_s on eval_default.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.
"""

import os
import sys
import time

_T_START = time.perf_counter()
# One BLAS/OpenMP thread, set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

REPEATS = 3
TRACED_REPEAT = 1  # with --trace 1; the others give the untraced rate
CHECKPOINT_SEED = 0  # the untrained policy evaluated by eval_default

MINI_WORLD = dict(area_width=8.0, area_height=8.0, num_muavs=1, num_cuavs=1,
                  num_pois=20, max_steps=200)


@dataclass(frozen=True)
class Workload:
    kind: str            # "train" or "eval"
    world: dict          # WorldConfig overrides
    # Steps per second on the reference machine (2-core x86-64, python 3.11,
    # numpy 2.4, one BLAS thread). It sizes the fixed step budget of a
    # repeat so that REPEATS repeats last about --seconds there; the budget
    # is then the same on every machine and commit, and so is the digest.
    nominal_rate: float
    # The timed region is cut into chunks of whole episodes holding at least
    # this many steps (a fraction of a second each); see fast_rate.
    chunk_steps: int


WORKLOADS = {
    "train_mini": Workload("train", MINI_WORLD, 55.0, 20),
    "train_default": Workload("train", {}, 30.0, 5),
    "eval_default": Workload("eval", {}, 800.0, 300),
}

UNIT_METRIC = {"train": "updates_per_s", "eval": "eval_steps_per_s"}
TRAIN_METRICS = ("C", "omega", "upsilon", "D", "F")
EVAL_METRICS = TRAIN_METRICS + ("C_times_omega", "D_times_F")


@dataclass
class Repeat:
    setup_start: float
    timed_start: float
    timed_end: float
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    chunks: list = field(default_factory=list)  # [steps, seconds] per chunk
    digest: str = ""

    @property
    def setup_s(self) -> float:
        return self.timed_start - self.setup_start

    def rates(self) -> list[float]:
        return [n / dt for n, dt in self.chunks]


class ChunkClock:
    """Groups consecutive episodes into chunks of at least `size` steps."""

    def __init__(self, chunks: list, size: int):
        self.chunks = chunks
        self.size = size
        self.mark = time.perf_counter()
        self.steps = 0

    def tick(self, steps: int) -> None:
        self.steps += steps
        if self.steps >= self.size:
            now = time.perf_counter()
            self.chunks.append([self.steps, now - self.mark])
            self.mark, self.steps = now, 0

    def close(self) -> None:
        if self.steps:
            now = time.perf_counter()
            if self.chunks:  # fold a short tail into the last chunk
                self.chunks[-1][0] += self.steps
                self.chunks[-1][1] += now - self.mark
            else:
                self.chunks.append([self.steps, now - self.mark])


def fast_rate(rates: list[float]) -> float:
    """Median of the fastest tenth of the chunk rates.

    The shared 2-vCPU machine the benchmark was tuned on runs up to about
    1.6x slower for seconds at a time while a neighbour loads its CPU. Over
    sets of ten 25 s runs the median chunk rate varied by up to 20% from run
    to run and the fastest tenth by 2-5% (10% when the neighbour's load
    lasted minutes): the fast chunks measure the program, the slow ones the
    neighbour.
    """
    top = sorted(rates, reverse=True)[:max(1, len(rates) // 10)]
    return statistics.median(top)


def finite_in_unit(row: dict, keys) -> bool:
    return all(math.isfinite(row[k]) and 0.0 <= row[k] <= 1.0 for k in keys)


def all_finite(row: dict) -> bool:
    return all(math.isfinite(v) for v in row.values()
               if isinstance(v, (int, float)))


def load_program():
    """Import hgam from this checkout's src/, never from site-packages."""
    package = SRC / "hgam"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of hgam")
    sys.path.insert(0, str(SRC))
    import hgam
    import hgam.harness
    import hgam.training
    import hgam.world
    if Path(hgam.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported hgam from {hgam.__file__}, not {package}")
    return hgam


def train_repeat(hg, name, wc, seed, budget, chunk_steps) -> Repeat:
    rep = Repeat(time.perf_counter(), 0.0, 0.0)
    trainer = hg.training.Trainer(wc, hg.training.TrainConfig(), seed)
    first = trainer.tc.e_min + 1
    for episode in range(1, first):
        trainer.run_episode(episode)
    rep.timed_start = time.perf_counter()
    clock = ChunkClock(rep.chunks, chunk_steps)
    rows = []
    episode = first
    while rep.steps < budget:
        try:
            row = trainer.run_episode(episode)
        except Exception:  # a failed step: count it and end this repeat
            traceback.print_exc()
            rep.attempted += 1
            rep.failed += 1
            break
        episode += 1
        n = row["steps"]
        rep.steps += n
        rep.attempted += n
        # one loss per step, so a non-finite mean fails every step
        if not (all_finite(row) and finite_in_unit(row, TRAIN_METRICS)):
            rep.failed += n
        rows.append(row)
        clock.tick(n)
    clock.close()
    rep.timed_end = time.perf_counter()
    # digest the rows exactly as training_report.csv writes them
    path = OUT / f"{name}-{os.getpid()}.csv"
    hg.training.write_training_csv(path, rows)
    rep.digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return rep


def eval_repeat(hg, name, wc, seed, budget, chunk_steps) -> Repeat:
    rep = Repeat(time.perf_counter(), 0.0, 0.0)
    path = OUT / f"{name}-{os.getpid()}.hgam"
    hg.training.Trainer(wc, hg.training.TrainConfig(), CHECKPOINT_SEED).save(path)
    policy = hg.harness.make_policy("hgam", wc, path)
    path.unlink()
    rep.timed_start = time.perf_counter()
    clock = ChunkClock(rep.chunks, chunk_steps)
    rows = []
    episode_seed = seed
    while rep.steps < budget:
        rep.attempted += 1
        try:
            row = hg.harness.evaluate(policy, wc, 1, episode_seed)["per_episode"][0]
        except Exception:  # a failed episode: count it and end this repeat
            traceback.print_exc()
            rep.failed += 1
            break
        episode_seed += 1
        n = row["episode_len"]
        rep.steps += n
        if not (n >= 1 and all_finite(row) and finite_in_unit(row, EVAL_METRICS)):
            rep.failed += 1
        rows.append(row)
        clock.tick(n)
    clock.close()
    rep.timed_end = time.perf_counter()
    blob = json.dumps(rows, sort_keys=True).encode("utf-8")
    rep.digest = hashlib.sha256(blob).hexdigest()
    return rep


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(np) -> int | str:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "hgam").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    hg = load_program()
    import_s = time.perf_counter() - _T_START
    import numpy as np

    from tracing import Tracer

    spec = WORKLOADS[name]
    wc = hg.world.WorldConfig(**spec.world)
    budget = max(1, math.ceil(seconds * spec.nominal_rate / REPEATS))
    # the program sees only configs and seeds derived from the workload seed
    program_seed = int(np.random.SeedSequence(
        [seed, list(WORKLOADS).index(name)]).generate_state(1)[0])
    repeat_fn = train_repeat if spec.kind == "train" else eval_repeat
    OUT.mkdir(exist_ok=True)
    print(f"env {json.dumps(environment(np), sort_keys=True)}")
    print(f"workload {name} seed {seed} program_seed {program_seed} "
          f"step_budget {budget} x {REPEATS} repeats trace {int(trace)}")

    repeats = []
    tracer = Tracer() if trace else None
    for r in range(REPEATS):
        traced = trace and r == TRACED_REPEAT
        if traced:
            tracer.install()
        try:
            rep = repeat_fn(hg, name, wc, program_seed, budget, spec.chunk_steps)
        finally:
            if traced:
                tracer.uninstall()
        repeats.append(rep)
        if r == 0:  # the first repeat is the process a user would run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"repeat {r} traced {int(traced)} setup_s {rep.setup_s:.4f} "
              f"steps {rep.steps} timed_s {rep.timed_end - rep.timed_start:.4f} "
              f"sha256 {rep.digest}")
        gc.collect()

    attempted = sum(rep.attempted for rep in repeats)
    failed = sum(rep.failed for rep in repeats)
    digest = repeats[0].digest
    for rep in repeats[1:]:
        if rep.digest != digest:  # behaviour changed between repeats
            failed += rep.attempted - rep.failed
    correct = failed == 0

    unit_name = UNIT_METRIC[spec.kind]
    if trace:
        traced_rep = repeats[TRACED_REPEAT]
        untraced = [x for rep in repeats if rep is not traced_rep for x in rep.rates()]
        updates = traced_rep.steps if spec.kind == "train" else 0
        layer = tracer.metrics(traced_rep.setup_start, traced_rep.timed_start,
                               traced_rep.timed_end, updates)
        layer["trace.overhead_ratio"] = (
            fast_rate(untraced) / fast_rate(traced_rep.rates()), "ratio")
        spans_path = OUT / f"spans-{name}-seed{seed}.csv"
        tracer.write_csv(spans_path, traced_rep.setup_start)
        print(f"spans {len(tracer.start)} written to "
              f"{spans_path.relative_to(ROOT)}")
        metrics = layer
    else:
        rate = fast_rate([x for rep in repeats for x in rep.rates()])
        metrics = {
            "steps_per_s": (rate, "1/s"),
            "setup_s": (import_s + statistics.median(rep.setup_s for rep in repeats), "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        print(f"{name} {unit_name} {rate} 1/s")
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value} {unit}")
    print(f"{name} error_rate {failed / attempted} ratio ({failed}/{attempted} "
          f"{'steps' if spec.kind == 'train' else 'episodes'} failed)")
    print(f"{name} report_sha256 {digest}")
    print(f"{name} correct {str(correct).lower()}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
