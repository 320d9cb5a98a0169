#!/usr/bin/env python3
"""Print the sha256 of every output of a fixed set of fixed-seed runs.

A refactor that preserves behaviour prints the same digests before and
after it:

    python scripts/fingerprint.py > before.txt    # on the old commit
    python scripts/fingerprint.py > after.txt     # on the new commit
    diff before.txt after.txt

The digests come first under `#` lines naming the build they were made
on: python, numpy, the BLAS build and the OpenBLAS core that runs (the
core picks the kernels, and the digests hold only on one build). The
committed record is this script's output:

    python scripts/fingerprint.py > FINGERPRINT.txt

and `tests/test_fingerprint.py` compares a fresh run with it.

The runs (about 10 s in total, single-threaded BLAS):

- `train` on the mini world, seed 3, 54 episodes (4 with learner updates);
- `train` on the default world, seed 3, 52 episodes (2 with updates);
- `evaluate` on the mini-world checkpoint with the `hgam` policy, 5 episodes;
- `export-traj` on the same checkpoint with `hgam_no_gat`, 2 episodes;
- `evaluate` (5 episodes) and `export-traj` (2 episodes) on the
  default-world checkpoint with `hgam`, whose observations carry the
  two-MUAV and CUAV blocks the mini world lacks;
- `evaluate` with `greedy` and with `random` on the default world,
  3 episodes each;
- `train` (10 episodes) and `evaluate --policy greedy` (3 episodes from
  seed 5) on a 3-MUAV/2-CUAV default world with `comm_radius: 6.0`,
  written to a YAML next to the run directories. Greedy CUAVs both shadow
  the lowest-battery MUAV; in the episode of seed 5 both charge the same
  MUAV on 25 steps (seeds 0-2 never bring them to one MUAV);
- `train` on the same fleet world, seed 3, with a train config written
  next to it (`e_min: 1`, 3 episodes, batch 32, capacity 4096), and
  `evaluate --policy hgam` on its checkpoint, 3 episodes. Under
  `comm_radius` many neighbour slots are absent, so these learner updates
  and actors run on masked local graphs, which the runs above never do;
- `inspect-checkpoint` on the default-world checkpoint, its listing on
  stdout kept as `stdout.txt`. It reads every tensor, while the `evaluate`
  runs read only the actors;
- `train` on the mini world, seed 3, with a train config written next to
  the run directories (`e_min: 1`, 8 episodes, batch 16, capacity 40).
  Its episodes add more transitions than the replay store holds, so the
  ring wraps: updates sample the newest transition, whose successor the
  store holds apart, and multi-step chains that stop at the ring's
  cursor. No other run fills its store;
- `compare` on the mini world with the mini-world checkpoint, 3
  episodes, its table on stdout kept as `stdout.txt`;
- `train --no-gat` on the mini world, seed 3, with a train config
  written next to the run directories (`e_min: 1`, 4 episodes, batch 16,
  capacity 256). Episodes 2 to 4 run updates, so the learner's no-GAT
  backward pass and the zero gradients of the unused attention
  parameters are digested; no other run trains without attention;
- `train` on a large fleet world (8 MUAVs, 4 CUAVs, `comm_radius: 6.0`),
  seed 3, with a train config written next to it (`e_min: 1`, 2
  episodes, batch 16, capacity 1024), then `evaluate` with `hgam` on its
  checkpoint and with `greedy`, 3 episodes each. With twelve UAVs the
  greedy pass, the per-step reward table and the observations run at a
  fleet size none of the runs above reaches.

hgam is imported from this checkout's `src/`.

Checkpoints hold Adam moments and step counts only for networks the
optimizer has stepped, not for target copies or untrained networks. The
change to that layout moved five lines by design: the four
`checkpoint.hgam` digests and `inspect_default/stdout.txt`. Across it,
compare the other 24 lines; every report, trajectory, PoI and
reward-component digest stayed the same.
"""

import argparse
import ctypes
import hashlib
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MINI = str(ROOT / "configs" / "mini_world.yaml")
FLEET_WORLD = "num_muavs: 3\nnum_cuavs: 2\ncomm_radius: 6.0\n"
FLEET_TRAIN = "e_min: 1\nmax_episodes: 3\nbatch_size: 32\nbuffer_capacity: 4096\n"
WRAP_TRAIN = "e_min: 1\nmax_episodes: 8\nbatch_size: 16\nbuffer_capacity: 40\n"
NO_GAT_TRAIN = "e_min: 1\nmax_episodes: 4\nbatch_size: 16\nbuffer_capacity: 256\n"
LARGE_WORLD = "num_muavs: 8\nnum_cuavs: 4\ncomm_radius: 6.0\n"
LARGE_TRAIN = "e_min: 1\nmax_episodes: 2\nbatch_size: 16\nbuffer_capacity: 1024\n"


def runs(out: Path):
    """(name, hgam CLI arguments) in run order; later runs read the
    checkpoints the training runs write."""
    ckpt = str(out / "train_mini" / "checkpoint.hgam")
    ckpt_default = str(out / "train_default" / "checkpoint.hgam")
    fleet = out / "fleet_world.yaml"
    fleet.write_text(FLEET_WORLD, encoding="utf-8")
    fleet_train = out / "fleet_train.yaml"
    fleet_train.write_text(FLEET_TRAIN, encoding="utf-8")
    ckpt_fleet = str(out / "train_fleet_learn" / "checkpoint.hgam")
    wrap_train = out / "wrap_train.yaml"
    wrap_train.write_text(WRAP_TRAIN, encoding="utf-8")
    no_gat_train = out / "no_gat_train.yaml"
    no_gat_train.write_text(NO_GAT_TRAIN, encoding="utf-8")
    large = out / "large_world.yaml"
    large.write_text(LARGE_WORLD, encoding="utf-8")
    large_train = out / "large_train.yaml"
    large_train.write_text(LARGE_TRAIN, encoding="utf-8")
    ckpt_large = str(out / "train_large" / "checkpoint.hgam")
    return [
        ("train_mini", ["train", "--config", MINI, "--seed", "3",
                        "--episodes", "54"]),
        ("train_default", ["train", "--seed", "3", "--episodes", "52"]),
        ("eval_mini_hgam", ["evaluate", "--config", MINI, "--policy", "hgam",
                            "--checkpoint", ckpt, "--episodes", "5"]),
        ("traj_mini_hgam_no_gat", ["export-traj", "--config", MINI,
                                   "--policy", "hgam_no_gat",
                                   "--checkpoint", ckpt, "--episodes", "2"]),
        ("eval_default_hgam", ["evaluate", "--policy", "hgam",
                               "--checkpoint", ckpt_default, "--episodes", "5"]),
        ("traj_default_hgam", ["export-traj", "--policy", "hgam",
                               "--checkpoint", ckpt_default, "--episodes", "2"]),
        ("eval_default_greedy", ["evaluate", "--policy", "greedy",
                                 "--episodes", "3"]),
        ("eval_default_random", ["evaluate", "--policy", "random",
                                 "--episodes", "3"]),
        ("train_fleet", ["train", "--config", str(fleet), "--seed", "3",
                         "--episodes", "10"]),
        ("eval_fleet_greedy", ["evaluate", "--config", str(fleet),
                               "--policy", "greedy", "--seed", "5",
                               "--episodes", "3"]),
        ("train_fleet_learn", ["train", "--config", str(fleet), "--train-config",
                               str(fleet_train), "--seed", "3"]),
        ("eval_fleet_hgam", ["evaluate", "--config", str(fleet), "--policy", "hgam",
                             "--checkpoint", ckpt_fleet, "--episodes", "3"]),
        # relative to `out`, the working directory of the runs, so the
        # path the listing prints is the same in every run
        ("inspect_default", ["inspect-checkpoint", "--checkpoint",
                             "train_default/checkpoint.hgam"]),
        ("train_mini_wrap", ["train", "--config", MINI, "--train-config",
                             str(wrap_train), "--seed", "3"]),
        ("compare_mini", ["compare", "--config", MINI, "--checkpoint", ckpt,
                          "--episodes", "3"]),
        ("train_mini_no_gat", ["train", "--config", MINI, "--train-config",
                               str(no_gat_train), "--seed", "3", "--no-gat"]),
        ("train_large", ["train", "--config", str(large), "--train-config",
                         str(large_train), "--seed", "3"]),
        ("eval_large_hgam", ["evaluate", "--config", str(large), "--policy", "hgam",
                             "--checkpoint", ckpt_large, "--episodes", "3"]),
        ("eval_large_greedy", ["evaluate", "--config", str(large),
                               "--policy", "greedy", "--episodes", "3"]),
    ]


def openblas_core(np) -> str:
    """The kernel set numpy's bundled OpenBLAS picked for this CPU at load
    time, which the build string (`np.show_config`) does not give."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "unknown"


def environment() -> list[str]:
    """The `#` header lines: the build the digests below them hold on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# python {platform.python_version()}",
            f"# numpy {np.__version__}",
            f"# blas {blas.get('name')} {blas.get('version')}",
            f"# openblas_core {openblas_core(np)}"]


def fingerprint(out: Path) -> list[str]:
    from contextlib import redirect_stdout

    import hgam
    from hgam.cli import main

    if Path(hgam.__file__).resolve().parent != ROOT / "src" / "hgam":
        raise SystemExit(f"error: imported hgam from {hgam.__file__}, "
                         f"not from {ROOT / 'src'}")
    lines = []
    out = out.resolve()
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for name, argv in runs(out):
            if argv[0] in ("inspect-checkpoint", "compare"):
                # no --out: what it prints is its output
                (out / name).mkdir(exist_ok=True)
                sink = open(out / name / "stdout.txt", "w")
            else:
                argv = argv + ["--out", str(out / name)]
                sink = open(os.devnull, "w")
            with sink, redirect_stdout(sink):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"error: {name} exited with code {code}")
            for path in sorted((out / name).iterdir()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{digest}  {name}/{path.name}")
    finally:
        os.chdir(cwd)
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="keep the outputs here (default: a "
                                  "temporary directory, removed afterwards)")
    args = ap.parse_args()
    # set before hgam imports numpy; importing this module sets nothing
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = fingerprint(out)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = fingerprint(Path(tmp))
    print("\n".join(environment() + lines))


if __name__ == "__main__":
    main()
