"""Command-line entry points: train, evaluate, compare, export-traj,
inspect-checkpoint."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import HgamError
from .harness import POLICY_KINDS, evaluate, make_policy
from .neural import CHECKPOINT_MAGIC, CHECKPOINT_VERSION, load_checkpoint
from .training import TrainConfig, train
from .world import WorldConfig, load_config

# the metrics `evaluate` summarises and `compare` tabulates, in print order
SUMMARY_METRICS = ("C", "omega", "upsilon", "D", "F")


def _world_config(args) -> WorldConfig:
    return load_config(WorldConfig, args.config) if args.config else WorldConfig()


def _train_config(args) -> TrainConfig:
    cfg = (load_config(TrainConfig, args.train_config) if args.train_config
           else TrainConfig())
    overrides = {}
    if args.episodes is not None:
        overrides["max_episodes"] = args.episodes
    if args.no_gat:
        overrides["use_gat"] = False
    return replace(cfg, **overrides)


def _cmd_train(args) -> int:
    rows = train(_world_config(args), _train_config(args), args.seed, args.out)
    print(f"trained {len(rows)} episodes; report and checkpoints in {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _world_config(args)
    policy = make_policy(args.policy, config, args.checkpoint)
    report = evaluate(policy, config, args.episodes, args.seed,
                      out_dir=args.out, export_traj=False)
    agg = report["aggregate"]
    line = "  ".join(f"{k}={agg[k]['mean']:.4f}" for k in SUMMARY_METRICS)
    print(f"{report['policy']} over {args.episodes} episodes: {line}")
    if args.out:
        print(f"report written to {args.out}/evaluation_report.json")
    return 0


def _cmd_compare(args) -> int:
    config = _world_config(args)
    kinds = ("random", "greedy", "hgam", "hgam_no_gat")[:4 if args.checkpoint else 2]
    policies = [make_policy(kind, config, args.checkpoint) for kind in kinds]
    aggs = [evaluate(p, config, args.episodes, args.seed)["aggregate"]
            for p in policies]
    header = "policy      " + "".join(f"{m:>10}" for m in SUMMARY_METRICS)
    print(header)
    print("-" * len(header))
    for kind, agg in zip(kinds, aggs):
        cells = "".join(f"{agg[m]['mean']:>10.3f}" for m in SUMMARY_METRICS)
        print(f"{kind:<12}{cells}")
    return 0


def _cmd_export_traj(args) -> int:
    config = _world_config(args)
    policy = make_policy(args.policy, config, args.checkpoint)
    evaluate(policy, config, args.episodes, args.seed,
             out_dir=args.out, export_traj=True)
    print(f"wrote {args.episodes} trajectory/PoI/reward-component files to {args.out}")
    return 0


def _cmd_inspect_checkpoint(args) -> int:
    tensors = load_checkpoint(args.checkpoint)
    total = 0
    print(f"{args.checkpoint}: format {CHECKPOINT_MAGIC.decode()} "
          f"v{CHECKPOINT_VERSION}, {len(tensors)} tensors")
    for name in sorted(tensors):
        arr = tensors[name]
        total += arr.size
        print(f"  {name:48s} {arr.shape[0]:5d} x {arr.shape[1]}")
    print(f"total values: {total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgam",
        description="Multi-UAV data-collection/charging lab: training, "
                    "baselines, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train actors/critics and write checkpoints")
    p_train.add_argument("--config", help="world config file (yaml key/value)")
    p_train.add_argument("--train-config", help="training config file")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--episodes", type=int, help="override max_episodes")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--no-gat", action="store_true",
                         help="ablation: zero out neighbor aggregation")
    p_train.set_defaults(func=_cmd_train)

    for name, func, traj in (("evaluate", _cmd_evaluate, False),
                             ("export-traj", _cmd_export_traj, True)):
        p = sub.add_parser(name, help=("run noise-free episodes and write "
                                       + ("trajectory files" if traj else "a metrics report")))
        p.add_argument("--config", help="world config file")
        p.add_argument("--policy", default="greedy", choices=POLICY_KINDS)
        p.add_argument("--checkpoint", help="checkpoint for hgam policies")
        p.add_argument("--episodes", type=int, default=20)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=traj, help="output directory")
        p.set_defaults(func=func)

    p_cmp = sub.add_parser("compare", help="tabulate the baselines' metrics "
                           "(and a checkpoint's) on the same seeds")
    p_cmp.add_argument("--config", help="world config file")
    p_cmp.add_argument("--checkpoint", help="also evaluate a trained policy, "
                       "with and without neighbor aggregation")
    p_cmp.add_argument("--episodes", type=int, default=20)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ins = sub.add_parser("inspect-checkpoint", help="list checkpoint tensors")
    p_ins.add_argument("--checkpoint", required=True)
    p_ins.set_defaults(func=_cmd_inspect_checkpoint)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HgamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
