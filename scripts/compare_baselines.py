#!/usr/bin/env python3
"""Evaluate the scripted baselines (and optionally a trained checkpoint) on
one world configuration and print a metrics table."""

import argparse

from hgam.harness import evaluate, make_policy
from hgam.world import WorldConfig, load_config

METRICS = ("C", "omega", "upsilon", "D", "F")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="world config yaml (defaults otherwise)")
    ap.add_argument("--episodes", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--checkpoint", help="also evaluate a trained policy, "
                    "with and without neighbor aggregation")
    args = ap.parse_args()

    config = load_config(WorldConfig, args.config) if args.config else WorldConfig()
    policies = ["random", "greedy"]
    if args.checkpoint:
        policies += ["hgam", "hgam_no_gat"]

    rows = []
    for kind in policies:
        policy = make_policy(kind, config, args.checkpoint)
        rep = evaluate(policy, config, args.episodes, args.seed)
        rows.append((kind, rep["aggregate"]))

    header = "policy      " + "".join(f"{m:>10}" for m in METRICS)
    print(header)
    print("-" * len(header))
    for kind, agg in rows:
        cells = "".join(f"{agg[m]['mean']:>10.3f}" for m in METRICS)
        print(f"{kind:<12}{cells}")


if __name__ == "__main__":
    main()
