#!/usr/bin/env python3
"""Reproduce the ridge speedup study: asynchronous swarm versus the
synchronized batch baseline on three instance sizes.

For each (dim, threads) instance the script runs paired replications to
the 0.1 squared-error threshold and prints the measured crossing-time
ratio next to the harmonic-number prediction. Outputs (per-instance
comparison.json plus a study summary) land under --out.
"""

import argparse
import json
import os
import sys

from swarmsgd._ranges import COUNT
from swarmsgd.cli import ConfigError, _convert, cmd_compare
from swarmsgd.cli import experiment_config_from_dict

INSTANCES = ((20, 20), (20, 100), (100, 50))


def build_config(dim, n_threads, seed, out_dir, replications):
    return experiment_config_from_dict(
        {
            "objective": {"kind": "ridge", "dim": dim, "rho": 0.1},
            "run": {
                "n_threads": n_threads,
                "step_size": 0.01,
                "attraction": 1.0,
                "mean_sample_time": 0.02,
            },
            "graph": {"kind": "erdos_renyi"},
            "replications": replications,
            "threshold": 0.1,
            "master_seed": seed,
            "output_dir": out_dir,
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/speedup_study", help="output directory")
    parser.add_argument("--replications", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1001, help="master seed of the first instance")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes per instance")
    args = parser.parse_args(argv)
    try:
        # the --jobs check of the swarmsgd command line
        _convert(args.jobs, int, "--jobs", COUNT)
        return run_study(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run_study(args):
    # every config is checked before the table starts
    configs = [
        build_config(
            dim, n_threads, args.seed + offset, os.path.join(args.out, f"d{dim}_n{n_threads}"),
            args.replications,
        )
        for offset, (dim, n_threads) in enumerate(INSTANCES)
    ]
    rows = []
    print(f"{'instance':>12} {'measured':>9} {'predicted':>10} {'error':>7} {'excluded':>9}")
    for (dim, n_threads), config in zip(INSTANCES, configs):
        report = cmd_compare(config, jobs=args.jobs)
        ratio, predicted = report["ratio"], report["predicted_ratio"]
        if ratio is None:
            print(f"({dim},{n_threads}): no replication crossed the threshold", file=sys.stderr)
            return 1
        excluded = len(report["excluded"])
        rows.append(
            {
                "dim": dim,
                "n_threads": n_threads,
                "measured_ratio": ratio,
                "predicted_ratio": predicted,
                "excluded": excluded,
            }
        )
        print(
            f"({dim:>4},{n_threads:>4}) {ratio:9.3f} {predicted:10.3f} "
            f"{ratio / predicted - 1.0:+7.1%} {excluded:9d}"
        )

    os.makedirs(args.out, exist_ok=True)
    summary_path = os.path.join(args.out, "study.json")
    with open(summary_path, "w") as handle:
        json.dump({"replications": args.replications, "instances": rows}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {summary_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
