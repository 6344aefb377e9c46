#!/usr/bin/env python3
"""Produce plot-ready squared-error traces for both schemes.

Runs the asynchronous swarm and the synchronized baseline on the same
ridge instance and writes one CSV per replication and scheme with the
usual `k,t,U,Vbar,f_gap,grad_norm_sq` columns. Plot U against t to see
both error curves and their threshold crossings.
"""

import argparse
import os
import sys

from swarmsgd.cli import ConfigError, cmd_simulate, experiment_config_from_dict


def build_config(args, scheme, out_dir):
    return experiment_config_from_dict(
        {
            "objective": {"kind": "ridge", "dim": args.dim, "rho": 0.1},
            "run": {
                "n_threads": args.threads,
                "step_size": 0.01,
                "attraction": 1.0,
                "mean_sample_time": 0.02,
                "scheme": scheme,
                "max_virtual_time": args.horizon,
                "record_every": args.record_every,
            },
            "graph": {"kind": "erdos_renyi"},
            "replications": args.replications,
            "threshold": 0.1,
            "master_seed": args.seed,
            "output_dir": out_dir,
        }
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/traces", help="output directory")
    parser.add_argument("--dim", type=int, default=20)
    parser.add_argument("--threads", type=int, default=20)
    parser.add_argument("--replications", type=int, default=5)
    parser.add_argument("--horizon", type=float, default=20.0, help="virtual-time horizon")
    parser.add_argument("--record-every", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1001)
    args = parser.parse_args(argv)
    try:
        return write_traces(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def write_traces(args):
    for scheme in ("swarm_event_driven", "centralized"):
        out_dir = os.path.join(args.out, scheme)
        report = cmd_simulate(build_config(args, scheme, out_dir))
        hits = report["n_hit"]
        print(
            f"{scheme}: {args.replications} traces in {out_dir}, "
            f"{hits} crossed the threshold"
            + (f" (mean T_hit {report['mean_T_hit']:.3f})" if hits else "")
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
