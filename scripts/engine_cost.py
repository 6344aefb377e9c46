#!/usr/bin/env python3
"""Deterministic per-update cost of the engine's own Python code.

    python3 scripts/engine_cost.py [--dim 20] [--threads 20] [--p 0.5] [--seed 11]

Runs ``engine.run_swarm`` on a ridge instance (rho 0.1, ``x_tilde``
drawn from the seed) over an Erdős–Rényi graph drawn from the same
seed, and counts what executes in frames of ``engine.py``: bytecodes
(``sys.settrace`` with ``f_trace_opcodes``) and calls into C functions
(``sys.setprofile`` ``c_call`` events). Work done inside numpy is not
seen. Each count is the 1,024-update run minus the 512-update run,
divided by 512, so the set-up and the first and last blocks cancel.
Both counts are taken with the threshold off and with it armed at a
level the run never reaches. Prints the interpreter version, then one
line per setting.

The update arithmetic and the event heap run in ``swarmsgd._kernel``, one
call per block, outside engine.py, so what is counted is the per-block
bookkeeping spread over the block's updates; the counts are the same
whether the compiled kernel or its numpy twin runs.
"""
from __future__ import annotations

import argparse
import os
import sys

from swarmsgd import engine, objective, topology
from swarmsgd.randomness import make_rng

ENGINE_FILE = os.path.realpath(engine.__file__)
SHORT, LONG = 512, 1024


def _counted_run(config, graph, spec) -> tuple[int, int]:
    """(bytecodes, C calls) executed in engine.py frames by one run."""
    counts = [0, 0]

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[0] += 1
        return opcodes

    def calls(frame, event, arg):
        # Trace the frames of engine.py only, one event per bytecode.
        if event == "call" and frame.f_code.co_filename == ENGINE_FILE:
            frame.f_trace_opcodes = True
            frame.f_trace = opcodes
        return None

    def c_calls(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == ENGINE_FILE:
            counts[1] += 1

    tracer, profiler = sys.gettrace(), sys.getprofile()
    sys.settrace(calls)
    sys.setprofile(c_calls)
    try:
        engine.run_swarm(config, graph, spec)
    finally:
        sys.setprofile(profiler)
        sys.settrace(tracer)
    return counts[0], counts[1]


def per_update(dim: int, threads: int, p: float, seed: int, threshold) -> tuple[float, float]:
    rng = make_rng(seed)
    spec = objective.ridge_spec_random(0.1, dim, rng)
    graph = topology.erdos_renyi_connected(threads, p, rng)
    runs = []
    for budget in (SHORT, LONG):
        config = engine.RunConfig(
            n_threads=threads, step_size=0.01, attraction=1.0, mean_sample_time=0.02,
            seed=seed, max_updates=budget, threshold=threshold,
        )
        runs.append(_counted_run(config, graph, spec))
    (b0, c0), (b1, c1) = runs
    return (b1 - b0) / (LONG - SHORT), (c1 - c0) / (LONG - SHORT)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dim", type=int, default=20, help="ridge dimension")
    parser.add_argument("--threads", type=int, default=20, help="swarm threads")
    parser.add_argument("--p", type=float, default=0.5, help="edge probability")
    parser.add_argument("--seed", type=int, default=11, help="seed of the instance, graph and run")
    args = parser.parse_args(argv)
    print(f"python {sys.version.split()[0]} ({sys.implementation.name})")
    for label, threshold in (("threshold off", None), ("threshold armed", 1e-300)):
        bytecodes, c_calls = per_update(args.dim, args.threads, args.p, args.seed, threshold)
        print(f"{label}: {bytecodes:.2f} bytecodes, {c_calls:.2f} C calls per update")
    return 0


if __name__ == "__main__":
    sys.exit(main())
