#!/usr/bin/env python3
"""sha256 digests of the engine's record streams and the cli's output files.

    python3 scripts/digests.py

Prints two lines: ``engine <sha256> <runs> runs (<c> crossed, <d>
diverged)`` and ``cli <sha256> <files> files``. A refactor that keeps
the arithmetic and the RNG stream order prints the same two digests
before and after; one that changes them says so. The engine line does
not depend on the OpenBLAS kernel or numpy's SIMD targets, as the
engine adds in the fixed order of ``swarmsgd._kernel``; the cli line
also covers the validators and the bounds, which call BLAS and LAPACK,
so compare cli lines taken on one machine.

The engine part runs a fixed matrix: the three objective kinds; complete,
Erdős–Rényi and path graphs of 5 threads; attraction 0 and 0.7;
``record_every`` 1, 7 and 100; the threshold off, armed and stopping;
both swarm schedulers, then the centralized baseline on each kind,
``record_every`` and threshold; and one diverging run per scheme. The
runs with ``record_every`` 7 stop at a virtual-time horizon, the others
at an update budget. Per run it hashes the records, every state handed to
``on_record`` as (k, t, bytes) in k order, the summary without
``wall_time``, the captured means and the ``DivergenceError``'s (k, t).

The cli part runs ``simulate`` for each scheme, ``compare``,
``validate`` twice (the second with a budget off its record grid),
``bounds`` and ``sweep`` on small inputs in a temporary directory and
hashes every file they write, by path.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from swarmsgd import cli, engine, objective, topology
from swarmsgd.randomness import make_rng

N_THREADS, DIM, UPDATES = 5, 3, 600
# Each kind's threshold: crossed within the run from the start 1.5.
THRESHOLDS = {"ridge": 1.2, "quadratic": 2.5, "sine": 0.3}
CENTRAL_THRESHOLDS = {"ridge": 0.03, "quadratic": 0.03, "sine": 0.003}
CAPTURES = (0, 1, 7, 255, 256, 257, UPDATES - 1)


def _specs() -> dict:
    rng = make_rng(5)
    # Eighths, so M M^T is exact whatever order the BLAS adds in.
    M = np.round(rng.normal(size=(DIM, DIM)) * 8.0) / 8.0
    return {
        "ridge": objective.ridge_spec(0.1, np.linspace(0.2, 0.8, DIM)),
        "quadratic": objective.quadratic_spec(
            M @ M.T + np.eye(DIM), rng.normal(size=DIM), noise_std=0.5
        ),
        "sine": objective.nonconvex_sine_spec(DIM, noise_std=0.8),
    }


def _graphs() -> dict:
    return {
        "complete": topology.complete_graph(N_THREADS),
        "erdos_renyi": topology.erdos_renyi_connected(N_THREADS, 0.5, make_rng(11)),
        "path": topology.path_graph(N_THREADS),
    }


def _hash_run(h, label: str, run) -> str:
    """Hash one run, ``run(on_record)`` returning its trace; says whether
    it crossed, diverged or neither."""
    h.update(f"run {label}\n".encode())

    def on_record(ks, ts, states):
        for k, t, X in zip(ks, ts, states):
            h.update(f"state {k} {t!r} ".encode() + X.tobytes())

    try:
        trace = run(on_record)
    except engine.DivergenceError as exc:
        h.update(f"diverged {exc.k} {exc.t!r}\n".encode())
        return "diverged"
    for r in trace.records:
        h.update(repr(r).encode())
    h.update(repr(dataclasses.replace(trace.summary, wall_time=None)).encode())
    for c, mean in sorted(trace.captured_means.items()):
        h.update(f"capture {c} ".encode() + mean.tobytes())
    return "crossed" if trace.summary.hit_update is not None else "neither"


def _config(threshold, watch: str, record_every: int, **overrides) -> engine.RunConfig:
    horizon = (
        {"max_virtual_time": 0.02 * UPDATES / N_THREADS}
        if record_every == 7
        else {"max_updates": UPDATES}
    )
    return engine.RunConfig(**{
        "n_threads": N_THREADS, "step_size": 0.01, "attraction": 1.0, "mean_sample_time": 0.02,
        "seed": 7, "record_every": record_every, "capture_mean_at": CAPTURES,
        "threshold": None if watch == "off" else threshold,
        "stop_at_threshold": watch == "stop", **horizon, **overrides,
    })


def engine_digest() -> tuple[str, list[str]]:
    h, outcomes = hashlib.sha256(), []
    specs, graphs = _specs(), _graphs()
    init = np.full((N_THREADS, DIM), 1.5)
    settings = [(e, w) for e in (1, 7, 100) for w in ("off", "armed", "stop")]
    for runner in (engine.run_swarm, engine.run_swarm_global_tick):
        for kind, spec in specs.items():
            for graph_name, graph in graphs.items():
                for a in (0.0, 0.7):
                    for record_every, watch in settings:
                        config = _config(THRESHOLDS[kind], watch, record_every, attraction=a)
                        label = f"{runner.__name__} {kind} {graph_name} {a} {record_every} {watch}"
                        outcomes.append(_hash_run(h, label, lambda on_record: runner(
                            config, graph, spec, init=init, on_record=on_record
                        )))
    for kind, spec in specs.items():
        for record_every, watch in settings:
            config = _config(CENTRAL_THRESHOLDS[kind], watch, record_every, n_threads=6)
            label = f"run_centralized {kind} {record_every} {watch}"
            outcomes.append(_hash_run(h, label, lambda on_record: engine.run_centralized(
                config, spec, init=init[0], on_record=on_record
            )))
    # A step of 50 overflows within the first blocks.
    diverging = _config(None, "off", 1, step_size=50.0, max_updates=2000, capture_mean_at=())
    ridge, complete = specs["ridge"], graphs["complete"]
    for runner in (engine.run_swarm, engine.run_swarm_global_tick):
        outcomes.append(_hash_run(h, f"{runner.__name__} diverging", lambda on_record: runner(
            diverging, complete, ridge, on_record=on_record
        )))
    outcomes.append(_hash_run(h, "run_centralized diverging", lambda on_record: (
        engine.run_centralized(diverging, ridge, on_record=on_record)
    )))
    return h.hexdigest(), outcomes


def _cli_inputs(root: str) -> list[list[str]]:
    """The argument lists of the cli runs, their inputs written under ``root``."""
    def write(name, data):
        path = os.path.join(root, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    run = {"n_threads": 5, "step_size": 0.01, "attraction": 1.0, "mean_sample_time": 0.02}
    base = {
        "objective": {"kind": "ridge", "dim": 4, "rho": 0.1},
        "run": {**run, "max_updates": 600, "record_every": 7},
        "graph": {"kind": "erdos_renyi", "p": 0.6}, "replications": 2, "threshold": 0.1,
        "master_seed": 17,
    }
    argvs = []
    for scheme in engine.SCHEMES:
        config = {**base, "run": {**base["run"], "scheme": scheme},
                  "output_dir": os.path.join(root, "out", scheme)}
        argvs.append(["simulate", "--config", write(f"{scheme}.json", config)])
    compare = {**base, "run": run, "output_dir": os.path.join(root, "out", "compare")}
    argvs.append(["compare", "--config", write("compare.json", compare)])
    validate = {**base, "output_dir": os.path.join(root, "out", "validate"), "validate": {
        "max_updates": 300, "record_every": 3, "lemma2_states": 2,
        "lemma2_replications": 1200, "sigma_samples": 6000,
    }}
    argvs.append(["validate", "--config", write("validate.json", validate)])
    # A budget off the record grid: the last record is the final state.
    off_grid = {**validate, "output_dir": os.path.join(root, "out", "validate_off_grid"),
                "validate": {**validate["validate"], "max_updates": 301, "record_every": 7,
                             "lemma2_states": 5}}
    argvs.append(["validate", "--config", write("validate_off_grid.json", off_grid)])
    bounds = {"kappa": 0.8667, "L": 0.8667, "sigma_sq": 1.0, "gamma": 0.01, "a": 1.0,
              "lambda2": 10.0, "d_bar": 9.0, "N": 10, "U0": 1.0, "V0": 0.0, "K": 1000}
    argvs.append(["bounds", "--config", write("bounds.json", bounds),
                  "--out", os.path.join(root, "out", "bounds")])
    sweep = {"base": {"kappa": 0.8667, "L": 0.8667, "sigma_sq": 1.0},
             "grid": {"gamma": [0.005, 0.01, 0.5], "a": [0.0, 1.0], "N": [2, 6]}}
    argvs.append(["sweep", "--config", write("sweep.json", sweep),
                  "--out", os.path.join(root, "out", "sweep")])
    return argvs


def cli_digest() -> tuple[str, int]:
    h, files = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory() as root:
        for argv in _cli_inputs(root):
            with contextlib.redirect_stdout(None):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"swarmsgd {' '.join(argv)} exited {code}")
        out = os.path.join(root, "out")
        for folder, _, names in sorted(os.walk(out)):
            for name in sorted(names):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    h.update(os.path.relpath(path, out).encode() + b"\n" + fh.read())
                files += 1
    return h.hexdigest(), files


def engine_line() -> str:
    """The engine line ``main`` prints."""
    digest, outcomes = engine_digest()
    return (
        f"engine {digest} {len(outcomes)} runs ({outcomes.count('crossed')} crossed, "
        f"{outcomes.count('diverged')} diverged)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    print(engine_line(), flush=True)
    digest, files = cli_digest()
    print(f"cli {digest} {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
