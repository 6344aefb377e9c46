"""The benchmark's workloads: their inputs, one timed pass, and the checks
on what the pass wrote.

Every workload drives the public ``swarmsgd.cli`` entry points with
``jobs=1``. Pass ``p`` runs the workload's configs under master seeds
shifted by ``SEED_STRIDE * p``: pass 0 (the warm-up) runs the seed's own
inputs, and later passes draw fresh ones, so a median over passes
averages over inputs as well as over machine noise. Re-running a pass
index writes byte-identical outputs.

Counts (updates, gradient samples, replications, violations) are read
from the files and reports the commands return, never from inside the
engine.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

from swarmsgd import cli

# (dim, n_threads) of the paper's speedup table; instance i runs under
# master seed ``seed + i``, so the default seed 1001 gives the table's
# seeds 1001, 1002 and 1003.
INSTANCES = ((20, 20), (20, 100), (100, 50))
# Pass p shifts every master seed by SEED_STRIDE * p.
SEED_STRIDE = 10_000
# Replications per instance in one speedup-study pass: a pass takes
# about 3.5 s on a 2-core x86 host, so a run holds several passes.
STUDY_REPLICATIONS = 2
# With two replications the crossing-time ratio of an instance scatters
# by about 4% (one standard deviation) around H_N; 20% is far outside
# that scatter and still catches a broken timing model.
RATIO_TOLERANCE = 0.20

# dense_validate, first part: complete graph, every scheme to a fixed
# update budget.
DENSE_DIM = 20
DENSE_THREADS = 100
DENSE_REPLICATIONS = 2
DENSE_BUDGET = 5_000
DENSE_SCHEMES = ("swarm_event_driven", "swarm_global_tick", "centralized")

# dense_validate, second part: the validators on the (100, 50) table
# instance. Two lemma 2 states keep the part under a second while every
# lemma 2 batch stays 65,536 rows of 100 coordinates, far above L2.
VALIDATE_DIM = 100
VALIDATE_THREADS = 50
VALIDATE_SETTINGS = {
    "max_updates": 500,
    "record_every": 10,
    "lemma2_states": 2,
    "lemma2_replications": 65_536,
    "sigma_samples": 50_000,
}
RIDGE_RHO = 0.1
RIDGE_CURVATURE = 2.0 / 3.0 + 2.0 * RIDGE_RHO
# Bound inputs for the (100, 50) ridge instance; lambda2 and d_bar are
# typical of G(50, 0.2) draws, sigma_sq and U0 are stated constants.
BOUNDS_PARAMS = {
    "kappa": RIDGE_CURVATURE,
    "L": RIDGE_CURVATURE,
    "sigma_sq": 25.0,
    "gamma": 0.01,
    "a": 1.0,
    "lambda2": 3.5,
    "d_bar": 18.0,
    "N": 50,
    "K": 10_000,
    "U0": 20.0,
}
SWEEP_GRID = {
    "gamma": [0.001, 0.002, 0.003, 0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.05],
    "a": [0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    "N": [10, 20, 50, 100, 200],
    "lambda2": [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0],
}
SWEEP_POINTS = math.prod(len(v) for v in SWEEP_GRID.values())
BOUND_FAMILIES = ("strong_convex", "centralized", "convex", "nonconvex")

WORKLOADS = ("speedup_study", "dense_validate")


def _run_block(n_threads: int, **extra) -> dict:
    return {
        "n_threads": n_threads,
        "step_size": 0.01,
        "attraction": 1.0,
        "mean_sample_time": 0.02,
        **extra,
    }


def _write_json(data: dict, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


@dataclass
class Step:
    """One command of a pass: ``kind`` names the cli entry point."""

    kind: str
    label: str
    config: object = None
    path: str | None = None


@dataclass
class Plan:
    """A workload's set-up: its commands with their loaded configs, and
    the master seed of each for pass 0."""

    steps: list[Step]
    seeds: dict[str, int]


def setup(workload: str, seed: int, input_dir: str) -> Plan:
    """Write the workload's input files and load them through the cli."""
    os.makedirs(input_dir, exist_ok=True)
    steps: list[Step] = []
    seeds: dict[str, int] = {}
    if workload == "speedup_study":
        for offset, (dim, n) in enumerate(INSTANCES):
            label = f"d{dim}_n{n}"
            seeds[label] = seed + offset
            path = _write_json(
                {
                    "objective": {"kind": "ridge", "dim": dim, "rho": RIDGE_RHO},
                    "run": _run_block(n),
                    "graph": {"kind": "erdos_renyi", "p": 10.0 / n},
                    "replications": STUDY_REPLICATIONS,
                    "threshold": 0.1,
                    "master_seed": seed + offset,
                },
                os.path.join(input_dir, f"{label}.json"),
            )
            steps.append(Step("compare", label, cli.load_experiment_config(path)))
    elif workload == "dense_validate":
        for scheme in DENSE_SCHEMES:
            seeds[scheme] = seed
            path = _write_json(
                {
                    "objective": {"kind": "ridge", "dim": DENSE_DIM, "rho": RIDGE_RHO},
                    "run": _run_block(
                        DENSE_THREADS, scheme=scheme, max_updates=DENSE_BUDGET, record_every=2
                    ),
                    "graph": {"kind": "complete"},
                    "replications": DENSE_REPLICATIONS,
                    "threshold": 0.1,
                    "master_seed": seed,
                },
                os.path.join(input_dir, f"{scheme}.json"),
            )
            steps.append(Step("simulate", scheme, cli.load_experiment_config(path)))
        seeds["validate"] = seed + 2
        path = _write_json(
            {
                "objective": {"kind": "ridge", "dim": VALIDATE_DIM, "rho": RIDGE_RHO},
                "run": _run_block(VALIDATE_THREADS),
                "graph": {"kind": "erdos_renyi", "p": 10.0 / VALIDATE_THREADS},
                "replications": 1,
                "threshold": 0.1,
                "master_seed": seed + 2,
                "validate": VALIDATE_SETTINGS,
            },
            os.path.join(input_dir, "validate.json"),
        )
        steps.append(Step("validate", "validate", cli.load_experiment_config(path)))
        bounds = _write_json(BOUNDS_PARAMS, os.path.join(input_dir, "bounds.json"))
        steps.append(Step("bounds", "bounds", path=bounds))
        sweep_base = {k: BOUNDS_PARAMS[k] for k in ("kappa", "L", "sigma_sq", "K", "U0")}
        sweep = _write_json(
            {"base": sweep_base, "grid": SWEEP_GRID}, os.path.join(input_dir, "sweep.json")
        )
        steps.append(Step("sweep", "sweep", path=sweep))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(steps=steps, seeds=seeds)


def run_pass(plan: Plan, index: int, out_dir: str) -> tuple[float, list]:
    """Run pass ``index`` of the plan, closed loop, into ``out_dir``.

    Returns the wall time from the first call to the last return and,
    per step, the command's return value or the exception it raised.
    Configs get their pass seed and output directory before the clock
    starts.
    """
    configs = [
        None
        if s.config is None
        else replace(
            s.config,
            master_seed=s.config.master_seed + SEED_STRIDE * index,
            output_dir=os.path.join(out_dir, s.label),
        )
        for s in plan.steps
    ]
    returns: list = []
    started = time.perf_counter()
    for step, config in zip(plan.steps, configs):
        try:
            if step.kind == "compare":
                returns.append(cli.cmd_compare(config, jobs=1))
            elif step.kind == "simulate":
                returns.append(cli.cmd_simulate(config, jobs=1))
            elif step.kind == "validate":
                returns.append(cli.cmd_validate(config))
            elif step.kind == "bounds":
                returns.append(cli.cmd_bounds(step.path, os.path.join(out_dir, step.label)))
            else:
                returns.append(cli.cmd_sweep(step.path, os.path.join(out_dir, step.label)))
        except Exception as exc:  # noqa: BLE001 - a failed command is a counted failure
            returns.append(exc)
    return time.perf_counter() - started, returns


@dataclass
class Outcome:
    """What one pass did, read back from its outputs."""

    attempted: int = 0
    failed: int = 0
    updates: int = 0
    samples: int = 0
    replications: int = 0
    included: int = 0
    lemma4_violations: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def check_pass(plan: Plan, out_dir: str, returns: list) -> Outcome:
    """Check every output of a pass and count its work and failures.

    Operations are replications for ``compare`` and ``simulate`` and
    whole commands otherwise. An exception fails all operations of its
    command; an excluded replication or a failed check fails its own.
    """
    out = Outcome()
    for step, ret in zip(plan.steps, returns):
        step_dir = os.path.join(out_dir, step.label)
        config = step.config
        n_ops = config.replications if step.kind in ("compare", "simulate") else 1
        out.attempted += n_ops
        if isinstance(ret, Exception):
            out.failed += n_ops
            out.problems.append(f"{step.label}: {type(ret).__name__}: {ret}")
            continue
        try:
            failed = _CHECKS[step.kind](step, step_dir, ret, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed = n_ops
            out.problems.append(f"{step.label}: unreadable output: {exc}")
        out.failed += min(failed, n_ops)
    return out


def _check_compare(step: Step, step_dir: str, report, out: Outcome) -> int:
    path = os.path.join(step_dir, "comparison.json")
    out.digests[f"{step.label}/comparison.json"] = _sha256(path)
    data = _read_json(path)
    n = int(step.config.run["n_threads"])
    failed = set()
    for row in data["per_run"]:
        out.updates += row["swarm_updates"] + row["central_steps"]
        out.samples += row["swarm_updates"] + n * row["central_steps"]
        if row["lemma4_violations"]:
            failed.add(row["replication"])
            out.problems.append(
                f"{step.label}: replication {row['replication']} has "
                f"{row['lemma4_violations']} lemma 4 violations"
            )
    failed.update(data["excluded"])
    if data["excluded"]:
        out.problems.append(f"{step.label}: excluded replications {data['excluded']}")
    out.replications += data["replications"]
    out.included += data["replications"] - len(data["excluded"])
    out.lemma4_violations += data["lemma4_violations"]
    ratio, predicted = data["ratio"], data["predicted_ratio"]
    if ratio is None or abs(ratio / predicted - 1.0) > RATIO_TOLERANCE:
        out.problems.append(
            f"{step.label}: ratio {ratio} is not within {RATIO_TOLERANCE:.0%} of {predicted:.4f}"
        )
        return data["replications"]
    return len(failed)


def _check_simulate(step: Step, step_dir: str, report, out: Outcome) -> int:
    path = os.path.join(step_dir, "summary.json")
    out.digests[f"{step.label}/summary.json"] = _sha256(path)
    data = _read_json(path)
    budget = int(step.config.run["max_updates"])
    failed = 0
    for run in data["runs"]:
        r = run["replication"]
        trace = f"run_{r:04d}.csv"
        out.digests[f"{step.label}/{trace}"] = _sha256(os.path.join(step_dir, trace))
        out.updates += run["n_updates"]
        out.samples += run["n_samples"]
        if not _finite(run["final_U"]) or run["n_updates"] != budget:
            failed += 1
            out.problems.append(
                f"{step.label}: run {r} has final_U {run['final_U']} after "
                f"{run['n_updates']} of {budget} updates"
            )
    if len(data["runs"]) != step.config.replications:
        out.problems.append(f"{step.label}: {len(data['runs'])} runs in summary.json")
        return step.config.replications
    return failed


def _check_validate(step: Step, step_dir: str, report: dict, out: Outcome) -> int:
    out.digests["validate/validation.json"] = _sha256(os.path.join(step_dir, "validation.json"))
    settings = step.config.validate
    n = int(step.config.run["n_threads"])
    states = int(report["lemma2_checks"])
    # The configured Monte Carlo sizes fix the sample count exactly: the
    # swarm run, then per lemma 2 state a noise-variance estimate at
    # every thread and one replayed update per replication.
    per_thread = max(1000, int(settings["sigma_samples"]) // n)
    out.updates += int(settings["max_updates"])
    out.samples += int(settings["max_updates"]) + states * (
        n * per_thread + int(settings["lemma2_replications"])
    )
    out.lemma4_violations += report["lemma4_violations"]
    if states != int(settings["lemma2_states"]):
        out.problems.append(f"validate: {states} lemma 2 states checked")
        return 1
    if report["lemma2_violations"] or report["lemma4_violations"]:
        out.problems.append(
            f"validate: {report['lemma2_violations']} lemma 2 and "
            f"{report['lemma4_violations']} lemma 4 violations"
        )
        return 1
    return 0


def _check_bounds(step: Step, step_dir: str, report: dict, out: Outcome) -> int:
    path = os.path.join(step_dir, "bounds.json")
    out.digests["bounds/bounds.json"] = _sha256(path)
    missing = [f for f in BOUND_FAMILIES if f not in _read_json(path)]
    if missing:
        out.problems.append(f"bounds: bounds.json lacks {missing}")
        return 1
    return 0


def _check_sweep(step: Step, step_dir: str, path: str, out: Outcome) -> int:
    out.digests["sweep/sweep.csv"] = _sha256(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    families = {row["family"] for row in rows}
    if len(rows) != len(BOUND_FAMILIES) * SWEEP_POINTS or families != set(BOUND_FAMILIES):
        out.problems.append(
            f"sweep: {len(rows)} rows over {sorted(families)}, "
            f"expected {len(BOUND_FAMILIES)} per each of {SWEEP_POINTS} points"
        )
        return 1
    return 0


_CHECKS = {
    "compare": _check_compare,
    "simulate": _check_simulate,
    "validate": _check_validate,
    "bounds": _check_bounds,
    "sweep": _check_sweep,
}
