#!/usr/bin/env python3
"""Host-time benchmark of swarmsgd.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Runs one workload of ``workloads.WORKLOADS`` through the public
``swarmsgd.cli`` entry points, from the ``src`` tree next to this
directory, in this one process with ``jobs=1``. The loop is closed: a
single caller issues the next command only after the previous one
returned. After an untimed warm-up pass on the seed's own inputs the
workload repeats on fresh inputs (see ``workloads.SEED_STRIDE``) until
``--seconds`` have passed, and every pass's outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones (per pass) plus the tracing overhead. Set-up time is the
median over fresh processes, one after each timed pass and at least
``SETUP_PROBES``, that each start the interpreter, import swarmsgd, write
the workload's input files and load them.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every check passed, 1 when an
output check or a benchmark self-test failed, and 2 when the benchmark
cannot run here (no ``src/swarmsgd`` or no ``BENCHMARK.json``).
``--workload all`` runs every workload, each in a fresh process, and
prints one table.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# Scratch space for inputs and outputs; removed before the process exits.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 1001
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def _median(values):
    return statistics.median(values) if values else 0.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _declared(kind: str) -> dict:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process, from just before it is spawned
    until it has loaded the workload's configs (monotonic clock, which
    the child shares)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - started


class Run:
    """Passes of one workload in this process and what they measured."""

    def __init__(self, workloads, plan, work_dir: str) -> None:
        self.workloads = workloads
        self.plan = plan
        self.work_dir = work_dir
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, dict[str, str]] = {}  # untraced outputs by pass index
        self.walls = {False: [], True: []}
        self.outcomes = {False: [], True: []}

    def one_pass(self, index: int, tracer=None, timed=True) -> None:
        out_dir = os.path.join(self.work_dir, f"pass{self.passes}")
        self.passes += 1
        if tracer is not None:
            tracer.install()
        try:
            wall, returns = self.workloads.run_pass(self.plan, index, out_dir)
        finally:
            stuck = [] if tracer is None else tracer.uninstall()
        if stuck:
            self.problems.append(f"wrappers left in place after a traced pass: {stuck}")
        outcome = self.workloads.check_pass(self.plan, out_dir, returns)
        shutil.rmtree(out_dir, ignore_errors=True)
        failed = outcome.failed
        if tracer is None:
            self.digests[index] = outcome.digests
        elif outcome.digests != self.digests.get(index):
            untraced = self.digests.get(index, {})
            changed = sorted(
                k for k in set(outcome.digests) | set(untraced)
                if outcome.digests.get(k) != untraced.get(k)
            )
            self.problems.append(f"traced pass {index} wrote other outputs than untraced: {changed}")
            failed = max(failed, 1)
        self.attempted += outcome.attempted
        self.failed += failed
        self.problems.extend(p for p in outcome.problems if p not in self.problems)
        if timed:
            self.walls[tracer is not None].append(wall)
            self.outcomes[tracer is not None].append(outcome)

    def rates(self, traced: bool, field: str) -> float:
        return _median(
            [getattr(o, field) / w for o, w in zip(self.outcomes[traced], self.walls[traced])]
        )


def _end_to_end(run: Run, setup_samples: list[float]) -> dict:
    return {
        "setup_s": _metric(_median(setup_samples), "s"),
        "wall_s": _metric(_median(run.walls[False]), "s"),
        "updates_per_s": _metric(run.rates(False, "updates"), "1/s"),
        "samples_per_s": _metric(run.rates(False, "samples"), "1/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(run: Run, tr, tracer_mod) -> dict:
    n = max(1, len(run.walls[True]))
    stats = tr.stats
    metrics = {}
    for name in tracer_mod.SPAN_NAMES:
        calls, total, self_s = stats[name][: tracer_mod.UNITS]
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
        metrics[f"{name}.self_s"] = _metric(self_s / n, "s")
        metrics[f"{name}.total_s"] = _metric(total / n, "s")

    def per_unit(name):
        units = stats[name][tracer_mod.UNITS]
        return 1e6 * stats[name][tracer_mod.TOTAL] / units if units else 0.0

    metrics["engine.run_swarm.us_per_update"] = _metric(per_unit("engine.run_swarm"), "us")
    metrics["engine.run_swarm_global_tick.us_per_update"] = _metric(
        per_unit("engine.run_swarm_global_tick"), "us"
    )
    metrics["engine.run_centralized.us_per_step"] = _metric(per_unit("engine.run_centralized"), "us")
    rows = stats["objective.noisy_gradients"]
    metrics["objective.noisy_gradients.rows"] = _metric(rows[tracer_mod.UNITS] / n, "count")
    # Computed, not measured: 8-byte floats of the points read, the
    # features drawn and the gradients written, rows x dim each.
    metrics["objective.noisy_gradients.bytes_computed"] = _metric(
        3 * 8 * rows[tracer_mod.EXTRA] / n, "bytes"
    )
    er = stats["topology.erdos_renyi_connected"]
    metrics["topology.er_attempts"] = _metric(er[tracer_mod.UNITS] / n, "count")
    metrics["topology.er_accept_ratio"] = _metric(
        er[tracer_mod.CALLS] / er[tracer_mod.UNITS] if er[tracer_mod.UNITS] else 0.0, "ratio"
    )
    traced = run.outcomes[True]
    replications = sum(o.replications for o in traced)
    metrics["cli.included_ratio"] = _metric(
        sum(o.included for o in traced) / replications if replications else 0.0, "ratio"
    )
    metrics["metrics.lemma4_violations"] = _metric(
        sum(o.lemma4_violations for o in traced) / n, "count"
    )
    # Traced and untraced passes come in pairs on the same inputs.
    metrics["trace.overhead_frac"] = _metric(
        _median([t / u for t, u in zip(run.walls[True], run.walls[False])]) - 1.0, "ratio"
    )
    return metrics


def run_workload(args, workloads) -> int:
    import tracer as tracer_mod

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        plan = workloads.setup(args.workload, args.seed, os.path.join(work_dir, "inputs"))
        record = machine.machine_record(ROOT)
        record.update(workload=args.workload, seed=args.seed, master_seeds=plan.seeds)
        print("machine " + json.dumps(record, sort_keys=True), flush=True)
        setup_samples = []

        run = Run(workloads, plan, work_dir)
        run.one_pass(0, timed=False)
        tr = tracer_mod.Tracer() if args.trace else None
        started = time.perf_counter()
        index = 1
        while True:
            run.one_pass(index)
            if tr is not None:
                run.one_pass(index, tracer=tr)
            else:
                # Probes spread over the run see the host as the passes do.
                setup_samples.append(_probe_setup(args.workload, args.seed))
            index += 1
            if time.perf_counter() - started >= args.seconds:
                break
        while tr is None and len(setup_samples) < SETUP_PROBES:
            setup_samples.append(_probe_setup(args.workload, args.seed))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    if tr is None:
        metrics = _end_to_end(run, setup_samples)
        declared = _declared("end_to_end")
    else:
        metrics = _per_layer(run, tr, tracer_mod)
        declared = _declared("per_layer")
        # Self times add up to the top-level spans, which lie inside the
        # timed sections; only float rounding may push the sum past them.
        traced_wall = sum(run.walls[True])
        self_sum = sum(s[tracer_mod.SELF] for s in tr.stats.values())
        if self_sum > traced_wall * (1.0 + 1e-9):
            run.problems.append(
                f"self times add up to {self_sum:.6f} s, more than the "
                f"{traced_wall:.6f} s wall of the traced passes"
            )
    emitted = {name: m["unit"] for name, m in metrics.items()}
    if emitted != declared:
        run.problems.append(
            "emitted metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(emitted) - set(declared))}, "
            f"missing {sorted(set(declared) - set(emitted))}, "
            f"unit mismatch {sorted(k for k in emitted.keys() & declared.keys() if emitted[k] != declared[k])}"
        )

    for key, digest in sorted(run.digests[0].items()):
        print(f"digest {key} {digest}")
    timed = len(run.walls[False]) + len(run.walls[True])
    print(f"passes {run.passes} (1 warm-up, {timed} timed), failed_frac "
          f"{run.failed / run.attempted:.6f} ratio ({run.failed}/{run.attempted} operations)")
    for traced, walls in run.walls.items():
        if walls:
            kind = "traced" if traced else "untraced"
            print(f"pass_walls {kind} " + " ".join(f"{w:.4f}" for w in walls))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems
    print(json.dumps(
        {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    ))
    return 0 if correct else 1


def setup_probe(args, workloads) -> int:
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="probe-", dir=WORK_ROOT)
    try:
        workloads.setup(args.workload, args.seed, work_dir)
        done = time.monotonic()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(repr(done))
    return 0


def run_all(args, workloads) -> int:
    """Each workload in a fresh process, then one table of their metrics."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or results[name] is None:
            status = 1
    for name, result in results.items():
        if result is None:
            print(f"{name:<16} no result")
            continue
        print(f"{name:<16} correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"{'':<16} {metric:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    parser.add_argument("--seconds", type=float, default=50.0, help="timed section length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="per-layer run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swarmsgd", "__init__.py")):
        print(f"no swarmsgd sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(BENCHMARK_JSON):
        print(f"no {BENCHMARK_JSON}", file=sys.stderr)
        return 2
    machine.pin_blas_threads()
    sys.path.insert(0, SRC)
    import swarmsgd

    if not os.path.abspath(swarmsgd.__file__).startswith(SRC + os.sep):
        print(f"swarmsgd imported from {swarmsgd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args, workloads)
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
