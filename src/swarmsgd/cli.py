"""Command line interface and experiment orchestration.

One JSON document configures an experiment; subcommands run it:

- ``simulate``: run the configured scheme for every replication, one
  trace CSV per run plus a summary JSON.
- ``compare``: race the swarm scheme against the centralized baseline
  on first crossing of the error threshold, as in the timing study.
- ``bounds``: evaluate every closed-form bound for a set of constants.
- ``validate``: drive the inequality validators along a short run.
- ``sweep``: tabulate bound quantities over a parameter grid.

Replication ``r`` derives its generator seeds from the master seed
through fixed stream tags, so changing the master seed moves every
stream and fixing it pins them all. Exit codes: 0 success, 1 runtime or
validation failure, 2 bad configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from . import metrics
from . import objective as obj
from . import theory
from . import topology
from .randomness import derive_seed, make_rng

STREAM_GRAPH = 1
STREAM_SWARM = 2
STREAM_CENTRALIZED = 3
STREAM_TARGET = 4
STREAM_VALIDATE = 5

# A comparison run is cut off at this multiple of the predicted
# crossing time when no explicit horizon is configured.
HORIZON_SAFETY_FACTOR = 10.0

_TOP_KEYS = {
    "objective",
    "run",
    "graph",
    "replications",
    "threshold",
    "master_seed",
    "output_dir",
    "validate",
}
_OBJECTIVE_KEYS = {"kind", "dim", "rho", "noise_std", "x_tilde", "Q", "b"}
_RUN_KEYS = {
    "n_threads",
    "step_size",
    "attraction",
    "mean_sample_time",
    "scheme",
    "record_every",
    "max_updates",
    "max_virtual_time",
    "stop_at_threshold",
    "track_running_average",
}
_GRAPH_KEYS = {"kind", "p", "file", "fixed_across_replications"}
_GRAPH_KINDS = ("complete", "path", "star", "erdos_renyi", "file")
_VALIDATE_KEYS = {"max_updates", "record_every", "lemma2_states", "lemma2_replications", "sigma_samples"}


class ConfigError(ValueError):
    """Configuration is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration; sub-blocks stay as plain dicts
    already filled with defaults."""

    objective: dict
    run: dict
    graph: dict
    replications: int
    threshold: float | None
    master_seed: int
    output_dir: str
    validate: dict


def _check_keys(block: dict, allowed: set[str], context: str) -> None:
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown config field: {context}{key}")


def _require(block: dict, key: str, context: str):
    if key not in block or block[key] is None:
        raise ConfigError(f"missing required config field: {context}{key}")
    return block[key]


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(data, _TOP_KEYS, "")
    if "objective" not in data:
        raise ConfigError("missing required config field: objective")
    objective = dict(data["objective"])
    _check_keys(objective, _OBJECTIVE_KEYS, "objective.")
    objective.setdefault("kind", obj.RIDGE)
    if objective["kind"] not in (obj.RIDGE, obj.QUADRATIC, obj.NONCONVEX_SINE):
        raise ConfigError(f"unknown objective kind {objective['kind']!r}")
    if objective["kind"] == obj.QUADRATIC:
        _require(objective, "Q", "objective.")
        _require(objective, "b", "objective.")
        objective.setdefault("dim", len(objective["b"]))
    else:
        _require(objective, "dim", "objective.")
    objective.setdefault("rho", 0.1)
    objective.setdefault("noise_std", 1.0)
    objective.setdefault("x_tilde", None)

    run = dict(data.get("run", {}))
    _check_keys(run, _RUN_KEYS, "run.")
    _require(run, "n_threads", "run.")
    run.setdefault("step_size", 0.01)
    run.setdefault("attraction", 1.0)
    run.setdefault("mean_sample_time", 0.02)
    run.setdefault("scheme", engine.SCHEME_SWARM)
    run.setdefault("record_every", 100)
    run.setdefault("max_updates", None)
    run.setdefault("max_virtual_time", None)
    run.setdefault("stop_at_threshold", False)
    run.setdefault("track_running_average", False)
    if run["scheme"] not in engine.SCHEMES:
        raise ConfigError(f"unknown scheme {run['scheme']!r}")

    graph = dict(data.get("graph", {}))
    _check_keys(graph, _GRAPH_KEYS, "graph.")
    graph.setdefault("kind", "erdos_renyi")
    if graph["kind"] not in _GRAPH_KINDS:
        raise ConfigError(
            f"graph.kind must be one of {', '.join(_GRAPH_KINDS)}, got {graph['kind']!r}"
        )
    if graph["kind"] == "file":
        _require(graph, "file", "graph.")
    graph.setdefault("p", None)
    graph.setdefault("file", None)
    graph.setdefault("fixed_across_replications", False)

    validate = dict(data.get("validate", {}))
    _check_keys(validate, _VALIDATE_KEYS, "validate.")
    validate.setdefault("max_updates", 500)
    validate.setdefault("record_every", 10)
    validate.setdefault("lemma2_states", 5)
    validate.setdefault("lemma2_replications", 10_000)
    validate.setdefault("sigma_samples", 100_000)

    replications = int(data.get("replications", 100))
    if replications < 1:
        raise ConfigError(f"replications must be at least 1, got {replications}")
    threshold = data.get("threshold", 0.1)
    if threshold is not None:
        threshold = float(threshold)
        if threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {threshold}")
    return ExperimentConfig(
        objective=objective,
        run=run,
        graph=graph,
        replications=replications,
        threshold=threshold,
        master_seed=int(data.get("master_seed", 0)),
        output_dir=str(data.get("output_dir", "out")),
        validate=validate,
    )


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return experiment_config_from_dict(data)


def build_objective(config: ExperimentConfig) -> obj.ObjectiveSpec:
    """Resolve the objective block into a concrete spec.

    A ridge target left unspecified is drawn once per experiment from
    the master seed's target stream, so every replication shares it.
    """
    block = config.objective
    kind = block["kind"]
    if kind == obj.RIDGE:
        if block["x_tilde"] is not None:
            return obj.ridge_spec(float(block["rho"]), np.asarray(block["x_tilde"], dtype=float))
        rng = make_rng(derive_seed(config.master_seed, 0, STREAM_TARGET))
        return obj.ridge_spec_random(float(block["rho"]), int(block["dim"]), rng)
    if kind == obj.QUADRATIC:
        return obj.quadratic_spec(
            np.asarray(block["Q"], dtype=float),
            np.asarray(block["b"], dtype=float),
            float(block["noise_std"]),
        )
    return obj.nonconvex_sine_spec(int(block["dim"]), float(block["noise_std"]))


def build_graph(config: ExperimentConfig, replication: int) -> topology.Graph:
    """Graph for one replication; Erdos-Renyi graphs are redrawn per
    replication unless pinned by ``fixed_across_replications``."""
    block = config.graph
    n = int(config.run["n_threads"])
    if block["kind"] == "complete":
        return topology.complete_graph(n)
    if block["kind"] == "path":
        return topology.path_graph(n)
    if block["kind"] == "star":
        return topology.star_graph(n)
    if block["kind"] == "file":
        graph = topology.load_graph(block["file"])
        if graph.n_vertices != n:
            raise ConfigError(
                f"graph file has {graph.n_vertices} vertices, run.n_threads is {n}"
            )
        return graph
    p = block["p"]
    if p is None:
        p = min(1.0, 10.0 / n)
    index = 0 if block["fixed_across_replications"] else replication
    rng = make_rng(derive_seed(config.master_seed, index, STREAM_GRAPH))
    return topology.erdos_renyi_connected(n, float(p), rng)


def build_run_config(
    config: ExperimentConfig,
    scheme: str,
    seed: int,
    *,
    max_updates: int | None = None,
    max_virtual_time: float | None = None,
    stop_at_threshold: bool | None = None,
) -> engine.RunConfig:
    run = config.run
    if max_updates is None and max_virtual_time is None:
        max_updates = run["max_updates"]
        max_virtual_time = run["max_virtual_time"]
    if max_updates is None and max_virtual_time is None:
        raise ConfigError(
            "missing required config field: run.max_updates or run.max_virtual_time"
        )
    try:
        return engine.RunConfig(
            n_threads=int(run["n_threads"]),
            step_size=float(run["step_size"]),
            attraction=float(run["attraction"]),
            mean_sample_time=float(run["mean_sample_time"]),
            seed=seed,
            scheme=scheme,
            max_updates=None if max_updates is None else int(max_updates),
            max_virtual_time=None if max_virtual_time is None else float(max_virtual_time),
            record_every=int(run["record_every"]),
            threshold=config.threshold,
            stop_at_threshold=(
                bool(run["stop_at_threshold"]) if stop_at_threshold is None else stop_at_threshold
            ),
            track_running_average=bool(run["track_running_average"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def predicted_crossing_updates(
    spec: obj.ObjectiveSpec, gamma: float, threshold: float
) -> int | None:
    """Batch steps a noiseless gradient run needs to cross the threshold
    from the zero start, per the contraction of the baseline bound.
    None when the objective gives no usable contraction."""
    reg = obj.regularity(spec)
    x_star = obj.optimum(spec)
    if reg.convexity_class != obj.STRONGLY_CONVEX or x_star is None:
        return None
    contraction = 1.0 - 2.0 * reg.kappa * gamma + reg.kappa * reg.L * gamma**2
    if not 0.0 < contraction < 1.0:
        return None
    U0 = float(x_star @ x_star)
    if U0 <= threshold:
        return 1
    return max(1, math.ceil(math.log(U0 / threshold) / -math.log(contraction)))


def _compare_horizons(config: ExperimentConfig, spec: obj.ObjectiveSpec) -> tuple[float, float]:
    """Virtual-time horizons (swarm, centralized) for a comparison."""
    run = config.run
    if run["max_virtual_time"] is not None:
        t = float(run["max_virtual_time"])
        return t, t
    if run["max_updates"] is not None:
        # Interpreting an update budget in shared virtual time: K swarm
        # updates span about K/N mean rounds.
        rounds = float(run["max_updates"]) / float(run["n_threads"])
        dt = float(run["mean_sample_time"])
        h = theory.harmonic_speedup(int(run["n_threads"])).H_N
        return rounds * dt, rounds * dt * h
    steps = predicted_crossing_updates(spec, float(run["step_size"]), config.threshold or 0.1)
    if steps is None:
        raise ConfigError(
            "missing required config field: run.max_virtual_time "
            "(no closed-form crossing prediction for this objective)"
        )
    dt = float(run["mean_sample_time"])
    h = theory.harmonic_speedup(int(run["n_threads"])).H_N
    return (
        HORIZON_SAFETY_FACTOR * steps * dt,
        HORIZON_SAFETY_FACTOR * steps * dt * h,
    )


def _simulate_one(task: tuple[ExperimentConfig, int]) -> engine.Trace:
    config, replication = task
    spec = build_objective(config)
    scheme = config.run["scheme"]
    if scheme == engine.SCHEME_CENTRALIZED:
        run_config = build_run_config(
            config, scheme, derive_seed(config.master_seed, replication, STREAM_CENTRALIZED)
        )
        return engine.run_centralized(run_config, spec)
    run_config = build_run_config(
        config, scheme, derive_seed(config.master_seed, replication, STREAM_SWARM)
    )
    graph = build_graph(config, replication)
    if scheme == engine.SCHEME_GLOBAL_TICK:
        return engine.run_swarm_global_tick(run_config, graph, spec)
    return engine.run_swarm(run_config, graph, spec)


def _run_tasks(worker, tasks, jobs: int):
    if jobs <= 1:
        return [worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def cmd_simulate(config: ExperimentConfig, jobs: int = 1) -> dict:
    os.makedirs(config.output_dir, exist_ok=True)
    tasks = [(config, r) for r in range(config.replications)]
    traces = _run_tasks(_simulate_one, tasks, jobs)
    runs = []
    hits = []
    for r, trace in enumerate(traces):
        engine.write_trace_csv(trace, os.path.join(config.output_dir, f"run_{r:04d}.csv"))
        summary = engine.summary_json_dict(trace.summary)
        summary["replication"] = r
        runs.append(summary)
        if summary["T_hit"] is not None:
            hits.append(summary["T_hit"])
    report = {
        "scheme": config.run["scheme"],
        "replications": config.replications,
        "threshold": config.threshold,
        "master_seed": config.master_seed,
        "n_hit": len(hits),
        "mean_T_hit": sum(hits) / len(hits) if hits else None,
        "runs": runs,
    }
    _write_json(report, os.path.join(config.output_dir, "summary.json"))
    return report


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of racing the swarm scheme against the baseline."""

    instance: tuple[int, int]
    T_s_mean: float | None
    T_c_mean: float | None
    ratio: float | None
    predicted_ratio: float
    replications: int
    excluded: tuple[int, ...]
    lemma4_violations: int
    per_run: tuple[dict, ...]


def comparison_report_to_dict(report: ComparisonReport) -> dict:
    return {
        "instance": {"dim": report.instance[0], "n_threads": report.instance[1]},
        "T_s_mean": report.T_s_mean,
        "T_c_mean": report.T_c_mean,
        "ratio": report.ratio,
        "predicted_ratio": report.predicted_ratio,
        "replications": report.replications,
        "excluded": list(report.excluded),
        "lemma4_violations": report.lemma4_violations,
        "per_run": list(report.per_run),
    }


def comparison_report_from_dict(data: dict) -> ComparisonReport:
    return ComparisonReport(
        instance=(int(data["instance"]["dim"]), int(data["instance"]["n_threads"])),
        T_s_mean=data["T_s_mean"],
        T_c_mean=data["T_c_mean"],
        ratio=data["ratio"],
        predicted_ratio=float(data["predicted_ratio"]),
        replications=int(data["replications"]),
        excluded=tuple(data["excluded"]),
        lemma4_violations=int(data["lemma4_violations"]),
        per_run=tuple(data["per_run"]),
    )


def _compare_one(task: tuple[ExperimentConfig, int]) -> dict:
    config, replication = task
    spec = build_objective(config)
    graph = build_graph(config, replication)
    horizon_s, horizon_c = _compare_horizons(config, spec)
    seed_s = derive_seed(config.master_seed, replication, STREAM_SWARM)
    seed_c = derive_seed(config.master_seed, replication, STREAM_CENTRALIZED)

    violations = 0

    def watch_lemma4(k, t, positions):
        nonlocal violations
        result = metrics.lemma4_check(positions, graph, spec, float(config.run["attraction"]))
        if not result.holds:
            violations += 1

    swarm_config = build_run_config(
        config,
        engine.SCHEME_SWARM,
        seed_s,
        max_virtual_time=horizon_s,
        stop_at_threshold=True,
    )
    central_config = build_run_config(
        config,
        engine.SCHEME_CENTRALIZED,
        seed_c,
        max_virtual_time=horizon_c,
        stop_at_threshold=True,
    )
    swarm = engine.run_swarm(swarm_config, graph, spec, on_record=watch_lemma4)
    central = engine.run_centralized(central_config, spec)
    return {
        "replication": replication,
        "seed": seed_s,
        "seed_centralized": seed_c,
        "T_s": swarm.summary.T_hit,
        "T_c": central.summary.T_hit,
        "swarm_updates": swarm.summary.n_updates,
        "central_steps": central.summary.n_updates,
        "lemma4_violations": violations,
    }


def cmd_compare(config: ExperimentConfig, jobs: int = 1) -> ComparisonReport:
    if config.threshold is None:
        raise ConfigError("missing required config field: threshold")
    tasks = [(config, r) for r in range(config.replications)]
    rows = _run_tasks(_compare_one, tasks, jobs)
    excluded = tuple(r["replication"] for r in rows if r["T_s"] is None or r["T_c"] is None)
    included = [r for r in rows if r["T_s"] is not None and r["T_c"] is not None]
    T_s_mean = sum(r["T_s"] for r in included) / len(included) if included else None
    T_c_mean = sum(r["T_c"] for r in included) / len(included) if included else None
    ratio = T_c_mean / T_s_mean if included and T_s_mean > 0.0 else None
    n = int(config.run["n_threads"])
    report = ComparisonReport(
        instance=(int(config.objective["dim"]), n),
        T_s_mean=T_s_mean,
        T_c_mean=T_c_mean,
        ratio=ratio,
        predicted_ratio=theory.harmonic_speedup(n).delta_t_c_over_delta_t,
        replications=config.replications,
        excluded=excluded,
        lemma4_violations=sum(r["lemma4_violations"] for r in rows),
        per_run=tuple(rows),
    )
    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(
        comparison_report_to_dict(report), os.path.join(config.output_dir, "comparison.json")
    )
    return report


_BOUND_REQUIRED = ("kappa", "L", "sigma_sq", "gamma", "a", "lambda2", "d_bar", "N")


def _bounds_report(params: dict) -> dict:
    for key in _BOUND_REQUIRED:
        if key not in params:
            raise ConfigError(f"missing required config field: {key}")
    kappa = float(params["kappa"])
    L = float(params["L"])
    sigma_sq = float(params["sigma_sq"])
    gamma = float(params["gamma"])
    a = float(params["a"])
    lambda2 = float(params["lambda2"])
    d_bar = float(params["d_bar"])
    N = int(params["N"])
    K = int(params.get("K", 10_000))
    U0 = float(params.get("U0", 1.0))
    V0 = float(params.get("V0", 0.0))
    G0 = float(params.get("G0", U0))
    f0_gap = float(params.get("f0_gap", 1.0))
    D = params.get("D")

    h = theory.harmonic_speedup(N)
    report: dict = {
        "parameters": {
            "kappa": kappa,
            "L": L,
            "sigma_sq": sigma_sq,
            "gamma": gamma,
            "a": a,
            "lambda2": lambda2,
            "d_bar": d_bar,
            "N": N,
            "K": K,
            "U0": U0,
            "V0": V0,
            "G0": G0,
            "f0_gap": f0_gap,
        },
        "harmonic": {"H_N": h.H_N, "delta_t_c_over_delta_t": h.delta_t_c_over_delta_t},
    }

    try:
        sc = theory.strong_convex_bound(
            kappa, L, sigma_sq, gamma, a, lambda2, d_bar, N, U0, V0
        )
        report["strong_convex"] = {
            "admissible": sc.admissible,
            "hat_omega": sc.hat_omega,
            "C": sc.C,
            "phi_star": _json_float(sc.phi_star),
            "gamma_caps": [_json_float(c) for c in sc.gamma_caps],
            "root_ambiguous": sc.root_ambiguous,
            "corollary_gamma_ok": sc.corollary_gamma_ok,
        }
    except theory.InadmissibleParametersError as exc:
        report["strong_convex"] = {"admissible": False, "reason": str(exc)}

    try:
        cb = theory.centralized_bound(kappa, L, sigma_sq, gamma, N, G0)
        report["centralized"] = {
            "admissible": True,
            "phi_star_star": cb.phi_star_star,
            "contraction": cb.contraction,
        }
    except theory.InadmissibleParametersError as exc:
        report["centralized"] = {"admissible": False, "reason": str(exc)}

    cv = theory.convex_bound(
        L, sigma_sq, gamma, a, lambda2, d_bar, N, K, U0, V0, None if D is None else float(D)
    )
    report["convex"] = {
        "admissible": cv.admissible,
        "tilde_omega": _json_float(cv.tilde_omega),
        "mu": cv.mu,
        "bound_at_K": _json_float(cv.bound_at_K),
        "D": _json_float(cv.D),
        "gamma_rule_value": _json_float(cv.gamma_rule_value),
        "gamma_rule_caps": [_json_float(c) for c in cv.gamma_rule_caps],
        "gamma_rule_ok": cv.gamma_rule_ok,
        "phi_K_star": _json_float(cv.phi_K_star),
    }

    nc = theory.nonconvex_bound(L, sigma_sq, gamma, a, lambda2, d_bar, N, K, f0_gap, V0)
    report["nonconvex"] = {
        "admissible": nc.admissible,
        "check_omega": _json_float(nc.check_omega),
        "check_mu": nc.check_mu,
        "bound_at_K": _json_float(nc.bound_at_K),
        "attraction_ok": nc.attraction_ok,
    }
    return report


def cmd_bounds(params_path: str, out_dir: str | None = None) -> dict:
    try:
        with open(params_path, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {params_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {params_path} is not valid JSON: {exc}") from exc
    report = _bounds_report(params)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(report, os.path.join(out_dir, "bounds.json"))
    return report


def cmd_validate(config: ExperimentConfig) -> dict:
    """Run a short swarm trajectory and check both inequalities on it."""
    spec = build_objective(config)
    graph = build_graph(config, 0)
    vcfg = config.validate
    run_config = build_run_config(
        config,
        engine.SCHEME_SWARM,
        derive_seed(config.master_seed, 0, STREAM_SWARM),
        max_updates=int(vcfg["max_updates"]),
    )
    run_config = replace(
        run_config,
        record_every=int(vcfg["record_every"]),
        threshold=None,
        stop_at_threshold=False,
    )

    recorded: list[tuple[int, np.ndarray]] = []

    def keep_state(k, t, positions):
        recorded.append((k, positions.copy()))

    engine.run_swarm(run_config, graph, spec, on_record=keep_state)

    a = float(config.run["attraction"])
    checks = []
    lemma4_failures = 0
    for k, positions in recorded:
        result = metrics.lemma4_check(positions, graph, spec, a)
        if not result.holds:
            lemma4_failures += 1
        checks.append(
            {"check": "lemma4", "k": k, "holds": result.holds, "lhs": result.lhs, "rhs": result.rhs}
        )

    n_states = min(int(vcfg["lemma2_states"]), len(recorded))
    lemma2_failures = 0
    if n_states > 0:
        picks = np.linspace(0, len(recorded) - 1, n_states).astype(int)
        rng = make_rng(derive_seed(config.master_seed, 0, STREAM_VALIDATE))
        for idx in picks:
            k, positions = recorded[idx]
            result = metrics.lemma2_monte_carlo_check(
                positions,
                graph,
                spec,
                run_config,
                int(vcfg["lemma2_replications"]),
                rng,
                sigma_samples=int(vcfg["sigma_samples"]),
            )
            if not result.holds:
                lemma2_failures += 1
            checks.append(
                {
                    "check": "lemma2",
                    "k": k,
                    "holds": result.holds,
                    "lhs": result.empirical_mean,
                    "rhs": result.rhs,
                    "std_err": result.std_err,
                    "sigma_sq_hat": result.sigma_sq_hat,
                }
            )

    n_lemma4 = len(recorded)
    report = {
        "checks": checks,
        "lemma4_checks": n_lemma4,
        "lemma4_violations": lemma4_failures,
        "lemma4_pass_rate": (n_lemma4 - lemma4_failures) / n_lemma4 if n_lemma4 else None,
        "lemma2_checks": int(n_states),
        "lemma2_violations": lemma2_failures,
        "lemma2_pass_rate": (n_states - lemma2_failures) / n_states if n_states else None,
    }
    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(report, os.path.join(config.output_dir, "validation.json"))
    return report


_SWEEP_HEADER = "family,gamma,a,N,lambda2,d_bar,admissible,omega,rate,bound"


def cmd_sweep(params_path: str, out_dir: str) -> str:
    """Evaluate all bound families over a parameter grid, long CSV."""
    try:
        with open(params_path, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {params_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {params_path} is not valid JSON: {exc}") from exc
    base = dict(params.get("base", {}))
    grid = dict(params.get("grid", {}))
    for key in ("kappa", "L", "sigma_sq"):
        if key not in base:
            raise ConfigError(f"missing required config field: base.{key}")
    kappa = float(base["kappa"])
    L = float(base["L"])
    sigma_sq = float(base["sigma_sq"])
    K = int(base.get("K", 10_000))
    U0 = float(base.get("U0", 1.0))
    V0 = float(base.get("V0", 0.0))
    G0 = float(base.get("G0", U0))
    f0_gap = float(base.get("f0_gap", 1.0))

    gammas = [float(g) for g in grid.get("gamma", [0.01])]
    attractions = [float(a) for a in grid.get("a", [1.0])]
    thread_counts = [int(n) for n in grid.get("N", [20])]
    lambda2_grid = grid.get("lambda2")

    lines = [_SWEEP_HEADER]
    for N in thread_counts:
        lambda2_values = [float(l) for l in lambda2_grid] if lambda2_grid else [float(N)]
        d_bar = float(base.get("d_bar", N - 1))
        for gamma in gammas:
            for a in attractions:
                for lam2 in lambda2_values:
                    lines.extend(
                        _sweep_rows(
                            kappa, L, sigma_sq, gamma, a, lam2, d_bar, N, K, U0, V0, G0, f0_gap
                        )
                    )
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "sweep.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out_path


def _sweep_rows(
    kappa, L, sigma_sq, gamma, a, lam2, d_bar, N, K, U0, V0, G0, f0_gap
) -> list[str]:
    def fmt(family, admissible, omega, rate, bound):
        return (
            f"{family},{gamma!r},{a!r},{N},{lam2!r},{d_bar!r},"
            f"{int(admissible)},{omega!r},{rate!r},{bound!r}"
        )

    rows = []
    try:
        sc = theory.strong_convex_bound(kappa, L, sigma_sq, gamma, a, lam2, d_bar, N, U0, V0)
        rows.append(fmt("strong_convex", sc.admissible, sc.hat_omega, sc.C, sc.phi_star))
    except theory.InadmissibleParametersError:
        rows.append(fmt("strong_convex", False, math.nan, math.nan, math.nan))
    try:
        cb = theory.centralized_bound(kappa, L, sigma_sq, gamma, N, G0)
        rows.append(fmt("centralized", True, math.nan, cb.contraction, cb.phi_star_star))
    except theory.InadmissibleParametersError:
        rows.append(fmt("centralized", False, math.nan, math.nan, math.nan))
    cv = theory.convex_bound(L, sigma_sq, gamma, a, lam2, d_bar, N, K, U0, V0)
    rows.append(fmt("convex", cv.admissible, cv.tilde_omega, cv.mu, cv.bound_at_K))
    nc = theory.nonconvex_bound(L, sigma_sq, gamma, a, lam2, d_bar, N, K, f0_gap, V0)
    rows.append(fmt("nonconvex", nc.admissible, nc.check_omega, nc.check_mu, nc.bound_at_K))
    return rows


def _json_float(v: float) -> float | None:
    if v is None or math.isnan(v):
        return None
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return float(v)


def _write_json(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsgd",
        description="Simulator and bound calculators for asynchronous swarm descent.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run replications of one scheme, write traces"),
        ("compare", "race swarm vs centralized to a threshold"),
        ("bounds", "evaluate closed-form bounds from a parameter file"),
        ("validate", "check the drift inequalities along a short run"),
        ("sweep", "tabulate bounds over a parameter grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config or parameter file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--jobs", type=int, default=1, help="parallel replications")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("bounds", "sweep"):
            out_dir = args.out if args.out is not None else "out"
            if args.command == "bounds":
                report = cmd_bounds(args.config, out_dir)
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                path = cmd_sweep(args.config, out_dir)
                print(path)
            return 0

        config = load_experiment_config(args.config)
        if args.seed is not None:
            config = replace(config, master_seed=args.seed)
        if args.out is not None:
            config = replace(config, output_dir=args.out)

        if args.command == "simulate":
            report = cmd_simulate(config, jobs=args.jobs)
            print(
                f"{report['replications']} runs, {report['n_hit']} crossed, "
                f"outputs in {config.output_dir}"
            )
            return 0
        if args.command == "compare":
            report = cmd_compare(config, jobs=args.jobs)
            ratio = "n/a" if report.ratio is None else f"{report.ratio:.3f}"
            print(
                f"T_s_mean={report.T_s_mean} T_c_mean={report.T_c_mean} "
                f"ratio={ratio} predicted={report.predicted_ratio:.3f} "
                f"excluded={len(report.excluded)}"
            )
            return 0
        if args.command == "validate":
            report = cmd_validate(config)
            print(
                f"lemma4 {report['lemma4_checks'] - report['lemma4_violations']}"
                f"/{report['lemma4_checks']} pass, "
                f"lemma2 {report['lemma2_checks'] - report['lemma2_violations']}"
                f"/{report['lemma2_checks']} pass"
            )
            return 1 if report["lemma4_violations"] or report["lemma2_violations"] else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
