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
import inspect
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from functools import partial
from itertools import product
from operator import itemgetter

import numpy as np

from . import engine
from . import metrics
from . import objective as obj
from . import theory
from . import topology
from ._ranges import COUNT, NONNEGATIVE, Range, check
from .randomness import derive_seed, make_rng

STREAM_GRAPH = 1
STREAM_SWARM = 2
STREAM_CENTRALIZED = 3
STREAM_TARGET = 4
STREAM_VALIDATE = 5

# A comparison run is cut off at this multiple of the predicted
# crossing time when no explicit horizon is configured.
HORIZON_SAFETY_FACTOR = 10.0

# The input schema: what every field of an experiment config, a bounds
# file and a sweep file may hold. A field is (type, default) or (type,
# default, range); a nested dict is a block, empty when missing. A type
# is int, float, bool or str, (list, t) for a list of t, or a tuple of
# strings for one of them. A block's "kind" type may instead map each
# kind to the other fields that kind reads; any other field is refused.
# A range is a ``Range``, the library's own for a field the library also
# takes; a list range tests each item. A field given as null takes its
# default; a _REQUIRED field has none.
_REQUIRED = object()
_VECTOR = (list, float)

# The inputs of ``bounds``, typed by their ranges; a null G0 takes U0.
# ``sweep`` reads the same fields from its ``base``, except the grid
# axes and D, and with d_bar optional: a null d_bar is N - 1 at each
# grid point.
_BOUND_DEFAULTS = {"K": 10_000, "U0": 1.0, "V0": 0.0, "G0": None, "f0_gap": 1.0, "D": None}
_BOUND_INPUTS = {
    name: (int if range_.integer else float, _BOUND_DEFAULTS.get(name, _REQUIRED), range_)
    for name, range_ in theory.RANGES.items()
}
_GRID_AXES = ("gamma", "a", "N", "lambda2")
_SCHEMA = {
    "config": {
        "objective": {
            "kind": ({
                obj.RIDGE: ("dim", "rho", "x_tilde"),
                obj.QUADRATIC: ("dim", "Q", "b", "noise_std"),
                obj.NONCONVEX_SINE: ("dim", "noise_std"),
            }, obj.RIDGE),
            "dim": (int, None, obj.RANGES["dim"]),
            "rho": (float, 0.1, obj.RANGES["rho"]),
            "noise_std": (float, 1.0, obj.RANGES["noise_std"]),
            "x_tilde": (_VECTOR, None, obj.RANGES["x_tilde"]),
            "Q": ((list, _VECTOR), _REQUIRED),
            "b": (_VECTOR, _REQUIRED),
        },
        "run": {
            "n_threads": (int, _REQUIRED, engine.RANGES["n_threads"]),
            "step_size": (float, 0.01, engine.RANGES["step_size"]),
            "attraction": (float, 1.0, engine.RANGES["attraction"]),
            "mean_sample_time": (float, 0.02, engine.RANGES["mean_sample_time"]),
            "scheme": (engine.SCHEMES, engine.SCHEME_SWARM),
            "record_every": (int, 100, engine.RANGES["record_every"]),
            "max_updates": (int, None, engine.RANGES["max_updates"]),
            "max_virtual_time": (float, None, engine.RANGES["max_virtual_time"]),
            "stop_at_threshold": (bool, False),
        },
        "graph": {
            "kind": ({
                "complete": (), "path": (), "star": (),
                "erdos_renyi": ("p", "fixed_across_replications"), "file": ("file",),
            }, "erdos_renyi"),
            "p": (float, None, topology.RANGES["p"]),
            "file": (str, _REQUIRED),
            "fixed_across_replications": (bool, False),
        },
        "validate": {
            "max_updates": (int, 500, engine.RANGES["max_updates"]),
            "record_every": (int, 10, engine.RANGES["record_every"]),
            "lemma2_states": (int, 5, NONNEGATIVE),
            "lemma2_replications": (int, 10_000, metrics.RANGES["n_replications"]),
            "sigma_samples": (int, 100_000, metrics.RANGES["sigma_samples"]),
        },
        "replications": (int, 100, COUNT),
        # null turns crossing detection off; see experiment_config_from_dict
        "threshold": (float, 0.1, engine.RANGES["threshold"]),
        "master_seed": (int, 0, Range(0, 2**64 - 1, "in [0, 2**64)", integer=True)),
        "output_dir": (str, "out"),
    },
    "bounds": _BOUND_INPUTS,
    "sweep": {
        "base": {
            **{k: v for k, v in _BOUND_INPUTS.items() if k not in (*_GRID_AXES, "D")},
            "d_bar": (float, None, theory.RANGES["d_bar"]),
        },
        "grid": {
            "gamma": (_VECTOR, [0.01], theory.RANGES["gamma"]),
            "a": (_VECTOR, [1.0], theory.RANGES["a"]),
            "N": ((list, int), [20], theory.RANGES["N"]),
            "lambda2": (_VECTOR, None, theory.RANGES["lambda2"]),
        },
    },
}

# The four bound families: family -> (result fields that bounds.json
# reports besides ``admissible``, result fields behind the sweep's
# omega, rate and bound columns, None reading NaN). Family f is computed
# by ``theory.<f>_bound``, which takes the bound inputs of the same names.
_BOUND_FAMILIES = {
    "strong_convex": (
        ("hat_omega", "C", "phi_star", "gamma_caps", "root_ambiguous", "corollary_gamma_ok"),
        ("hat_omega", "C", "phi_star"),
    ),
    "centralized": (("phi_star_star", "contraction"), (None, "contraction", "phi_star_star")),
    "convex": (
        (
            "tilde_omega", "mu", "bound_at_K", "D", "gamma_rule_value", "gamma_rule_caps",
            "gamma_rule_ok", "phi_K_star",
        ),
        ("tilde_omega", "mu", "bound_at_K"),
    ),
    "nonconvex": (
        ("check_omega", "check_mu", "bound_at_K", "attraction_ok"),
        ("check_omega", "check_mu", "bound_at_K"),
    ),
}
# family -> its calculator's arguments, picked from the bound inputs
_BOUND_ARGS = {
    family: itemgetter(*inspect.signature(getattr(theory, f"{family}_bound")).parameters)
    for family in _BOUND_FAMILIES
}


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


def _number(value, field: str, integer: bool = False):
    """A numeric config value as a finite float, or as an int when
    ``integer``; ConfigError naming ``field`` on a wrong type or a
    non-finite value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{field} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{field} must be finite, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{field} must be an integer, got {value!r}")
        return int(value)
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{field} must be finite, got {value!r}") from None


def _convert(value, kind, field: str, range_=None):
    """``value`` checked against a schema type and range; see ``_SCHEMA``."""
    if isinstance(kind, tuple) and kind[0] is list:
        if not isinstance(value, list):
            raise ConfigError(f"{field} must be a list, got {value!r}")
        return [_convert(item, kind[1], f"{field}[{i}]", range_) for i, item in enumerate(value)]
    if isinstance(kind, (tuple, dict)):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{field} must be one of {', '.join(kind)}, got {value!r}")
        return value
    if kind is float or kind is int:
        value = _number(value, field, integer=kind is int)
    elif not isinstance(value, kind):
        raise ConfigError(f"{field} must be a {kind.__name__}, got {value!r}")
    if range_ is not None:
        check([(field, *range_)], [value], ConfigError)
    return value


def _value(data: dict, key: str, entry, prefix: str):
    """Field ``key`` of ``data`` checked against its schema ``entry``."""
    field = prefix + key
    if isinstance(entry, dict):
        return _fields(data.get(key), entry, field, f"{field}.")
    kind, default, *range_ = entry
    value = data.get(key)
    if value is not None:
        return _convert(value, kind, field, *range_)
    if default is _REQUIRED:
        raise ConfigError(f"missing required config field: {field}")
    return default


def _fields(data, schema: dict, name: str, prefix: str = "") -> dict:
    """The JSON object ``data``, called ``name``, checked against
    ``schema`` with defaults filled in; null is an empty object. Messages
    name a field by ``prefix`` and its key. A kind map keeps only the
    fields the kind reads."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object, got {data!r}")
    fields = schema
    if "kind" in schema and isinstance(schema["kind"][0], dict):
        kind = _value(data, "kind", schema["kind"], prefix)
        fields = {"kind": schema["kind"], **{k: schema[k] for k in schema["kind"][0][kind]}}
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown config field: {prefix}{key}")
        if key not in fields:
            raise ConfigError(f"{prefix}kind {kind} takes no field {prefix}{key}")
    return {key: _value(data, key, entry, prefix) for key, entry in fields.items()}


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    config = _fields(data, _SCHEMA["config"], "config")
    # dim may be left out where the objective's vector gives it
    objective = config["objective"]
    key = "b" if objective["kind"] == obj.QUADRATIC else "x_tilde"
    if objective.get(key) is not None:
        n = len(objective[key])
        if objective["dim"] not in (None, n):
            raise ConfigError(f"objective.dim must be {n}, the length of objective.{key}")
        check([("objective.dim", *obj.RANGES["dim"])], [n], ConfigError)
        if "Q" in objective and {len(objective["Q"]), *map(len, objective["Q"])} != {n}:
            raise ConfigError(f"objective.Q must be {n} x {n}, as objective.b has length {n}")
        objective["dim"] = n
    elif objective["dim"] is None:
        raise ConfigError("missing required config field: objective.dim")
    # a null threshold turns crossing detection off; a missing one is 0.1
    if "threshold" in data and data["threshold"] is None:
        config["threshold"] = None
    return ExperimentConfig(**config)


def _load_json(path: str, what: str = "config"):
    """The JSON document at ``path``; ConfigError naming ``what`` when the
    file cannot be read or is not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    # also a number with more digits than int() converts
    except ValueError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_experiment_config(path: str) -> ExperimentConfig:
    return experiment_config_from_dict(_load_json(path))


def build_objective(config: ExperimentConfig) -> obj.ObjectiveSpec:
    """Resolve the objective block into a concrete spec.

    A ridge target left unspecified is drawn once per experiment from
    the master seed's target stream, so every replication shares it.
    """
    block = config.objective
    kind = block["kind"]
    try:
        if kind == obj.RIDGE:
            if block["x_tilde"] is not None:
                return obj.ridge_spec(block["rho"], np.asarray(block["x_tilde"], dtype=float))
            rng = make_rng(derive_seed(config.master_seed, 0, STREAM_TARGET))
            return obj.ridge_spec_random(block["rho"], block["dim"], rng)
        if kind == obj.QUADRATIC:
            return obj.quadratic_spec(
                np.asarray(block["Q"], dtype=float),
                np.asarray(block["b"], dtype=float),
                block["noise_std"],
            )
        return obj.nonconvex_sine_spec(block["dim"], block["noise_std"])
    except ValueError as exc:
        raise ConfigError(f"objective: {exc}") from exc


def build_graph(config: ExperimentConfig, replication: int) -> topology.Graph:
    """Graph for one replication; Erdos-Renyi graphs are redrawn per
    replication unless pinned by ``fixed_across_replications``."""
    block = config.graph
    n = config.run["n_threads"]
    check([("run.n_threads", *topology.RANGES["n"])], [n], ConfigError)
    if block["kind"] == "complete":
        return topology.complete_graph(n)
    if block["kind"] == "path":
        return topology.path_graph(n)
    if block["kind"] == "star":
        return topology.star_graph(n)
    if block["kind"] == "file":
        data = _load_json(block["file"], "graph.file")
        # The declared size is checked before an n x n matrix is built.
        if isinstance(data, dict) and type(data.get("n")) is int and data["n"] != n:
            raise ConfigError(
                f"graph.file {block['file']} has {data['n']} vertices, run.n_threads is {n}"
            )
        try:
            return topology.graph_from_json_dict(data)
        except (TypeError, ValueError, topology.GraphConnectivityError) as exc:
            raise ConfigError(f"graph.file {block['file']}: {exc}") from exc
    p = block["p"]
    if p is None:
        p = min(1.0, 10.0 / n)
    index = 0 if block["fixed_across_replications"] else replication
    rng = make_rng(derive_seed(config.master_seed, index, STREAM_GRAPH))
    try:
        return topology.erdos_renyi_connected(n, p, rng)
    except topology.GraphConnectivityError as exc:
        raise ConfigError(f"graph.p {p} is too small for run.n_threads {n}: {exc}") from exc


def build_run_config(config: ExperimentConfig, seed: int, **overrides) -> engine.RunConfig:
    """The run block and the threshold as the engine's run config, with
    ``overrides`` on top; overriding either horizon clears the other. The
    block's scheme picks the engine function, so it is left out."""
    fields = {**config.run, "seed": seed, "threshold": config.threshold}
    del fields["scheme"]
    if "max_updates" in overrides or "max_virtual_time" in overrides:
        fields["max_updates"] = fields["max_virtual_time"] = None
    fields.update(overrides)
    if fields["max_updates"] is None and fields["max_virtual_time"] is None:
        raise ConfigError(
            "missing required config field: run.max_updates or run.max_virtual_time"
        )
    try:
        return engine.RunConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _evaluate(family: str, inputs: dict):
    """Bound family ``family`` at the bound inputs ``inputs``: its result,
    or the InadmissibleParametersError it raised. An input out of range
    or too large for floats is a ConfigError naming the family. The
    calculator is looked up at each call, so a wrapper set on the
    ``theory`` module is seen."""
    try:
        return getattr(theory, f"{family}_bound")(*_BOUND_ARGS[family](inputs))
    except theory.InadmissibleParametersError as exc:
        return exc
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{family} bound: {exc}") from exc


def predicted_crossing_updates(
    spec: obj.ObjectiveSpec, gamma: float, threshold: float
) -> int | None:
    """Batch steps a noiseless gradient run needs to cross the threshold
    from the zero start, per the contraction of the baseline bound.
    None when the objective gives no usable contraction."""
    reg = obj.regularity(spec)
    x_star = obj.optimum(spec)
    # A step that is not positive never contracts; the run config rejects it.
    if reg.convexity_class != obj.STRONGLY_CONVEX or x_star is None or not gamma > 0.0:
        return None
    U0 = float(x_star @ x_star)
    bound = _evaluate(
        "centralized",
        {"kappa": reg.kappa, "L": reg.L, "sigma_sq": 0.0, "gamma": gamma, "N": 1, "G0": U0},
    )
    # kappa = L with gamma = 1/L contracts to the optimum in one step; a
    # contraction that rounds to 1 predicts no crossing at all.
    if isinstance(bound, theory.InadmissibleParametersError) or not 0.0 < bound.contraction < 1.0:
        return None
    if U0 <= threshold:
        return 1
    return max(1, math.ceil(math.log(U0 / threshold) / -math.log(bound.contraction)))


def _compare_horizons(config: ExperimentConfig, spec: obj.ObjectiveSpec) -> tuple[float, float]:
    """Virtual-time horizons (swarm, centralized) for a comparison."""
    run = config.run
    if run["max_virtual_time"] is not None:
        t = run["max_virtual_time"]
        return t, t
    if run["max_updates"] is not None:
        # Interpreting an update budget in shared virtual time: K swarm
        # updates span about K/N mean rounds.
        rounds = run["max_updates"] / run["n_threads"]
    else:
        steps = predicted_crossing_updates(spec, run["step_size"], config.threshold)
        if steps is None:
            raise ConfigError(
                "missing required config field: run.max_virtual_time "
                "(no closed-form crossing prediction for this objective)"
            )
        rounds = HORIZON_SAFETY_FACTOR * steps
    t = rounds * run["mean_sample_time"]
    return t, t * theory.harmonic_speedup(run["n_threads"]).H_N


def _simulate_one(task: tuple[ExperimentConfig, int]) -> engine.Trace:
    config, replication = task
    spec = build_objective(config)
    scheme = config.run["scheme"]
    stream = STREAM_CENTRALIZED if scheme == engine.SCHEME_CENTRALIZED else STREAM_SWARM
    run_config = build_run_config(config, derive_seed(config.master_seed, replication, stream))
    if scheme == engine.SCHEME_CENTRALIZED:
        return engine.run_centralized(run_config, spec)
    graph = build_graph(config, replication)
    if scheme == engine.SCHEME_GLOBAL_TICK:
        return engine.run_swarm_global_tick(run_config, graph, spec)
    return engine.run_swarm(run_config, graph, spec)


def _replication(worker, task: tuple[ExperimentConfig, int]):
    """One replication; a run that diverges is reported with its index."""
    try:
        return worker(task)
    except engine.DivergenceError as exc:
        raise RuntimeError(f"replication {task[1]}: {exc}") from exc


def _check_out_dir(path: str, field: str) -> None:
    """ConfigError naming ``field`` unless ``path`` is or can become a directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"{field} {path}: {existing} is not a directory")


def _run_tasks(worker, tasks, jobs: int):
    run = partial(_replication, worker)
    if jobs <= 1:
        return [run(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(run, tasks))


def cmd_simulate(config: ExperimentConfig, jobs: int = 1) -> dict:
    check([("--jobs", *COUNT)], [jobs], ConfigError)
    _check_out_dir(config.output_dir, "output_dir")
    tasks = [(config, r) for r in range(config.replications)]
    traces = _run_tasks(_simulate_one, tasks, jobs)
    os.makedirs(config.output_dir, exist_ok=True)
    runs = []
    for r, trace in enumerate(traces):
        engine.write_trace_csv(trace, os.path.join(config.output_dir, f"run_{r:04d}.csv"))
        runs.append({**summary_json_dict(trace.summary), "replication": r})
    hits = [run["T_hit"] for run in runs if run["T_hit"] is not None]
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


def _compare_one(task: tuple[ExperimentConfig, int]) -> dict:
    config, replication = task
    spec = build_objective(config)
    graph = build_graph(config, replication)
    horizon_s, horizon_c = _compare_horizons(config, spec)
    seed_s = derive_seed(config.master_seed, replication, STREAM_SWARM)
    seed_c = derive_seed(config.master_seed, replication, STREAM_CENTRALIZED)

    a, holds = config.run["attraction"], []
    swarm_config = build_run_config(
        config, seed_s, max_virtual_time=horizon_s, stop_at_threshold=True
    )
    central_config = build_run_config(
        config, seed_c, max_virtual_time=horizon_c, stop_at_threshold=True
    )
    swarm = engine.run_swarm(swarm_config, graph, spec, on_record=lambda ks, ts, states: (
        holds.extend(metrics.lemma4_check(states, graph, spec, a).holds.tolist())
    ))
    central = engine.run_centralized(central_config, spec)
    return {
        "replication": replication,
        "seed": seed_s,
        "seed_centralized": seed_c,
        "T_s": swarm.summary.T_hit,
        "T_c": central.summary.T_hit,
        "swarm_updates": swarm.summary.n_updates,
        "central_steps": central.summary.n_updates,
        "lemma4_violations": holds.count(False),
    }


def cmd_compare(config: ExperimentConfig, jobs: int = 1) -> dict:
    """Race the swarm against the baseline over every replication; the
    report is what ``comparison.json`` holds."""
    check([("--jobs", *COUNT)], [jobs], ConfigError)
    if config.threshold is None:
        raise ConfigError("missing required config field: threshold")
    # The watch tests the swarm mean after each update, never the start:
    # a threshold the zero start meets is crossed at update 1 by both
    # schemes, and the race would time one update against one step.
    spec = build_objective(config)
    start = float(metrics.watched_errors(spec, obj.optimum(spec), np.zeros((1, spec.dim)))[0])
    if start <= config.threshold:
        raise ConfigError(
            f"threshold {config.threshold!r} is already met at the zero start, whose "
            f"watched error is {start!r}; compare needs a threshold below it"
        )
    _check_out_dir(config.output_dir, "output_dir")
    tasks = [(config, r) for r in range(config.replications)]
    rows = _run_tasks(_compare_one, tasks, jobs)
    included = [r for r in rows if r["T_s"] is not None and r["T_c"] is not None]
    T_s_mean = sum(r["T_s"] for r in included) / len(included) if included else None
    T_c_mean = sum(r["T_c"] for r in included) / len(included) if included else None
    n = config.run["n_threads"]
    report = {
        "instance": {"dim": config.objective["dim"], "n_threads": n},
        "T_s_mean": T_s_mean,
        "T_c_mean": T_c_mean,
        "ratio": T_c_mean / T_s_mean if included and T_s_mean > 0.0 else None,
        "predicted_ratio": theory.harmonic_speedup(n).delta_t_c_over_delta_t,
        "replications": config.replications,
        "excluded": [r["replication"] for r in rows if r["T_s"] is None or r["T_c"] is None],
        "lemma4_violations": sum(r["lemma4_violations"] for r in rows),
        "per_run": rows,
    }
    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(report, os.path.join(config.output_dir, "comparison.json"))
    return report


def _json_value(v):
    """A result field as strict JSON: NaN is null, an infinity "inf" or
    "-inf", a tuple a list; anything else but a float passes as is."""
    if isinstance(v, tuple):
        return [_json_value(item) for item in v]
    if not isinstance(v, float) or math.isfinite(v):
        return v
    if math.isnan(v):
        return None
    return "inf" if v > 0 else "-inf"


def summary_json_dict(summary: engine.RunSummary) -> dict:
    """JSON form of a run summary. Wall-clock time is left out, so
    rerunning a seed yields byte-identical files."""
    return {f: _json_value(v) for f, v in asdict(summary).items() if f != "wall_time"}


def cmd_bounds(params_path: str, out_dir: str) -> dict:
    """Evaluate every bound family at the inputs of one parameter file;
    the report is what ``bounds.json`` in ``out_dir`` holds."""
    _check_out_dir(out_dir, "--out")
    inputs = _fields(_load_json(params_path), _SCHEMA["bounds"], "bound parameters")
    if inputs["G0"] is None:
        inputs["G0"] = inputs["U0"]
    report: dict = {}
    for family, (fields, _) in _BOUND_FAMILIES.items():
        result = _evaluate(family, inputs)
        if isinstance(result, theory.InadmissibleParametersError):
            report[family] = {"admissible": False, "reason": str(result)}
        else:
            report[family] = {f: _json_value(getattr(result, f)) for f in ("admissible", *fields)}
    report["harmonic"] = asdict(theory.harmonic_speedup(inputs["N"]))
    # D is reported by the convex family.
    report["parameters"] = {k: v for k, v in inputs.items() if k != "D"}
    os.makedirs(out_dir, exist_ok=True)
    _write_json(report, os.path.join(out_dir, "bounds.json"))
    return report


def cmd_validate(config: ExperimentConfig) -> dict:
    """Run a short swarm trajectory and check both inequalities on it:
    lemma 4 at every record, lemma 2 at ``lemma2_states`` records spread
    evenly over them, whose states alone are kept."""
    _check_out_dir(config.output_dir, "output_dir")
    spec = build_objective(config)
    graph = build_graph(config, 0)
    vcfg = config.validate
    # A fixed budget of updates: the threshold and its stop do not apply.
    run_config = build_run_config(
        config,
        derive_seed(config.master_seed, 0, STREAM_SWARM),
        max_updates=vcfg["max_updates"],
        record_every=vcfg["record_every"],
        threshold=None,
        stop_at_threshold=False,
    )
    # The budget fixes the records: k 0, the multiples of record_every, the last update.
    record_ks = [*range(0, vcfg["max_updates"], vcfg["record_every"]), vcfg["max_updates"]]
    n_states = min(vcfg["lemma2_states"], len(record_ks))
    lemma2_ks = [record_ks[i] for i in np.linspace(0, len(record_ks) - 1, n_states).astype(int)]
    kept = dict.fromkeys(lemma2_ks)
    checks: list[dict] = []
    a = config.run["attraction"]

    def check_lemma4(ks, ts, states):
        # a copy, as a view would keep the whole stack
        kept.update((k, X.copy()) for k, X in zip(ks, states) if k in kept)
        res = metrics.lemma4_check(states, graph, spec, a)
        rows = zip(ks, res.lhs.tolist(), res.rhs.tolist(), res.holds.tolist())
        checks.extend(
            {"check": "lemma4", "k": k, "lhs": lhs, "rhs": rhs, "holds": holds}
            for k, lhs, rhs, holds in rows
        )

    engine.run_swarm(run_config, graph, spec, on_record=check_lemma4)
    rng = make_rng(derive_seed(config.master_seed, 0, STREAM_VALIDATE))
    for k in lemma2_ks:
        result = metrics.lemma2_monte_carlo_check(
            kept[k], graph, spec, config.run["step_size"], a,
            vcfg["lemma2_replications"], rng, sigma_samples=vcfg["sigma_samples"],
        )
        checks.append({"check": "lemma2", "k": k, **asdict(result)})

    report = {"checks": checks}
    for lemma in ("lemma4", "lemma2"):
        holds = [c["holds"] for c in checks if c["check"] == lemma]
        report[f"{lemma}_checks"] = len(holds)
        report[f"{lemma}_violations"] = holds.count(False)
        report[f"{lemma}_pass_rate"] = holds.count(True) / len(holds) if holds else None
    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(report, os.path.join(config.output_dir, "validation.json"))
    return report


_SWEEP_HEADER = "family,gamma,a,N,lambda2,d_bar,admissible,omega,rate,bound"


def cmd_sweep(params_path: str, out_dir: str) -> str:
    """Evaluate all bound families over a parameter grid, long CSV."""
    _check_out_dir(out_dir, "--out")
    params = _fields(_load_json(params_path), _SCHEMA["sweep"], "sweep parameters")
    inputs, grid = params["base"], params["grid"]
    if inputs["G0"] is None:
        inputs["G0"] = inputs["U0"]
    inputs["D"] = None  # the convex family derives D from gamma
    fixed_d_bar = inputs["d_bar"]

    lines = [_SWEEP_HEADER]
    for N in grid["N"]:
        if fixed_d_bar is None and N < 2:
            raise ConfigError(f"grid.N must be at least 2 where base.d_bar is null, got {N}")
        d_bar = float(N - 1) if fixed_d_bar is None else fixed_d_bar
        inputs["N"], inputs["d_bar"] = N, d_bar
        lambda2s = [float(N)] if grid["lambda2"] is None else grid["lambda2"]
        for gamma, a, lambda2 in product(grid["gamma"], grid["a"], lambda2s):
            inputs["gamma"], inputs["a"], inputs["lambda2"] = gamma, a, lambda2
            point = f"{gamma!r},{a!r},{N},{lambda2!r},{d_bar!r}"
            for family, (_, columns) in _BOUND_FAMILIES.items():
                result = _evaluate(family, inputs)
                if isinstance(result, theory.InadmissibleParametersError):
                    lines.append(f"{family},{point},0,nan,nan,nan")
                    continue
                omega, rate, bound = [getattr(result, f) if f else math.nan for f in columns]
                lines.append(f"{family},{point},{result.admissible:d},{omega!r},{rate!r},{bound!r}")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "sweep.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return out_path


def _write_json(data: dict, path: str) -> None:
    """Write ``data`` as strict JSON; a non-finite float raises before the
    file is opened."""
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
        # The bound calculators draw nothing; validate runs one trajectory.
        if name in ("simulate", "compare"):
            p.add_argument("--jobs", type=int, default=1, help="parallel replications")
        if name not in ("bounds", "sweep"):
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
            kind, _, range_ = _SCHEMA["config"]["master_seed"]
            config = replace(config, master_seed=_convert(args.seed, kind, "--seed", range_))
        if args.out is not None:
            config = replace(config, output_dir=args.out)

        if args.command == "validate":
            report = cmd_validate(config)
            print(
                f"lemma4 {report['lemma4_checks'] - report['lemma4_violations']}"
                f"/{report['lemma4_checks']} pass, "
                f"lemma2 {report['lemma2_checks'] - report['lemma2_violations']}"
                f"/{report['lemma2_checks']} pass"
            )
            return 1 if report["lemma4_violations"] or report["lemma2_violations"] else 0
        if args.command == "simulate":
            report = cmd_simulate(config, jobs=args.jobs)
            print(
                f"{report['replications']} runs, {report['n_hit']} crossed, "
                f"outputs in {config.output_dir}"
            )
            return 0
        report = cmd_compare(config, jobs=args.jobs)
        ratio = "n/a" if report["ratio"] is None else f"{report['ratio']:.3f}"
        print(
            f"T_s_mean={report['T_s_mean']} T_c_mean={report['T_c_mean']} "
            f"ratio={ratio} predicted={report['predicted_ratio']:.3f} "
            f"excluded={len(report['excluded'])}"
        )
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
