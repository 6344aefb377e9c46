import functools
import json
import math
import operator
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from swarmsgd import cli, engine, metrics
from swarmsgd import objective as obj
from swarmsgd import topology
from swarmsgd.engine import (
    SCHEME_CENTRALIZED,
    SCHEME_GLOBAL_TICK,
    SCHEME_SWARM,
    SCHEMES,
    TRACE_CSV_HEADER,
    EngineInvariantError,
    RunConfig,
    run_centralized,
    run_swarm,
    run_swarm_global_tick,
    write_trace_csv,
)
from swarmsgd.randomness import make_rng


def _spec(dim=3):
    return obj.ridge_spec(0.1, np.linspace(0.2, 0.8, dim))


def _swarm_config(**overrides):
    base = dict(
        n_threads=5,
        step_size=0.01,
        attraction=1.0,
        mean_sample_time=0.02,
        seed=7,
        max_updates=400,
        record_every=100,
    )
    base.update(overrides)
    return RunConfig(**base)


def test_config_requires_exactly_one_horizon():
    with pytest.raises(ValueError):
        _swarm_config(max_updates=None, max_virtual_time=None)
    with pytest.raises(ValueError):
        _swarm_config(max_updates=100, max_virtual_time=1.0)
    _swarm_config(max_updates=None, max_virtual_time=1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        _swarm_config(step_size=0.0)
    with pytest.raises(ValueError):
        _swarm_config(mean_sample_time=-1.0)
    with pytest.raises(ValueError):
        _swarm_config(attraction=-0.5)
    with pytest.raises(ValueError):
        _swarm_config(record_every=0)
    with pytest.raises(ValueError):
        _swarm_config(threshold=0.0)
    with pytest.raises(ValueError):
        _swarm_config(stop_at_threshold=True)  # needs a threshold
    with pytest.raises(ValueError):
        _swarm_config(capture_mean_at=(-1,))
    with pytest.raises(ValueError, match="n_threads"):
        _swarm_config(n_threads=0)
    with pytest.raises(ValueError, match="max_updates"):
        _swarm_config(max_updates=0)
    with pytest.raises(ValueError, match="max_virtual_time"):
        _swarm_config(max_updates=None, max_virtual_time=-1.0)
    # counts are integers: 2.5 updates would run 3, a record every 2.5
    # would land on 5 and 10, and a capture at 2.5 would never be taken
    for field, value in [
        ("n_threads", 5.0), ("n_threads", True), ("max_updates", 2.5), ("max_updates", False),
        ("record_every", 2.5), ("record_every", True), ("capture_mean_at", (2.5,)),
        ("capture_mean_at", (1, True)),
    ]:
        with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
            _swarm_config(**{field: value})
    _swarm_config(
        max_updates=np.int64(10), record_every=np.int32(3), capture_mean_at=(np.int64(2),)
    )
    # the kernel holds the record step and the capture indices in an int64
    for field, value in [
        ("record_every", 2**64), ("record_every", 2**64 + 5), ("record_every", 2**63),
        ("capture_mean_at", (2**64,)), ("capture_mean_at", (0, 2**63)),
    ]:
        with pytest.raises(ValueError, match=f"{field}.* must be an integer from"):
            _swarm_config(**{field: value})
    _swarm_config(record_every=2**63 - 1, capture_mean_at=(2**63 - 1,))
    # the global tick's mean gap mean_sample_time / n_threads underflows to 0
    with pytest.raises(ValueError, match="mean_sample_time"):
        _swarm_config(n_threads=2, mean_sample_time=5e-324)
    _swarm_config(n_threads=2, mean_sample_time=1e-323)
    # the seed is an integer too; make_rng masks a negative one
    for seed in (1.5, None, "3", True):
        with pytest.raises(ValueError, match="seed"):
            _swarm_config(seed=seed)
    _swarm_config(seed=-1)


@pytest.mark.parametrize("runner", [run_swarm, run_swarm_global_tick])
def test_the_int64_top_record_step_and_capture_reach_the_kernel_whole(runner, arithmetic):
    # A record step of 2**63 - 1 records the start and the end, and a
    # capture there is never taken, on the kernel as on the twin.
    config = _swarm_config(max_updates=10, record_every=2**63 - 1, capture_mean_at=(2**63 - 1,))
    trace = runner(config, topology.path_graph(5), _spec())
    assert [r.k for r in trace.records] == [0, 10] and trace.captured_means == {}


def test_swarm_run_needs_two_threads():
    with pytest.raises(ValueError, match="n_threads must be an integer from 2 to 4096, got 1"):
        run_swarm(_swarm_config(n_threads=1), topology.complete_graph(2), _spec())


def test_event_before_the_clock_is_an_invariant_error(monkeypatch):
    def backwards(n_threads, mean_time, rng):
        yield [0.5, 0.2], [0, 1]

    monkeypatch.setattr(engine, "_event_schedule", backwards)
    with pytest.raises(EngineInvariantError, match="before the current clock"):
        run_swarm(_swarm_config(), topology.complete_graph(5), _spec())


@pytest.mark.parametrize(
    "field", ["step_size", "attraction", "mean_sample_time", "max_virtual_time", "threshold"]
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_parameters(field, value):
    overrides = {field: value}
    if field == "max_virtual_time":
        overrides["max_updates"] = None
    with pytest.raises(ValueError, match=field):
        _swarm_config(**overrides)


def test_swarm_deterministic_and_csv_round_trip(tmp_path):
    spec = _spec()
    graph = topology.complete_graph(5)
    t1 = run_swarm(_swarm_config(), graph, spec)
    t2 = run_swarm(_swarm_config(), graph, spec)
    assert t1.records == t2.records
    assert t1.summary == t2.summary or (
        # wall_time is the only field allowed to differ between reruns
        t1.summary.__class__ == t2.summary.__class__
        and all(
            getattr(t1.summary, f) == getattr(t2.summary, f)
            for f in t1.summary.__dataclass_fields__
            if f != "wall_time"
        )
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(t1, str(p1))
    write_trace_csv(t2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    header, *rows = p1.read_text().splitlines()
    assert header == "k,t,U,Vbar,f_gap,grad_norm_sq"
    # every value reads back to the same float
    assert [[float(v) for v in row.split(",")] for row in rows] == [
        [r.k, r.t, r.U, r.Vbar, r.f_gap, r.grad_norm_sq] for r in t1.records
    ]
    assert TRACE_CSV_HEADER == "k,t,U,Vbar,f_gap,grad_norm_sq"


def test_swarm_sample_accounting_and_counts():
    spec = _spec()
    graph = topology.complete_graph(5)
    trace = run_swarm(_swarm_config(max_updates=321), graph, spec)
    assert trace.summary.n_updates == 321
    assert trace.summary.n_samples == 321
    counts = trace.summary.per_thread_update_counts
    assert counts is not None and sum(counts) == 321


def test_swarm_time_horizon():
    spec = _spec()
    graph = topology.complete_graph(5)
    trace = run_swarm(
        _swarm_config(max_updates=None, max_virtual_time=0.5), graph, spec
    )
    assert trace.summary.virtual_time <= 0.5
    assert trace.summary.n_updates == trace.summary.n_samples > 0


def test_records_monotone_clock_and_decimation():
    spec = _spec()
    graph = topology.complete_graph(5)
    trace = run_swarm(_swarm_config(max_updates=450, record_every=100), graph, spec)
    ks = [r.k for r in trace.records]
    ts = [r.t for r in trace.records]
    assert ks == [0, 100, 200, 300, 400, 450]
    assert all(b >= a for a, b in zip(ts, ts[1:]))


def test_threshold_crossing_stops_run():
    spec = _spec()
    graph = topology.complete_graph(6)
    config = _swarm_config(
        n_threads=6,
        max_updates=100_000,
        threshold=0.05,
        stop_at_threshold=True,
        record_every=1000,
    )
    trace = run_swarm(config, graph, spec)
    s = trace.summary
    assert s.T_hit is not None and s.hit_update is not None
    assert s.n_updates == s.hit_update < 100_000
    crossing = [r for r in trace.records if r.k == s.hit_update]
    assert crossing and crossing[-1].U <= 0.05
    # first crossing only: every earlier record sits above the threshold
    assert all(r.U > 0.05 for r in trace.records if r.k < s.hit_update)


def test_threshold_without_stop_runs_to_horizon():
    spec = _spec()
    graph = topology.complete_graph(6)
    config = _swarm_config(
        n_threads=6, max_updates=30_000, threshold=0.05, record_every=5000
    )
    trace = run_swarm(config, graph, spec)
    assert trace.summary.T_hit is not None
    assert trace.summary.n_updates == 30_000


def test_zero_noise_zero_attraction_is_per_thread_gradient_descent():
    # With a = 0 and a noiseless oracle each thread runs plain gradient
    # descent from its own start; for the scalar quadratic the k-th
    # iterate is x0 (1 - gamma q)^k.
    q, gamma = 1.5, 0.1
    spec = obj.quadratic_spec(np.array([[q]]), np.array([0.0]), noise_std=0.0)
    graph = topology.complete_graph(4)
    init = np.array([[1.0], [2.0], [-1.0], [0.5]])
    config = _swarm_config(n_threads=4, step_size=gamma, attraction=0.0, max_updates=200)
    seen = {}

    def keep(ks, ts, states):
        seen.update(zip(ks, states))

    trace = run_swarm(config, graph, spec, init=init, on_record=keep)
    final = seen[trace.summary.n_updates]
    counts = trace.summary.per_thread_update_counts
    for i in range(4):
        expected = init[i, 0] * (1.0 - gamma * q) ** counts[i]
        assert final[i, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scheme", [SCHEME_SWARM, SCHEME_CENTRALIZED])
def test_quadratic_optimum_is_solved_once_per_run(monkeypatch, scheme):
    # One elimination gives the optimum and, through it, the optimal value.
    calls = []
    real = obj._solve_spd

    def counting(Q, r):
        calls.append(len(r))
        return real(Q, r)

    monkeypatch.setattr(obj, "_solve_spd", counting)
    spec = obj.quadratic_spec(np.diag([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.2]))
    config = _swarm_config(max_updates=50, record_every=1)
    final = {}

    def keep(ks, ts, states):
        final["X"] = states[-1]

    if scheme == SCHEME_SWARM:
        trace = run_swarm(config, topology.complete_graph(5), spec, on_record=keep)
    else:
        trace = run_centralized(config, spec, on_record=keep)
    assert len(trace.records) == 51
    assert calls == [3]
    # the value at that optimum gives the bits of obj.optimal_value
    monkeypatch.undo()
    snap = metrics.snapshot(final["X"][None], spec, obj.optimum(spec), obj.optimal_value(spec))
    assert trace.records[-1].f_gap == snap.f_gap[0]


def test_capture_mean_at():
    spec = _spec()
    graph = topology.complete_graph(5)
    config = _swarm_config(max_updates=50, capture_mean_at=(0, 10, 49, 1000))
    trace = run_swarm(config, graph, spec)
    assert set(trace.captured_means) == {0, 10, 49}
    assert np.allclose(trace.captured_means[0], np.zeros(3))


def test_swarm_init_shape_and_graph_size_guards():
    spec = _spec()
    graph = topology.complete_graph(5)
    with pytest.raises(ValueError):
        run_swarm(_swarm_config(), graph, spec, init=np.zeros((4, 3)))
    with pytest.raises(ValueError):
        run_swarm(_swarm_config(n_threads=6), graph, spec)  # graph size mismatch
    # a non-finite start is bad input, not a divergence
    bad = np.zeros((5, 3))
    bad[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_swarm(_swarm_config(), graph, spec, init=bad)
    with pytest.raises(ValueError, match="non-finite"):
        run_swarm_global_tick(_swarm_config(), graph, spec, init=bad)
    with pytest.raises(ValueError, match="non-finite"):
        run_centralized(_swarm_config(), spec, init=np.array([0.0, np.inf, 0.0]))


def test_global_tick_deterministic():
    spec = _spec()
    graph = topology.complete_graph(5)
    config = _swarm_config(max_updates=500)
    t1 = run_swarm_global_tick(config, graph, spec)
    t2 = run_swarm_global_tick(config, graph, spec)
    assert t1.records == t2.records
    assert sum(t1.summary.per_thread_update_counts) == 500
    assert t1.summary.n_samples == 500


def test_centralized_accounting_and_state():
    spec = _spec()
    config = _swarm_config(attraction=0.0, max_updates=40)
    trace = run_centralized(config, spec)
    s = trace.summary
    assert s.n_updates == 40
    assert s.n_samples == 40 * 5
    assert s.per_thread_update_counts is None
    assert s.virtual_time > 0.0
    # dispersion of a single shared iterate is identically zero
    assert all(r.Vbar == 0.0 for r in trace.records)


def test_centralized_time_horizon_counts_only_applied_batches():
    spec = _spec()
    config = _swarm_config(attraction=0.0, max_updates=None, max_virtual_time=1.0)
    trace = run_centralized(config, spec)
    s = trace.summary
    assert s.virtual_time <= 1.0
    assert s.n_samples == 5 * s.n_updates


def test_centralized_step_duration_is_max_of_exponentials():
    # mean step duration should approach H_N * mean_sample_time
    spec = obj.quadratic_spec(np.eye(1), np.zeros(1), noise_std=0.0)
    N = 8
    config = RunConfig(
        n_threads=N,
        step_size=0.001,
        attraction=0.0,
        mean_sample_time=0.02,
        seed=3,
        max_updates=4000,
        record_every=1000,
    )
    trace = run_centralized(config, spec)
    h_n = sum(1.0 / i for i in range(1, N + 1))
    mean_step = trace.summary.virtual_time / trace.summary.n_updates
    assert mean_step == pytest.approx(h_n * 0.02, rel=0.05)


def test_schedulers_have_matching_final_error_distributions():
    spec = _spec()
    graph = topology.complete_graph(5)
    finals_event, finals_tick = [], []
    for seed in range(40):
        ce = _swarm_config(seed=1000 + seed, max_updates=400)
        ct = _swarm_config(seed=2000 + seed, max_updates=400)
        finals_event.append(run_swarm(ce, graph, spec).summary.final_U)
        finals_tick.append(run_swarm_global_tick(ct, graph, spec).summary.final_U)
    stat, p = stats.ks_2samp(finals_event, finals_tick)
    assert p > 0.01


def test_summary_json_excludes_wall_time():
    spec = _spec()
    graph = topology.complete_graph(5)
    trace = run_swarm(_swarm_config(), graph, spec)
    data = cli.summary_json_dict(trace.summary)
    assert "wall_time" not in data
    assert data["scheme"] == SCHEME_SWARM
    assert data["seed"] == 7
    again = run_swarm(_swarm_config(), graph, spec)
    text = json.dumps(data, indent=2, sort_keys=True)
    assert text == json.dumps(cli.summary_json_dict(again.summary), indent=2, sort_keys=True)
    assert json.loads(text) == data


def test_summary_nan_becomes_null():
    spec = obj.nonconvex_sine_spec(2)
    graph = topology.complete_graph(4)
    config = _swarm_config(n_threads=4, max_updates=50)
    trace = run_swarm(config, graph, spec)
    data = cli.summary_json_dict(trace.summary)
    assert data["final_U"] is None  # no optimum for this objective
    assert math.isfinite(data["final_grad_norm_sq"])


B = engine.BLOCK_ROWS
SCHEDULES = (
    (SCHEME_SWARM, run_swarm, engine._event_schedule),
    (SCHEME_GLOBAL_TICK, run_swarm_global_tick, engine._tick_schedule),
)


def _kind_specs():
    rng = make_rng(5)
    M = rng.normal(size=(3, 3))
    return (
        _spec(),
        obj.quadratic_spec(M @ M.T + np.eye(3), rng.normal(size=3), noise_std=0.5),
        obj.nonconvex_sine_spec(3, noise_std=0.8),
    )


def _kept_states(config, graph, spec, runner, init=None):
    seen = {}

    def keep(ks, ts, states):
        seen.update(zip(ks, states))

    trace = runner(config, graph, spec, init=init, on_record=keep)
    return trace, seen


@pytest.mark.parametrize("scheme,runner,_", SCHEDULES)
@pytest.mark.parametrize("kind", range(3))
def test_swarm_reruns_are_identical_for_every_kind(scheme, runner, _, kind):
    spec = _kind_specs()[kind]
    graph = topology.path_graph(5)
    config = _swarm_config(max_updates=B + 40, record_every=7)
    t1, s1 = _kept_states(config, graph, spec, runner)
    t2, s2 = _kept_states(config, graph, spec, runner)
    assert t1.records == t2.records
    assert t1.summary.per_thread_update_counts == t2.summary.per_thread_update_counts
    assert all(np.array_equal(s1[k], s2[k]) for k in s1)


@pytest.mark.parametrize("scheme,runner,_", SCHEDULES)
@pytest.mark.parametrize("budget", [B - 1, B, B + 1])
def test_shorter_budget_is_a_prefix_across_block_boundaries(scheme, runner, _, budget):
    spec = _spec()
    graph = topology.erdos_renyi_connected(5, 0.6, make_rng(9))
    short = _swarm_config(max_updates=budget, record_every=1)
    long = _swarm_config(max_updates=budget + 37, record_every=1)
    t_short, s_short = _kept_states(short, graph, spec, runner)
    t_long, s_long = _kept_states(long, graph, spec, runner)
    assert len(t_short.records) == budget + 1
    assert t_short.records == t_long.records[: budget + 1]
    assert all(np.array_equal(s_short[k], s_long[k]) for k in s_short)
    assert t_short.summary.virtual_time == t_long.records[budget].t


@pytest.mark.parametrize("scheme,runner,_", SCHEDULES)
def test_shorter_time_horizon_is_a_prefix(scheme, runner, _):
    spec = _spec()
    graph = topology.complete_graph(5)
    short = _swarm_config(max_updates=None, max_virtual_time=1.3, record_every=1)
    long = _swarm_config(max_updates=None, max_virtual_time=2.1, record_every=1)
    t_short = runner(short, graph, spec)
    t_long = runner(long, graph, spec)
    n = t_short.summary.n_updates
    assert n > B
    assert t_short.records == t_long.records[: n + 1]
    assert t_long.records[n + 1].t > 1.3


@pytest.mark.parametrize("scheme,runner,_", SCHEDULES)
def test_zero_noise_sine_is_per_thread_gradient_descent(scheme, runner, _):
    # a = 0 and a noiseless oracle: each thread iterates
    # x <- x - gamma (x + 3 sin 2x) from its own start.
    gamma = 0.05
    spec = obj.nonconvex_sine_spec(1, noise_std=0.0)
    graph = topology.complete_graph(4)
    init = np.array([[1.0], [2.0], [-1.0], [0.5]])
    config = _swarm_config(n_threads=4, step_size=gamma, attraction=0.0, max_updates=300)
    trace, seen = _kept_states(config, graph, spec, runner, init=init)
    final = seen[trace.summary.n_updates]
    for i, count in enumerate(trace.summary.per_thread_update_counts):
        x = init[i, 0]
        for _ in range(count):
            x = x - gamma * (x + 3.0 * math.sin(2.0 * x))
        assert final[i, 0] == pytest.approx(x, rel=1e-12, abs=1e-15)


def _reference_states(config, graph, spec, schedule, init):
    """Unfused update loop on the engine's streams: the oracle sample
    and the attraction sum are evaluated term by term."""
    rng = make_rng(config.seed)
    X = np.array(init, dtype=float)
    blocks = schedule(config.n_threads, config.mean_sample_time, rng)
    states = [X.copy()]
    while len(states) <= config.max_updates:
        _, threads = next(blocks)
        U, c = obj.draw_noise_block(spec, B, rng)
        for j, i in enumerate(threads[: config.max_updates + 1 - len(states)]):
            x = X[i]
            if spec.kind == obj.RIDGE:
                g = 2.0 * (U[j] @ x - c[j]) * U[j] + 2.0 * spec.rho * x
            else:
                g = obj.grad_exact(spec, x) + c[j]
            pull = (x - X[np.flatnonzero(graph.adjacency[i])]).sum(axis=0)
            X[i] = x - config.step_size * (g + config.attraction * pull)
            states.append(X.copy())
    return states


@pytest.mark.parametrize("scheme,runner,schedule", SCHEDULES)
@pytest.mark.parametrize("kind", range(3))
@pytest.mark.parametrize("graph_kind", ["complete", "star"])
def test_fused_update_matches_reference_loop(scheme, runner, schedule, kind, graph_kind):
    spec = _kind_specs()[kind]
    n = 6
    graph = topology.complete_graph(n) if graph_kind == "complete" else topology.star_graph(n)
    init = make_rng(11).normal(size=(n, spec.dim))
    config = _swarm_config(n_threads=n, attraction=0.7, max_updates=2 * B + 9, record_every=1)
    _, seen = _kept_states(config, graph, spec, runner, init=init)
    reference = _reference_states(config, graph, spec, schedule, init)
    assert len(seen) == len(reference)
    # Folding the terms linear in x_i reorders a handful of float64
    # operations per update; drift stays within a few hundred ulps.
    for k, expected in enumerate(reference):
        np.testing.assert_allclose(seen[k], expected, rtol=1e-10, atol=1e-12)


S_CENTRAL = engine.BATCH_SAMPLES // 6


def _central_config(**overrides):
    return _swarm_config(n_threads=6, **overrides)


def _kept_central_states(config, spec, init=None):
    seen = {}

    def keep(ks, ts, states):
        seen.update(zip(ks, states[:, 0]))

    trace = run_centralized(config, spec, init=init, on_record=keep)
    return trace, seen


def _central_reference_states(config, spec, init):
    """Centralized steps on the engine's streams, each the plain mean of
    its N sample gradients evaluated one by one."""
    rng = make_rng(config.seed)
    N = config.n_threads
    x = np.array(init, dtype=float)
    blocks = engine._batch_schedule(N, config.mean_sample_time, rng)
    states = [x.copy()]
    while len(states) <= config.max_updates:
        times, _ = next(blocks)
        U, c = obj.draw_noise_block(spec, len(times) * N, rng)
        for s in range(min(len(times), config.max_updates + 1 - len(states))):
            samples = []
            for m in range(s * N, (s + 1) * N):
                if spec.kind == obj.RIDGE:
                    samples.append(2.0 * (U[m] @ x - c[m]) * U[m] + 2.0 * spec.rho * x)
                else:
                    samples.append(obj.grad_exact(spec, x) + c[m])
            x = x - config.step_size * np.mean(samples, axis=0)
            states.append(x.copy())
    return states


@pytest.mark.parametrize("kind", range(3))
def test_centralized_matches_reference_loop(kind):
    spec = _kind_specs()[kind]
    init = make_rng(13).normal(size=spec.dim)
    config = _central_config(attraction=0.7, max_updates=2 * S_CENTRAL + 9, record_every=1)
    _, seen = _kept_central_states(config, spec, init=init)
    reference = _central_reference_states(config, spec, init)
    assert len(seen) == len(reference)
    for k, expected in enumerate(reference):
        np.testing.assert_allclose(seen[k], expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("budget", [S_CENTRAL - 1, S_CENTRAL, S_CENTRAL + 1])
def test_centralized_shorter_budget_is_a_prefix(budget):
    spec = _spec()
    short = _central_config(max_updates=budget, record_every=1)
    long = _central_config(max_updates=budget + 37, record_every=1)
    t_short, s_short = _kept_central_states(short, spec)
    t_long, s_long = _kept_central_states(long, spec)
    assert len(t_short.records) == budget + 1
    assert t_short.records == t_long.records[: budget + 1]
    assert all(np.array_equal(s_short[k], s_long[k]) for k in s_short)
    assert t_short.summary.n_samples == 6 * budget


def test_centralized_shorter_time_horizon_is_a_prefix():
    spec = _spec()
    # 40 threads: blocks of 25 steps, each about H_40 * 0.02 = 0.086 long
    short = _swarm_config(n_threads=40, max_updates=None, max_virtual_time=3.0, record_every=1)
    long = replace(short, max_virtual_time=4.5)
    t_short = run_centralized(short, spec)
    t_long = run_centralized(long, spec)
    n = t_short.summary.n_updates
    assert n > engine.BATCH_SAMPLES // 40
    assert t_short.records == t_long.records[: n + 1]
    assert t_long.records[n + 1].t > 3.0
    assert t_short.summary.n_samples == 40 * n


def _diverging(**overrides):
    base = dict(n_threads=4, step_size=50.0, max_updates=2000, record_every=1)
    return _swarm_config(**{**base, **overrides})


RUNNERS = {
    SCHEME_SWARM: lambda c, s: run_swarm(c, topology.complete_graph(4), s),
    SCHEME_GLOBAL_TICK: lambda c, s: run_swarm_global_tick(c, topology.complete_graph(4), s),
    SCHEME_CENTRALIZED: run_centralized,
}


def test_one_config_drives_every_scheme():
    # the function called picks the scheme, and the summary names it
    config = _swarm_config(n_threads=4, max_updates=50)
    for scheme, run in RUNNERS.items():
        summary = run(config, _spec()).summary
        assert summary.scheme == scheme and summary.n_updates == 50


@pytest.mark.parametrize("scheme", SCHEMES)
def test_diverging_run_raises_at_first_non_finite_record(scheme):
    spec = _spec()
    with pytest.raises(engine.DivergenceError) as info:
        RUNNERS[scheme](_diverging(), spec)
    err = info.value
    assert err.scheme == scheme and 0 < err.k < 2000 and math.isfinite(err.t)
    assert f"update {err.k}" in str(err) and scheme in str(err)
    # every earlier record is finite: the run stopped just before is whole
    before = RUNNERS[scheme](_diverging(max_updates=err.k - 1), spec)
    assert math.isfinite(before.summary.final_grad_norm_sq)
    # the error survives the trip to and from a worker process
    back = pickle.loads(pickle.dumps(err))
    assert (back.scheme, back.k, back.t, str(back)) == (err.scheme, err.k, err.t, str(err))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_divergence_in_a_record_dense_block_hands_over_only_the_records_before_it(scheme):
    # record_every=1 makes every update of the block a record point, and the
    # block's records are evaluated together after its updates
    spec = _spec()
    graph = topology.complete_graph(4)

    def run(config):
        seen = []

        def keep(ks, ts, states):
            seen.extend(zip(ks, ts, states))

        try:
            if scheme == SCHEME_CENTRALIZED:
                run_centralized(config, spec, on_record=keep)
            elif scheme == SCHEME_SWARM:
                run_swarm(config, graph, spec, on_record=keep)
            else:
                run_swarm_global_tick(config, graph, spec, on_record=keep)
        except engine.DivergenceError as exc:
            return seen, exc
        return seen, None

    seen, err = run(_diverging())
    assert err is not None and err.k % B not in (0, 1)
    # on_record saw exactly the records before the diverging one, in k order
    assert [k for k, _, _ in seen] == list(range(err.k))
    assert all(t < err.t for _, t, _ in seen)
    snap = metrics.snapshot(np.stack([p for _, _, p in seen]), spec, obj.optimum(spec), 0.0)
    assert np.isfinite(snap.Vbar).all() and np.isfinite(snap.grad_norm_sq).all()
    # the same states as a run that stops just before, which ends normally
    before, none = run(_diverging(max_updates=err.k - 1))
    assert none is None and len(before) == len(seen)
    for (k, t, p), (k2, t2, p2) in zip(before, seen):
        assert (k, t) == (k2, t2) and np.array_equal(p, p2)
    # and a run that stops at err.k diverges at its final record
    _, again = run(_diverging(max_updates=err.k))
    assert (again.k, again.t) == (err.k, err.t)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_divergence_between_records_is_caught_at_the_block_end(scheme):
    # with 4 threads a block is BLOCK_ROWS updates or BATCH_SAMPLES // 4 steps
    assert engine.BATCH_SAMPLES // 4 == B
    with pytest.raises(engine.DivergenceError) as info:
        RUNNERS[scheme](_diverging(record_every=10_000), _spec())
    assert info.value.scheme == scheme and info.value.k == B and math.isfinite(info.value.t)


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_crossing_on_a_record_is_recorded_once(scheme, stop):
    config = _swarm_config(
        n_threads=4, max_updates=3000, record_every=1, threshold=0.05,
        stop_at_threshold=stop,
    )
    trace = RUNNERS[scheme](config, _spec())
    hit = trace.summary.hit_update
    assert hit is not None
    ks = [r.k for r in trace.records]
    # one record per update, the crossing and the final state included
    assert ks == list(range(trace.summary.n_updates + 1))
    assert trace.summary.n_updates == (hit if stop else 3000)
    assert trace.records[hit].U <= 0.05 < trace.records[hit - 1].U


def test_tick_gaps_redraw_a_zero(zero_first_exponential):
    rng = zero_first_exponential(4)
    times, threads = next(engine._tick_schedule(3, 0.02, rng))
    assert rng.exponential_calls == 2
    assert times[0] > 0.0 and all(b > a for a, b in zip(times, times[1:]))
    assert len(times) == len(threads) == engine.BLOCK_ROWS


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_sine_crossing_watches_the_gradient_norm_of_the_mean(scheme, stop):
    # With no closed-form optimum the threshold is on |grad f(mean)|^2.
    spec = obj.nonconvex_sine_spec(2, noise_std=0.1)
    assert obj.optimum(spec) is None
    threshold = 0.01
    config = _swarm_config(
        n_threads=4, step_size=0.02, max_updates=3000, record_every=1, threshold=threshold,
        stop_at_threshold=stop,
    )
    graph = topology.complete_graph(4)
    if scheme == SCHEME_CENTRALIZED:
        trace = run_centralized(config, spec, init=np.full(2, 0.5))
    else:
        runner = run_swarm if scheme == SCHEME_SWARM else run_swarm_global_tick
        trace = runner(config, graph, spec, init=np.full((4, 2), 0.5))
    s = trace.summary
    assert s.hit_update is not None and s.T_hit == trace.records[s.hit_update].t
    assert s.n_updates == (s.hit_update if stop else 3000)
    grads = [r.grad_norm_sq for r in trace.records]
    # the records take the mean as X.mean, the watch as sum / N
    assert grads[s.hit_update] <= threshold * (1.0 + 1e-9)
    assert min(grads[: s.hit_update]) > threshold * (1.0 - 1e-9)
    assert all(math.isnan(r.U) for r in trace.records)


# The monitors run once per block. Four threads put the block edge at B
# for every scheme, and each kind gets a threshold that every run below
# crosses strictly inside a block (the swarms in their second).
MONITORED = [
    (run_swarm, "path"),
    (run_swarm, "complete"),
    (run_swarm_global_tick, "path"),
    (run_swarm_global_tick, "complete"),
    (run_centralized, None),
]
SWARM_THRESHOLDS = (1.2, 2.5, 0.3)
CENTRAL_THRESHOLDS = (0.03, 0.03, 0.003)


def _monitored_run(runner, graph_kind, kind, **overrides):
    """A 3B-update run from 1.5 that captures the means at B - 1, B and
    B + 1; returns the trace and every (k, t, positions) on_record was
    handed."""
    assert engine.BATCH_SAMPLES // 4 == B
    spec = _kind_specs()[kind]
    thresholds = CENTRAL_THRESHOLDS if graph_kind is None else SWARM_THRESHOLDS
    config = _swarm_config(**{
        "n_threads": 4, "max_updates": 3 * B, "threshold": thresholds[kind],
        "capture_mean_at": (B - 1, B, B + 1), **overrides,
    })
    seen = []

    def keep(ks, ts, states):
        seen.extend(zip(ks, ts, states))

    init = np.full((4, spec.dim), 1.5)
    if graph_kind is None:
        trace = runner(config, spec, init=init[0], on_record=keep)
    else:
        graph = getattr(topology, f"{graph_kind}_graph")(4)
        trace = runner(config, graph, spec, init=init, on_record=keep)
    return trace, seen


@pytest.mark.parametrize("stop", [False, True])
@pytest.mark.parametrize("runner,graph_kind", MONITORED)
@pytest.mark.parametrize("kind", range(3))
def test_block_monitors_do_not_depend_on_record_every(runner, graph_kind, kind, stop):
    outcomes = []
    for record_every in (1, 7, B, 10**6):
        trace, _ = _monitored_run(
            runner, graph_kind, kind, record_every=record_every, stop_at_threshold=stop
        )
        s = trace.summary
        captured = {k: v.tobytes() for k, v in trace.captured_means.items()}
        outcomes.append((s.hit_update, s.T_hit, s.per_thread_update_counts, captured))
    assert outcomes[0][0] is not None
    if not stop:
        assert sorted(outcomes[0][3]) == [B - 1, B, B + 1]
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


@pytest.mark.parametrize("runner,graph_kind", MONITORED)
@pytest.mark.parametrize("kind", range(3))
def test_stopping_at_a_crossing_inside_a_block_is_a_prefix(runner, graph_kind, kind):
    full, full_seen = _monitored_run(runner, graph_kind, kind, record_every=7)
    stopped, stopped_seen = _monitored_run(
        runner, graph_kind, kind, record_every=7, stop_at_threshold=True
    )
    hit = stopped.summary.hit_update
    assert hit == full.summary.hit_update and hit % B and hit % 7
    assert stopped.summary.n_updates == hit
    assert stopped.records == [r for r in full.records if r.k <= hit]
    for seen in (full_seen, stopped_seen):
        ks = [k for k, _, _ in seen]
        assert all(a < b for a, b in zip(ks, ks[1:]))
    prefix = [state for state in full_seen if state[0] <= hit]
    assert len(prefix) == len(stopped_seen) and stopped_seen[-1][0] == hit
    for (k1, t1, x1), (k2, t2, x2) in zip(prefix, stopped_seen):
        assert (k1, t1) == (k2, t2) and np.array_equal(x1, x2)
    # A run cut at the crossing by its budget moves the same rows to the
    # same state the stopped run ends in.
    cut, cut_seen = _monitored_run(runner, graph_kind, kind, max_updates=hit, threshold=None)
    assert stopped.summary.per_thread_update_counts == cut.summary.per_thread_update_counts
    assert stopped.summary.virtual_time == cut.summary.virtual_time == stopped.summary.T_hit
    assert stopped.records[-1] == cut.records[-1]
    assert cut_seen[-1][0] == hit and np.array_equal(stopped_seen[-1][2], cut_seen[-1][2])


@pytest.mark.parametrize("runner,graph_kind", MONITORED)
@pytest.mark.parametrize("kind", range(3))
def test_crossing_is_the_first_update_passing_the_per_update_test(runner, graph_kind, kind):
    # The watch tests a whole block at once, yet its crossing is the first
    # update whose own e.dot(e) passes: the stacked matmul must round each
    # row as dot does.
    trace, _ = _monitored_run(
        runner, graph_kind, kind, capture_mean_at=tuple(range(3 * B)), stop_at_threshold=False
    )
    spec = _kind_specs()[kind]
    x_star = obj.optimum(spec)
    means = [trace.captured_means[c] for c in range(1, 3 * B)]
    errs = np.array([obj.grad_exact(spec, m) if x_star is None else m - x_star for m in means])
    dots = [e.dot(e) for e in errs]
    assert np.matmul(errs[:, None, :], errs[:, :, None]).ravel().tolist() == dots
    expected = next(c for c, d in enumerate(dots, start=1) if d <= trace.summary.threshold)
    assert trace.summary.hit_update == expected


@pytest.mark.parametrize(
    "watch", [{"threshold": None}, {}, {"stop_at_threshold": True}], ids=["off", "armed", "stop"]
)
@pytest.mark.parametrize("runner,graph_kind", MONITORED)
def test_on_record_may_keep_its_positions(runner, graph_kind, watch):
    # Every record, with the threshold off, armed or stopping the run, is a
    # row of a stack handed to on_record that the engine never writes again.
    kept, copies = [], []

    def keep(ks, ts, states):
        kept.append(states)
        copies.append(states.copy())

    spec = _kind_specs()[0]
    thresholds = CENTRAL_THRESHOLDS if graph_kind is None else SWARM_THRESHOLDS
    config = _swarm_config(**{
        "n_threads": 4, "max_updates": 3 * B, "record_every": 7, "threshold": thresholds[0],
        **watch,
    })
    init = np.full((4, spec.dim), 1.5)
    if graph_kind is None:
        trace = runner(config, spec, init=init[0], on_record=keep)
    else:
        graph = getattr(topology, f"{graph_kind}_graph")(4)
        trace = runner(config, graph, spec, init=init, on_record=keep)
    assert (trace.summary.hit_update is None) == ("threshold" in watch)
    assert sum(map(len, kept)) == len(trace.records) > 2
    assert all(np.array_equal(a, b) for a, b in zip(kept, copies))


def _synthetic_run(kind, blowup=None, n_rows=5, n_updates=600):
    """A run of random deltas and threads at non-decreasing times, some
    tied, drifting from the start towards the optimum and past it;
    positions[k] is the state after k sequential ``X[i] += delta``.
    ``blowup`` "sum" makes update 300, a record point, move its thread to
    inf, so the sum overflows there; "spread" makes update 333, between
    record points, move its thread by 1e200, so the squares in the next
    record overflow while the sum stays finite."""
    spec = _kind_specs()[kind]
    rng = np.random.default_rng(kind)
    start, target = (1.0, np.zeros(3)) if kind == 2 else (0.0, obj.optimum(spec))
    drift = n_rows * 1.5 * (target - start) / n_updates
    deltas = drift + rng.normal(scale=0.01, size=(n_updates, 3))
    if blowup == "sum":
        deltas[299] = math.inf
    elif blowup == "spread":
        deltas[332, 0] = 1e200
    threads = rng.integers(n_rows, size=n_updates).tolist()
    gaps = rng.exponential(size=n_updates)
    gaps[::50] = 0.0
    times = np.cumsum(gaps).tolist()
    positions = np.empty((n_updates + 1, n_rows, 3))
    X = np.full((n_rows, 3), start)
    positions[0] = X
    with np.errstate(invalid="ignore"):
        for j, (i, delta) in enumerate(zip(threads, deltas)):
            X[i] += delta
            positions[j + 1] = X
    return spec, deltas, threads, times, positions


def _monitor_in_blocks(kind, cut, record_every, watch, horizon, blowup=None):
    """Feed one _Monitor the synthetic run cut into blocks of ``cut``
    updates, as _run_loop does: per block the states the kernel step
    records (the start, the record points, the first crossing, where a
    stopping run ends, and the run's end), their snapshot rows and the
    crossing, found by ``watched_errors`` on the sums the deltas add up
    to; the sum row and the captured means are written as the step writes
    them. Returns everything the monitor hands out, the DivergenceError's
    (k, t) for a run that diverges, and the blocks at whose end
    ``on_record`` was called."""
    spec, deltas, threads, times, positions = _synthetic_run(kind, blowup)
    K, n_rows = len(times), positions.shape[1]
    config = RunConfig(
        n_threads=n_rows, step_size=0.01, attraction=1.0, mean_sample_time=0.02, seed=0,
        record_every=record_every, capture_mean_at=(0, 1, 6, 7, 255, 256, 257, 599, K),
        threshold=None if watch == "off" else (0.3 if kind == 2 else 0.03),
        stop_at_threshold=watch == "stop", **horizon(times),
    )
    x_star, f_star, inv_n = obj.optimum(spec), obj.optimal_value(spec), 1.0 / n_rows
    seen, calls_at, block_no = [], set(), [0]

    def on_record(ks, ts, states):
        seen.extend((k, t, x.tobytes()) for k, t, x in zip(ks, ts, states))
        calls_at.add(block_no[0])

    captures = sorted(set(config.capture_mean_at))
    captured = np.empty((len(captures), 3))
    with np.errstate(over="ignore", invalid="ignore"):
        # Row k is the sum after k updates, each delta added in turn.
        sums = np.cumsum(np.concatenate((positions[:1].sum(axis=1), deltas)), axis=0)
        errors = metrics.watched_errors(spec, x_star, sums[1:] * inv_n)
    hits = [] if watch == "off" else np.flatnonzero(errors <= config.threshold).tolist()
    hit = hits[0] + 1 if hits else K + 1
    S = sums[0].copy()
    monitor = engine._Monitor(
        SCHEME_SWARM, config, S, topology.complete_graph(n_rows), on_record, x_star is not None,
        dict(zip(captures, captured)),
    )
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for block_no[0], s in enumerate(range(0, K, cut)):
                e = min(K, s + cut)
                ends, n_done = e == K, e - s
                if watch == "stop" and hit <= e:
                    ends, n_done = True, hit - s
                done = s + n_done
                ks = [0] * (s == 0) + [
                    k for k in range(s + 1, done + 1)
                    if k % record_every == 0 or k == hit or ends and k == done
                ]
                states, rows = positions[ks], np.empty((0, 4))
                if ks:
                    snap = metrics.snapshot(states, spec, x_star, f_star)
                    rows = np.column_stack((snap.U, snap.Vbar, snap.f_gap, snap.grad_norm_sq))
                for i, c in enumerate(captures):
                    if s <= c < done:
                        captured[i] = sums[c] * inv_n
                S[:] = sums[done]
                # The time horizon cuts the last block short of one more event.
                extra = [times[-1] + 1.0] if e == K and config.max_updates is None else []
                block = (
                    times[s:e] + extra, threads[s:e] + [0] * len(extra), n_done, ends,
                    hit if hit <= done else 0, ks, states, rows.tolist(),
                )
                if monitor.block(*block):
                    break
            else:
                raise AssertionError("the monitor did not end the run")
    except engine.DivergenceError as exc:
        return monitor.records, seen, ("diverged", exc.k, exc.t), None, positions, calls_at
    assert e == K or watch == "stop"
    trace = monitor.trace(1)
    summary = replace(trace.summary, wall_time=None)
    captured = {c: v.tobytes() for c, v in trace.captured_means.items()}
    return trace.records, seen, summary, captured, positions, calls_at


@pytest.mark.parametrize("blowup", [None, "sum", "spread"])
@pytest.mark.parametrize(
    "horizon",
    [lambda times: {"max_updates": len(times)},
     lambda times: {"max_virtual_time": times[-1] + 0.5}],
    ids=["budget", "time"],
)
@pytest.mark.parametrize("watch", ["off", "armed", "stop"])
@pytest.mark.parametrize("record_every", [1, 10])
@pytest.mark.parametrize("kind", [0, 2])
def test_monitor_does_not_depend_on_where_blocks_are_cut(
    kind, record_every, watch, horizon, blowup
):
    # The monitor's outputs are a function of the run alone: blocks of 1,
    # 7 and 256 updates give the same records, on_record calls, crossing,
    # captures and counts, or the same DivergenceError (k, t), so any mover
    # may feed it.
    outcomes = [
        _monitor_in_blocks(kind, cut, record_every, watch, horizon, blowup)
        for cut in (1, 7, 256)
    ]
    records, seen, summary, captured, positions, _ = outcomes[0]
    for other in outcomes[1:]:
        assert other[:4] == (records, seen, summary, captured)
    # Record points stay pending across blocks: however short the blocks,
    # on_record runs at the end of one block per BLOCK_ROWS updates, of the
    # crossing's block and of the last.
    for *_, calls_at in outcomes:
        assert len(calls_at) <= math.ceil(len(positions) / B) + 2
    # Every state handed out, the crossing's included, is the sequential one.
    assert all(x == positions[k].tobytes() for k, _, x in seen)
    ks = [k for k, _, _ in seen]
    assert ks == [r.k for r in records] and all(a < b for a, b in zip(ks, ks[1:]))
    if blowup is not None:
        # at the overflowing record point, or at the first record past the
        # spread, unless the run stopped at a crossing before
        k = {"sum": 300, "spread": 333 if record_every == 1 else 340}[blowup]
        if isinstance(summary, tuple):
            assert summary[1:] == (k, _synthetic_run(kind)[3][k - 1])
            assert ks[-1] < k
            return
        assert watch == "stop" and summary.hit_update < k
    assert (summary.hit_update is None) == (watch == "off")
    n = summary.n_updates
    assert n == (summary.hit_update if watch == "stop" else len(positions) - 1)
    assert sorted(captured) == [c for c in (0, 1, 6, 7, 255, 256, 257, 599) if c < n]
    assert sum(summary.per_thread_update_counts) == n


def _elementwise_states(config, graph, spec, schedule, init):
    """Swarm updates on the engine's streams with the elementwise
    arithmetic the engine's one gemv per update replaced: the oracle term,
    then ``x_i * coef``, then the pull, each added on its own."""
    rng = make_rng(config.seed)
    N, gamma, a = config.n_threads, config.step_size, config.attraction
    X = np.array(init, dtype=float)
    S = X.sum(axis=0)
    complete = int(graph.degrees.min()) == N - 1
    linear = {obj.RIDGE: 2.0 * (spec.rho or 0.0), obj.QUADRATIC: 0.0}.get(spec.kind, 1.0)
    coef = [-gamma * (linear + a * (N if complete else d)) for d in graph.degrees.tolist()]
    blocks = schedule(N, config.mean_sample_time, rng)
    states = [X.copy()]
    while len(states) <= config.max_updates:
        _, threads = next(blocks)
        U, c = obj.draw_noise_block(spec, B, rng)
        for j, i in enumerate(threads[: config.max_updates + 1 - len(states)]):
            x = X[i]
            if spec.kind == obj.RIDGE:
                delta = U[j] * (2.0 * gamma * c[j] - 2.0 * gamma * U[j].dot(x))
            elif spec.kind == obj.QUADRATIC:
                delta = (-gamma * spec.Q).dot(x) + (-gamma * c[j] - gamma * spec.b)
            else:
                delta = -3.0 * gamma * np.sin(2.0 * x) - gamma * c[j]
            delta += x * coef[i]
            if complete:
                delta += S * (gamma * a)
            else:
                delta += (gamma * a) * X[np.flatnonzero(graph.adjacency[i])].sum(axis=0)
            x += delta
            S += delta
            states.append(X.copy())
    return states


@pytest.mark.parametrize("attraction", [0.0, 0.7])
@pytest.mark.parametrize("graph_kind", ["complete", "erdos_renyi", "path"])
@pytest.mark.parametrize("kind", range(3))
@pytest.mark.parametrize("scheme,runner,schedule", SCHEDULES)
def test_folded_update_matches_the_elementwise_arithmetic(
    scheme, runner, schedule, kind, graph_kind, attraction
):
    # One gemv per update rounds each delta once where the elementwise
    # loop rounds each term; the two stay within a few ulps.
    spec = _kind_specs()[kind]
    n = 6
    graph = {
        "complete": topology.complete_graph(n),
        "erdos_renyi": topology.erdos_renyi_connected(n, 0.5, make_rng(3)),
        "path": topology.path_graph(n),
    }[graph_kind]
    init = make_rng(11).normal(size=(n, spec.dim))
    config = _swarm_config(n_threads=n, attraction=attraction, max_updates=B + 90, record_every=1)
    _, seen = _kept_states(config, graph, spec, runner, init=init)
    reference = _elementwise_states(config, graph, spec, schedule, init)
    assert len(seen) == len(reference)
    for k, expected in enumerate(reference):
        np.testing.assert_allclose(seen[k], expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n_threads", [1, 6, 100])
@pytest.mark.parametrize("kind", range(3))
def test_centralized_is_bitwise_the_elementwise_step(kind, n_threads, arithmetic):
    # 100 threads draw 10 steps a block, 6 threads 170 and 1 thread 1024,
    # more steps than one swarm block has updates.
    spec = _kind_specs()[kind]
    init = make_rng(13).normal(size=spec.dim)
    config = _swarm_config(n_threads=n_threads, max_updates=700, record_every=1)
    trace, seen = _kept_central_states(config, spec, init=init)
    ref = _per_update_reference(config, spec, None, engine._batch_schedule, init)
    assert [(k, seen[k].tobytes()) for k in range(len(seen))] == [
        (k, x) for k, _, x in ref["seen"]
    ]
    assert repr([tuple(vars(r).values()) for r in trace.records]) == repr(ref["records"])


def test_one_row_products_agree_bit_for_bit():
    # A (1, k) @ (k, dim) product rounds alike as a dot, a matmul and a
    # row of a stacked matmul, so a replica-batched mover may stack the
    # scalar loop's gemvs.
    rng = np.random.default_rng(23)
    for _ in range(300):
        k, dim, R = int(rng.integers(1, 13)), int(rng.choice([1, 3, 20, 100])), 5
        W = rng.normal(size=(R, k))
        Ms = rng.normal(size=(R, k, dim))
        stacked = np.matmul(W[:, None, :], Ms)[:, 0]
        for r in range(R):
            assert W[r].dot(Ms[r]).tobytes() == np.matmul(W[r], Ms[r]).tobytes()
            assert W[r].dot(Ms[r]).tobytes() == stacked[r].tobytes()


def _noiseless_specs():
    # With no noise and a diagonal Q, coordinates at +0.0 or -0.0 stay
    # zeros, so every signed-zero case of the fold meets the update.
    return (
        obj.quadratic_spec(np.diag([2.0, 0.5, 1.0]), np.zeros(3), noise_std=0.0),
        obj.nonconvex_sine_spec(3, noise_std=0.0),
    )


def _dot(u, v):
    """u . v with the products added one at a time in index order."""
    return functools.reduce(operator.add, map(operator.mul, u, v))


def _added(rows):
    """The element-wise sum of ``rows``, added one row at a time."""
    return [functools.reduce(operator.add, column) for column in zip(*rows)]


def _per_update_reference(config, spec, graph, schedule, init):
    """A run in the engine's stated per-update order, written out in Python
    floats, and a monitor that looks at each update in turn: the oracle
    term (a ridge step adds r_s u_s over its samples in turn, r_s =
    targ_s - 2 gamma / batch u_s . x; quadratic's is -gamma Q x plus the
    shift, sine's sin(2x) (-3 gamma) plus it), then coef x_i, then gamma a
    times the sum row or the neighbours' rows added in index order, each
    dot adding its products in index order. Returns what the engine hands
    out, and the watched error after every update."""
    rng = make_rng(config.seed)
    N, gamma, central = config.n_threads, config.step_size, graph is None
    rows, batch = (1, N) if central else (N, 1)
    a = 0.0 if central else config.attraction
    ga = gamma * a
    blocks = schedule(N, config.mean_sample_time, rng)
    X = np.array(init, dtype=float).reshape(rows, spec.dim)
    linear = {obj.RIDGE: 2.0 * (spec.rho or 0.0), obj.QUADRATIC: 0.0}.get(spec.kind, 1.0)
    complete = central or int(graph.degrees.min()) == N - 1
    if complete:
        coef, neighbours = [-gamma * (linear + a * rows)] * rows, None
    else:
        coef = [-gamma * (linear + a * d) for d in graph.degrees.tolist()]
        neighbours = [np.flatnonzero(graph.adjacency[i]).tolist() for i in range(N)]
    G = None if spec.kind != obj.QUADRATIC else (-gamma * spec.Q).tolist()
    S, inv_n, x_star = X.sum(axis=0), 1.0 / rows, obj.optimum(spec)
    two_gamma = 2.0 * gamma / batch
    horizon = config.max_virtual_time or math.inf
    budget = config.max_updates or math.inf
    watch = config.threshold is not None
    out = dict(captured={}, T_hit=None, hit=None, counts=[0] * rows, errs=[])
    kept, k, t, done = [(0, 0.0, X.copy())], 0, 0.0, False
    while not done:
        times, threads = next(blocks)
        n = len(times)
        U, c = obj.draw_noise_block(spec, n * batch, rng)
        if spec.kind == obj.RIDGE:
            U, targets = U.tolist(), (two_gamma * c).tolist()
        else:
            shifts = -gamma * (c if batch == 1 else c.reshape(n, N, spec.dim).mean(axis=1))
            if spec.kind == obj.QUADRATIC:
                shifts += -gamma * spec.b
            shifts = shifts.tolist()
        for j in range(n):
            if times[j] > horizon or k == budget:
                done = True
                break
            if k in config.capture_mean_at:
                out["captured"][k] = (S * inv_n).tobytes()
            i = int(threads[j])
            x = X[i].tolist()
            if spec.kind == obj.RIDGE:
                us = U[j * batch : j * batch + batch]
                r = [tg - two_gamma * _dot(u, x) for u, tg in zip(us, targets[j * batch :])]
                delta = _added([[r_s * v for v in u] for r_s, u in zip(r, us)])
            elif spec.kind == obj.QUADRATIC:
                delta = [_dot(row, x) + h for row, h in zip(G, shifts[j])]
            else:
                delta = [math.sin(v * 2.0) * (-3.0 * gamma) + h for v, h in zip(x, shifts[j])]
            delta = [d + coef[i] * v for d, v in zip(delta, x)]
            if ga:
                # S is the swarm sum the kernel's sum row keeps
                pulled = S.tolist() if complete else _added(X[neighbours[i]].tolist())
                delta = [d + ga * p for d, p in zip(delta, pulled)]
            X[i] = [v + d for v, d in zip(x, delta)]
            S += delta
            k, t = k + 1, times[j]
            out["counts"][i] += 1
            e = (S * inv_n)[None]
            e = obj.grad_exact_rows(spec, e) if x_star is None else e - x_star
            err = _dot(e[0].tolist(), e[0].tolist())
            out["errs"].append(err)
            crossed = watch and err <= config.threshold
            if crossed:
                out["T_hit"], out["hit"], watch = t, k, False
            if crossed or k % config.record_every == 0:
                kept.append((k, t, X.copy()))
            if crossed and config.stop_at_threshold:
                done = True
                break
    if kept[-1][0] != k:
        kept.append((k, t, X.copy()))
    states = np.stack([state for _, _, state in kept])
    snap = metrics.snapshot(states, spec, x_star, obj.optimal_value(spec))
    Us = [math.nan] * len(kept) if x_star is None else snap.U.tolist()
    cols = zip(kept, Us, snap.Vbar.tolist(), snap.f_gap.tolist(), snap.grad_norm_sq.tolist())
    out["records"] = [(kk, tt, U_, V, f, g) for (kk, tt, _), U_, V, f, g in cols]
    out["seen"] = [(kk, tt, s.tobytes()) for kk, tt, s in kept]
    out["k"], out["t"] = k, t
    return out


def _reference_inputs(graph_kind):
    """(threads, graph, start) of a reference case: 100 centralized
    threads, or 6 swarm threads from random rows whose first entries are
    signed zeros."""
    n = 100 if graph_kind is None else 6
    graph = {
        None: None,
        "complete": topology.complete_graph(n),
        "erdos_renyi": topology.erdos_renyi_connected(n, 0.5, make_rng(3)),
        "path": topology.path_graph(n),
    }[graph_kind]
    if graph is None:
        return n, graph, np.array([0.0, -0.0, 1.5])
    init = make_rng(11).normal(size=(n, 3))
    init[:, 0] = np.where(np.arange(n) % 2, -0.0, 0.0)
    return n, graph, init


# Every swarm scheduler on every graph kind with and without the pull, and
# the centralized step, which takes no graph.
REFERENCE_CASES = [
    (*schedule, graph_kind, a)
    for schedule in SCHEDULES
    for graph_kind in ("complete", "erdos_renyi", "path")
    for a in (0.0, 0.7)
] + [(SCHEME_CENTRALIZED, run_centralized, engine._batch_schedule, None, 0.0)]


@pytest.mark.parametrize("kind", range(5))
@pytest.mark.parametrize("scheme,runner,schedule,graph_kind,attraction", REFERENCE_CASES)
def test_block_buffer_loops_match_the_per_update_arithmetic_bit_for_bit(
    scheme, runner, schedule, graph_kind, attraction, kind, arithmetic
):
    # The kernel's block step and its numpy twin, their deltas written into
    # the block buffer, and the monitor's pending records reproduce a
    # per-update reference loop in the stated order: positions, records,
    # on_record (k, t, bytes), captures, counts and the crossing. So the
    # kernel and the twin agree bit for bit. Kinds 3 and 4 are noiseless,
    # with signed zeros in the start.
    spec = (*_kind_specs(), *_noiseless_specs())[kind]
    n, graph, init = _reference_inputs(graph_kind)
    # a budget, or a time horizon near the end of the same run
    horizons = [{"max_updates": 300 if graph is None else 400},
                {"max_virtual_time": 25.0 if graph is None else 1.2}]
    for record_every, horizon in ((1, horizons[0]), (7, horizons[1]), (100, horizons[0])):
        base = dict(
            n_threads=n, step_size=0.05 if kind == 2 else 0.02, attraction=attraction,
            mean_sample_time=0.02, seed=17 + kind, record_every=record_every,
            capture_mean_at=(0, 5, 257, 299, 400), **horizon,
        )
        errs = _per_update_reference(RunConfig(**base), spec, graph, schedule, init)["errs"]
        threshold = max(errs[len(errs) * 2 // 3], 1e-300)
        for watch in ("off", "armed", "stop"):
            config = RunConfig(
                **base, threshold=None if watch == "off" else threshold,
                stop_at_threshold=watch == "stop",
            )
            ref = _per_update_reference(config, spec, graph, schedule, init)
            seen = []

            def keep(ks, ts, states):
                seen.extend((k, t, X.tobytes()) for k, t, X in zip(ks, ts, states))

            if graph is None:
                trace = runner(config, spec, init=init, on_record=keep)
            else:
                trace = runner(config, graph, spec, init=init, on_record=keep)
            s = trace.summary
            assert seen == ref["seen"]
            assert repr([tuple(vars(r).values()) for r in trace.records]) == repr(ref["records"])
            assert {c: v.tobytes() for c, v in trace.captured_means.items()} == ref["captured"]
            assert (s.T_hit, s.hit_update) == (ref["T_hit"], ref["hit"])
            assert (s.n_updates, s.virtual_time) == (ref["k"], ref["t"])
            if graph is not None:
                assert list(s.per_thread_update_counts) == ref["counts"]
            assert (s.hit_update is None) == (watch == "off")


@pytest.mark.parametrize("watch", ["off", "armed", "stop"])
@pytest.mark.parametrize("scheme,runner,schedule,graph_kind,attraction", REFERENCE_CASES)
def test_on_record_is_handed_each_evaluated_stack_once(
    monkeypatch, scheme, runner, schedule, graph_kind, attraction, watch
):
    # One on_record call per time the monitor makes its pending records,
    # handed their stack: the stacks, flattened, are the records' k and t
    # and the sequential states, and nothing the run does later writes a
    # stack handed over.
    flushes = []
    real = engine._Monitor.record

    def counting(self):
        flushes.append(len(self.points))
        return real(self)

    spec = _kind_specs()[0]
    n, graph, init = _reference_inputs(graph_kind)
    base = dict(
        n_threads=n, step_size=0.02, attraction=attraction, mean_sample_time=0.02, seed=17,
        record_every=1, max_updates=300 if graph is None else 700,
    )
    errs = _per_update_reference(RunConfig(**base), spec, graph, schedule, init)["errs"]
    config = RunConfig(
        **base, threshold=None if watch == "off" else errs[len(errs) * 2 // 3],
        stop_at_threshold=watch == "stop",
    )
    calls = []

    def keep(ks, ts, states):
        calls.append((ks, ts, states, states.copy()))

    monkeypatch.setattr(engine._Monitor, "record", counting)
    if graph is None:
        trace = runner(config, spec, init=init, on_record=keep)
    else:
        trace = runner(config, graph, spec, init=init, on_record=keep)
    assert [len(states) for _, _, states, _ in calls] == [n for n in flushes if n] != []
    assert all(len(ks) == len(ts) == len(states) for ks, ts, states, _ in calls)
    flat = [(k, t, x.tobytes()) for ks, ts, states, _ in calls for k, t, x in zip(ks, ts, states)]
    assert [(k, t) for k, t, _ in flat] == [(r.k, r.t) for r in trace.records]
    assert flat == _per_update_reference(config, spec, graph, schedule, init)["seen"]
    assert all(np.array_equal(states, copy) for _, _, states, copy in calls)


def test_centralized_records_are_made_once_per_block_rows_steps():
    # At N = 100 a draw block is 10 steps; its records wait until at least
    # BLOCK_ROWS steps are pending, so 5,000 steps make about 20 on_record
    # calls.
    calls = []
    config = _swarm_config(n_threads=100, max_updates=5000, record_every=2)
    trace = run_centralized(
        config, _spec(), on_record=lambda ks, ts, states: calls.append(len(states))
    )
    assert len(calls) <= math.ceil(5000 / B) + 2
    assert sum(calls) == len(trace.records) == 2501
    # and no more wait than BLOCK_ROWS steps and one draw block hold
    assert max(calls) <= (B + 10) // 2 + 1
