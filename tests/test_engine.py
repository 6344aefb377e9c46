import json
import math
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
    # the seed is an integer too; make_rng masks a negative one
    for seed in (1.5, None, "3", True):
        with pytest.raises(ValueError, match="seed"):
            _swarm_config(seed=seed)
    _swarm_config(seed=-1)


def test_swarm_run_needs_two_threads():
    with pytest.raises(ValueError, match="n_threads must be an integer at least 2, got 1"):
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

    def keep(k, t, positions):
        seen[k] = positions.copy()

    trace = run_swarm(config, graph, spec, init=init, on_record=keep)
    final = seen[trace.summary.n_updates]
    counts = trace.summary.per_thread_update_counts
    for i in range(4):
        expected = init[i, 0] * (1.0 - gamma * q) ** counts[i]
        assert final[i, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("scheme", [SCHEME_SWARM, SCHEME_CENTRALIZED])
def test_optimal_value_is_computed_once_per_run(monkeypatch, scheme):
    calls = []
    real = obj.optimal_value

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(obj, "optimal_value", counting)
    spec = obj.quadratic_spec(np.diag([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 0.2]))
    config = _swarm_config(max_updates=50, record_every=1)
    final = {}

    def keep(k, t, positions):
        final["X"] = positions.copy()

    if scheme == SCHEME_SWARM:
        trace = run_swarm(config, topology.complete_graph(5), spec, on_record=keep)
    else:
        trace = run_centralized(config, spec, on_record=keep)
    assert len(trace.records) == 51
    assert len(calls) == 1
    # the cached value gives the same bits as recomputing it
    assert trace.records[-1].f_gap == metrics.snapshot(final["X"], spec, obj.optimum(spec), real(spec)).f_gap


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

    def keep(k, t, positions):
        seen[k] = positions.copy()

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

    def keep(k, t, positions):
        seen[k] = positions[0].copy()

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
    B + 1; returns the trace and every (k, t, positions) of on_record."""
    assert engine.BATCH_SAMPLES // 4 == B
    spec = _kind_specs()[kind]
    thresholds = CENTRAL_THRESHOLDS if graph_kind is None else SWARM_THRESHOLDS
    config = _swarm_config(**{
        "n_threads": 4, "max_updates": 3 * B, "threshold": thresholds[kind],
        "capture_mean_at": (B - 1, B, B + 1), **overrides,
    })
    seen = []

    def keep(k, t, positions):
        seen.append((k, t, positions.copy()))

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


@pytest.mark.parametrize(
    "watch", [{"threshold": None}, {}, {"stop_at_threshold": True}], ids=["off", "armed", "stop"]
)
@pytest.mark.parametrize("runner,graph_kind", MONITORED)
def test_on_record_may_keep_its_positions(runner, graph_kind, watch):
    # Every record, with the threshold off, armed or stopping the run,
    # hands on_record an array the engine never writes again.
    kept, copies = [], []

    def keep(k, t, positions):
        kept.append(positions)
        copies.append(positions.copy())

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
    assert len(kept) == len(trace.records) > 2
    assert all(np.array_equal(a, b) for a, b in zip(kept, copies))
