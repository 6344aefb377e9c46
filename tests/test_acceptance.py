"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
registers a PASS/FAIL line with the terminal summary hook in conftest.
The expensive simulation studies are module-scoped fixtures so that the
state they record can be shared (criterion 5 audits the states recorded
by criteria 1 through 4).
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import register_criterion
from swarmsgd import engine, metrics, randomness, theory, topology
from swarmsgd import objective as obj
from swarmsgd.cli import (
    cmd_bounds,
    cmd_compare,
    cmd_simulate,
    cmd_validate,
    experiment_config_from_dict,
)

RIDGE_RHO = 0.1
GAMMA = 0.01
ATTRACTION = 1.0
DELTA_T = 0.02
THRESHOLD = 0.1
REPLICATIONS = 50

# (dim, n_threads, target speedup ratio, master seed)
TABLE_INSTANCES = (
    (20, 20, 3.60, 1001),
    (20, 100, 5.19, 1002),
    (100, 50, 4.50, 1003),
)

STREAM_STATE = 11
STREAM_RUN = 12
STREAM_ESTIMATE = 13
STREAM_INDEX = 14
STREAM_GRAD = 15


def _table_config(dim, n_threads, master_seed, out_dir, replications=REPLICATIONS):
    return experiment_config_from_dict(
        {
            "objective": {"kind": "ridge", "dim": dim, "rho": RIDGE_RHO},
            "run": {
                "n_threads": n_threads,
                "step_size": GAMMA,
                "attraction": ATTRACTION,
                "mean_sample_time": DELTA_T,
            },
            "graph": {"kind": "erdos_renyi", "p": 10.0 / n_threads},
            "replications": replications,
            "threshold": THRESHOLD,
            "master_seed": master_seed,
            "output_dir": str(out_dir),
        }
    )


@pytest.fixture(scope="module")
def table_reports(tmp_path_factory):
    base = tmp_path_factory.mktemp("table")
    reports = {}
    for dim, n_threads, target, seed in TABLE_INSTANCES:
        cfg = _table_config(dim, n_threads, seed, base / f"d{dim}_n{n_threads}")
        reports[(dim, n_threads)] = (cmd_compare(cfg), target)
    return reports


@pytest.fixture(scope="module")
def bound_study():
    """30 long runs on a complete graph, recording the mean squared
    error trajectory and auditing every recorded state."""
    master = 424201
    n_threads, dim, horizon = 10, 10, 50_000
    spec = obj.ridge_spec_random(
        RIDGE_RHO, dim, randomness.make_rng(randomness.derive_seed(master, 0, STREAM_STATE))
    )
    graph = topology.complete_graph(n_threads)
    x_star = obj.optimum(spec)
    reg = obj.regularity(spec)

    # The drift bound needs a variance valid along the whole trajectory.
    # Ridge noise grows with the distance from the data center, so the
    # zero start dominates every later iterate; take the larger of the
    # start and the optimum to be safe.
    est_rng = randomness.make_rng(randomness.derive_seed(master, 1, STREAM_ESTIMATE))
    sigma_sq_hat = max(
        obj.estimate_noise_variance(spec, np.zeros(dim), 200_000, est_rng),
        obj.estimate_noise_variance(spec, x_star, 200_000, est_rng),
    )
    sc = theory.strong_convex_bound(
        kappa=reg.kappa,
        L=reg.L,
        sigma_sq=sigma_sq_hat,
        gamma=GAMMA,
        a=ATTRACTION,
        lambda2=float(n_threads),
        d_bar=float(n_threads - 1),
        N=n_threads,
        U0=float(x_star @ x_star),
        V0=0.0,
    )

    u_by_k = {}
    lemma4_violations = 0
    for rep in range(30):
        violations = 0

        def watch(k, t, positions):
            nonlocal violations
            if not metrics.lemma4_check(positions, graph, spec, ATTRACTION).holds:
                violations += 1

        config = engine.RunConfig(
            n_threads=n_threads,
            step_size=GAMMA,
            attraction=ATTRACTION,
            mean_sample_time=DELTA_T,
            seed=randomness.derive_seed(master, rep, STREAM_RUN),
            max_updates=horizon,
            record_every=500,
        )
        trace = engine.run_swarm(config, graph, spec, on_record=watch)
        lemma4_violations += violations
        for record in trace.records:
            u_by_k.setdefault(record.k, []).append(record.U)

    mean_u = {k: sum(us) / len(us) for k, us in sorted(u_by_k.items())}
    tail = [u for k, us in u_by_k.items() if k >= 0.8 * horizon for u in us]
    return SimpleNamespace(
        sc=sc,
        mean_u=mean_u,
        tail_mean=sum(tail) / len(tail),
        lemma4_violations=lemma4_violations,
        sigma_sq_hat=sigma_sq_hat,
        horizon=horizon,
    )


def test_criterion_1_speedup_ratios(table_reports):
    details = []
    ok = True
    for (dim, n_threads), (report, target) in table_reports.items():
        assert report["ratio"] is not None
        rel = abs(report["ratio"] / target - 1.0)
        details.append(f"d={dim},N={n_threads}: {report['ratio']:.3f} vs {target} ({rel:+.1%})")
        ok = ok and rel <= 0.15
    register_criterion(1, "speedup ratios within 15% of targets", ok, "; ".join(details))
    assert ok, details


def test_criterion_2_harmonic_to_two_decimals():
    table = {20: 3.60, 50: 4.50, 100: 5.19}
    got = {n: round(theory.harmonic_speedup(n).delta_t_c_over_delta_t, 2) for n in table}
    ok = got == table
    register_criterion(2, "harmonic slowdown matches targets to 2 decimals", ok, f"{got}")
    assert ok, got


def test_criterion_3_earlier_crossing(table_reports):
    report, _ = table_reports[(20, 20)]
    wins = sum(
        1
        for row in report["per_run"]
        if row["T_s"] is not None and row["T_c"] is not None and row["T_s"] < row["T_c"]
    )
    ok = wins >= 45
    register_criterion(
        3,
        "swarm crosses the error threshold first in at least 45/50 runs",
        ok,
        f"{wins}/{report['replications']} runs",
    )
    assert ok, wins


def test_criterion_4_strong_convex_bound(bound_study):
    study = bound_study
    assert study.sc.admissible
    tail_ok = study.tail_mean <= study.sc.phi_star
    worst = max(m / study.sc.trajectory(k) for k, m in study.mean_u.items())
    trajectory_ok = worst <= 1.1
    ok = tail_ok and trajectory_ok
    register_criterion(
        4,
        "fixed point and trajectory dominate the measured squared error",
        ok,
        f"tail {study.tail_mean:.4f} <= phi* {study.sc.phi_star:.4f}; "
        f"worst trajectory ratio {worst:.3f} <= 1.1",
    )
    assert ok, (study.tail_mean, study.sc.phi_star, worst)


def test_criterion_5_no_lemma4_violations(table_reports, bound_study):
    from_comparisons = sum(report["lemma4_violations"] for report, _ in table_reports.values())
    total = from_comparisons + bound_study.lemma4_violations
    states = sum(
        sum(row["swarm_updates"] // 100 + 2 for row in report["per_run"])
        for report, _ in table_reports.values()
    ) + 30 * (bound_study.horizon // 500 + 1)
    ok = total == 0
    register_criterion(
        5,
        "drift inequality holds at every recorded state",
        ok,
        f"0 violations expected, {total} found over ~{states} states",
    )
    assert ok, total


def test_criterion_6_dispersion_drift_monte_carlo():
    master = 424206
    holds = 0
    checked = 0
    for i in range(100):
        rng = randomness.make_rng(randomness.derive_seed(master, i, STREAM_STATE))
        n_threads = int(rng.integers(3, 13))
        dim = int(rng.integers(2, 7))
        kind = ("ridge", "quadratic", "sine")[int(rng.integers(3))]
        if kind == "ridge":
            spec = obj.ridge_spec_random(RIDGE_RHO, dim, rng)
        elif kind == "quadratic":
            M = rng.normal(size=(dim, dim))
            spec = obj.quadratic_spec(M @ M.T + np.eye(dim), rng.normal(size=dim), noise_std=0.8)
        else:
            spec = obj.nonconvex_sine_spec(dim)
        family = int(rng.integers(4))
        if family == 0:
            graph = topology.complete_graph(n_threads)
        elif family == 1:
            graph = topology.path_graph(n_threads)
        elif family == 2:
            graph = topology.star_graph(n_threads)
        else:
            graph = topology.erdos_renyi_connected(n_threads, 0.6, rng)
        positions = rng.normal(size=(n_threads, dim)) * float(10 ** rng.uniform(-1, 0.7))
        gamma = float(10 ** rng.uniform(-4, -1.3))
        a = float(rng.uniform(0.0, 3.0))
        result = metrics.lemma2_monte_carlo_check(
            positions, graph, spec, gamma, a, 10_000, rng, sigma_samples=40_000
        )
        checked += 1
        holds += result.holds
    ok = holds >= 99
    register_criterion(
        6,
        "one-step dispersion drift bound holds on random frozen states",
        ok,
        f"{holds}/{checked} states",
    )
    assert ok, holds


def test_criterion_7_scheduler_equivalence():
    master = 424207
    n_threads, updates = 20, 100_000
    spec = obj.ridge_spec_random(
        RIDGE_RHO, 4, randomness.make_rng(randomness.derive_seed(master, 0, STREAM_STATE))
    )
    graph = topology.complete_graph(n_threads)
    corridor = 4.0 / math.sqrt(updates / n_threads)
    details = []
    ok = True
    for scheme, runner in (
        (engine.SCHEME_SWARM, engine.run_swarm),
        (engine.SCHEME_GLOBAL_TICK, engine.run_swarm_global_tick),
    ):
        config = engine.RunConfig(
            n_threads=n_threads,
            step_size=GAMMA,
            attraction=ATTRACTION,
            mean_sample_time=DELTA_T,
            seed=randomness.derive_seed(master, 1, STREAM_RUN),
            max_updates=updates,
            record_every=updates,
        )
        summary = runner(config, graph, spec).summary
        mean_gap = summary.virtual_time / summary.n_updates
        gap_rel = abs(mean_gap / (DELTA_T / n_threads) - 1.0)
        shares = np.asarray(summary.per_thread_update_counts) / summary.n_updates
        share_dev = float(np.abs(shares * n_threads - 1.0).max())
        details.append(f"{scheme}: gap off {gap_rel:.2%}, share dev {share_dev:.4f}")
        ok = ok and gap_rel <= 0.02 and share_dev < corridor
    register_criterion(
        7,
        "event-driven and global-tick schedulers agree on timing and uniformity",
        ok,
        "; ".join(details) + f" (corridor {corridor:.4f})",
    )
    assert ok, details


def test_criterion_8_oracles():
    master = 424208
    rng = randomness.make_rng(randomness.derive_seed(master, 0, STREAM_STATE))
    specs = (
        obj.ridge_spec_random(RIDGE_RHO, 6, rng),
        obj.quadratic_spec(np.diag([1.0, 2.0, 5.0]), np.array([0.3, -1.0, 0.7]), noise_std=0.6),
        obj.nonconvex_sine_spec(4),
    )
    ok = True
    details = []

    # gradient matches central finite differences of the value
    for spec in specs:
        x = rng.uniform(-1.5, 1.5, size=spec.dim)
        grad = obj.grad_exact(spec, x)
        h = 1e-6
        for j in range(spec.dim):
            step = np.zeros(spec.dim)
            step[j] = h
            fd = (obj.value(spec, x + step) - obj.value(spec, x - step)) / (2 * h)
            ok = ok and abs(fd - grad[j]) <= 1e-4
    details.append("finite differences")

    # sampled gradients are unbiased within 4 standard errors
    for spec in specs:
        x = rng.uniform(-1.0, 1.0, size=spec.dim)
        draws = obj.noisy_gradients(spec, np.broadcast_to(x, (150_000, spec.dim)), rng)
        err = draws.mean(axis=0) - obj.grad_exact(spec, x)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        ok = ok and bool(np.all(np.abs(err) <= 4.0 * se))
    details.append("unbiasedness at 4 SE")

    # spectral gap closed forms; the star formula needs a real hub,
    # so its range starts at n = 3
    spectral_ok = True
    for n in (2, 3, 7, 12, 25):
        spectral_ok &= (
            abs(topology.algebraic_connectivity(topology.complete_graph(n)) - n) <= 1e-8
        )
        spectral_ok &= (
            abs(
                topology.algebraic_connectivity(topology.path_graph(n))
                - 2.0 * (1.0 - math.cos(math.pi / n))
            )
            <= 1e-8
        )
        if n >= 3:
            spectral_ok &= (
                abs(topology.algebraic_connectivity(topology.star_graph(n)) - 1.0) <= 1e-8
            )
    ok = ok and spectral_ok
    details.append("spectral gap closed forms at 1e-8")

    register_criterion(8, "gradient and spectral oracles are correct", ok, "; ".join(details))
    assert ok


def test_criterion_9_convex_and_nonconvex_bounds():
    master = 424209
    details = []

    # convex branch: ridge with the horizon-tuned step rule
    rng = randomness.make_rng(randomness.derive_seed(master, 0, STREAM_STATE))
    spec = obj.ridge_spec_random(RIDGE_RHO, 5, rng)
    reg = obj.regularity(spec)
    x_star = obj.optimum(spec)
    f_star = obj.optimal_value(spec)
    n_threads, horizon, D = 5, 20_000, 0.5
    graph = topology.complete_graph(n_threads)
    est_rng = randomness.make_rng(randomness.derive_seed(master, 1, STREAM_ESTIMATE))
    sigma_sq_hat = max(
        obj.estimate_noise_variance(spec, np.zeros(spec.dim), 200_000, est_rng),
        obj.estimate_noise_variance(spec, x_star, 200_000, est_rng),
    )
    lambda2 = float(n_threads)
    gamma = D * math.sqrt(lambda2 * n_threads) / (math.sqrt(sigma_sq_hat) * math.sqrt(horizon))
    convex = theory.convex_bound(
        L=reg.L,
        sigma_sq=sigma_sq_hat,
        gamma=gamma,
        a=ATTRACTION,
        lambda2=lambda2,
        d_bar=float(n_threads - 1),
        N=n_threads,
        K=horizon,
        U0=float(x_star @ x_star),
        V0=0.0,
        D=D,
    )
    assert convex.admissible and convex.gamma_rule_ok
    assert convex.gamma_rule_value == pytest.approx(gamma, rel=1e-12)
    gaps = []
    for rep in range(30):
        config = engine.RunConfig(
            n_threads=n_threads,
            step_size=gamma,
            attraction=ATTRACTION,
            mean_sample_time=DELTA_T,
            seed=randomness.derive_seed(master, rep, STREAM_RUN),
            max_updates=horizon,
            record_every=horizon,
            capture_mean_at=tuple(range(horizon)),
        )
        trace = engine.run_swarm(config, graph, spec)
        # the running average of the swarm means over updates 0 .. K-1
        running_average = np.mean([trace.captured_means[k] for k in range(horizon)], axis=0)
        gaps.append(obj.value(spec, running_average) - f_star)
    convex_mean = sum(gaps) / len(gaps)
    convex_ok = convex_mean <= convex.bound_at_K
    details.append(f"convex: {convex_mean:.5f} <= {convex.bound_at_K:.5f}")

    # nonconvex branch: stationarity of the mean at a random update index
    sine = obj.nonconvex_sine_spec(4)
    sine_reg = obj.regularity(sine)
    n_threads, horizon, attraction, gamma = 6, 20_000, 2.0, 0.001
    graph = topology.complete_graph(n_threads)
    init = np.full((n_threads, sine.dim), 1.5)
    f0_gap = obj.value(sine, init[0]) - obj.optimal_value(sine)
    est_rng = randomness.make_rng(randomness.derive_seed(master, 2, STREAM_ESTIMATE))
    sine_sigma_sq = obj.estimate_noise_variance(sine, init[0], 200_000, est_rng)
    nonconvex = theory.nonconvex_bound(
        L=sine_reg.L,
        sigma_sq=sine_sigma_sq,
        gamma=gamma,
        a=attraction,
        lambda2=float(n_threads),
        d_bar=float(n_threads - 1),
        N=n_threads,
        K=horizon,
        f0_gap=f0_gap,
        V0=0.0,
    )
    assert nonconvex.attraction_ok and nonconvex.admissible
    stationarity = []
    for rep in range(30):
        index_rng = randomness.make_rng(randomness.derive_seed(master, rep, STREAM_INDEX))
        draws = [int(index_rng.integers(horizon)) for _ in range(16)]
        config = engine.RunConfig(
            n_threads=n_threads,
            step_size=gamma,
            attraction=attraction,
            mean_sample_time=DELTA_T,
            seed=randomness.derive_seed(master, rep, STREAM_GRAD),
            max_updates=horizon,
            record_every=horizon,
            capture_mean_at=tuple(sorted(set(draws))),
        )
        trace = engine.run_swarm(config, graph, sine, init=init)
        for k in draws:
            grad = obj.grad_exact(sine, trace.captured_means[k])
            stationarity.append(float(grad @ grad) / sine_reg.L)
    nonconvex_mean = sum(stationarity) / len(stationarity)
    nonconvex_ok = nonconvex_mean <= nonconvex.bound_at_K
    details.append(f"nonconvex: {nonconvex_mean:.4f} <= {nonconvex.bound_at_K:.4f}")

    ok = convex_ok and nonconvex_ok
    register_criterion(
        9,
        "convex rate and nonconvex stationarity bounds dominate measurements",
        ok,
        "; ".join(details),
    )
    assert ok, details


def test_criterion_10_byte_identical_reruns(tmp_path):
    def config_for(out_dir, extra=None):
        data = {
            "objective": {"kind": "ridge", "dim": 20, "rho": RIDGE_RHO},
            "run": {
                "n_threads": 20,
                "step_size": GAMMA,
                "attraction": ATTRACTION,
                "mean_sample_time": DELTA_T,
                "max_updates": 400,
            },
            "graph": {"kind": "erdos_renyi", "p": 0.5},
            "replications": 3,
            "threshold": THRESHOLD,
            "master_seed": 1001,
            "output_dir": str(out_dir),
            "validate": {
                "max_updates": 200,
                "record_every": 50,
                "lemma2_states": 2,
                "lemma2_replications": 2000,
                "sigma_samples": 20_000,
            },
        }
        if extra:
            data.update(extra)
        return experiment_config_from_dict(data)

    mismatches = []
    for command, files in (
        (cmd_simulate, ("run_0000.csv", "run_0001.csv", "run_0002.csv", "summary.json")),
        (cmd_compare, ("comparison.json",)),
        (cmd_validate, ("validation.json",)),
    ):
        name = command.__name__
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        command(config_for(first))
        command(config_for(second))
        for fname in files:
            if (first / fname).read_bytes() != (second / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")

    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "kappa": 2.0 / 3.0 + 2.0 * RIDGE_RHO,
                "L": 2.0 / 3.0 + 2.0 * RIDGE_RHO,
                "sigma_sq": 24.0,
                "gamma": GAMMA,
                "a": ATTRACTION,
                "lambda2": 10.0,
                "d_bar": 9.0,
                "N": 10,
            }
        )
    )
    cmd_bounds(str(params), str(tmp_path / "bounds_a"))
    cmd_bounds(str(params), str(tmp_path / "bounds_b"))
    if (tmp_path / "bounds_a" / "bounds.json").read_bytes() != (
        tmp_path / "bounds_b" / "bounds.json"
    ).read_bytes():
        mismatches.append("cmd_bounds/bounds.json")

    ok = not mismatches
    register_criterion(
        10,
        "reruns with the same master seed are byte-identical",
        ok,
        "all outputs identical" if ok else f"mismatched: {mismatches}",
    )
    assert ok, mismatches
