import math

import numpy as np
import pytest

from swarmsgd import metrics
from swarmsgd import objective as obj
from swarmsgd import topology
from swarmsgd.randomness import make_rng


def _ridge():
    return obj.ridge_spec(0.1, np.array([0.2, 0.7, 0.4]))


def test_snapshot_at_optimum():
    spec = _ridge()
    x_star = obj.optimum(spec)
    X = np.tile(x_star, (4, 1))
    snap = metrics.snapshot(X, spec, x_star, obj.optimal_value(spec))
    assert snap.U == pytest.approx(0.0, abs=1e-14)
    assert snap.Vbar == pytest.approx(0.0, abs=1e-14)
    assert snap.f_gap == pytest.approx(0.0, abs=1e-12)
    assert snap.grad_norm_sq == pytest.approx(0.0, abs=1e-12)


def test_snapshot_symmetric_pair():
    spec = _ridge()
    x_star = obj.optimum(spec)
    delta = 0.3
    e1 = np.zeros(3)
    e1[0] = delta
    X = np.stack([x_star + e1, x_star - e1])
    snap = metrics.snapshot(X, spec, x_star, obj.optimal_value(spec))
    assert snap.U == pytest.approx(0.0, abs=1e-14)
    assert snap.Vbar == pytest.approx(delta**2, rel=1e-12)


def test_snapshot_vbar_brute_force():
    rng = make_rng(17)
    spec = _ridge()
    for _ in range(30):
        X = rng.normal(size=(5, 3))
        snap = metrics.snapshot(X, spec, obj.optimum(spec), obj.optimal_value(spec))
        mean = X.mean(axis=0)
        brute = sum(float((row - mean) @ (row - mean)) for row in X) / 5.0
        assert snap.Vbar == pytest.approx(brute, rel=1e-12)


def test_snapshot_without_optimum_uses_nan_U():
    spec = obj.nonconvex_sine_spec(3)
    X = make_rng(3).normal(size=(4, 3))
    snap = metrics.snapshot(X, spec, None, 0.0)
    assert math.isnan(snap.U)
    # f* = 0 is exact for this objective, so f_gap stays meaningful
    assert snap.f_gap >= 0.0
    assert snap.grad_norm_sq >= 0.0


def test_snapshot_dimension_mismatch():
    spec = _ridge()
    with pytest.raises(ValueError):
        metrics.snapshot(np.zeros((4, 2)), spec, obj.optimum(spec), obj.optimal_value(spec))


def test_validators_reject_positions_of_the_wrong_shape():
    spec = _ridge()
    graph = topology.complete_graph(3)
    for X in (np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match=r"expected \(3, 3\)"):
            metrics.lemma4_check(X, graph, spec, 1.0)
        with pytest.raises(ValueError, match=r"expected \(3, 3\)"):
            metrics.lemma2_monte_carlo_check(X, graph, spec, 0.01, 1.0, 1000, make_rng(0))


def _brute_lemma4(X, graph, spec, a):
    N = X.shape[0]
    grads = [obj.grad_exact(spec, X[i]) for i in range(N)]
    lhs = 0.0
    for i in range(N):
        attr = np.zeros_like(X[i])
        for j in range(N):
            if graph.adjacency[i, j]:
                attr += X[i] - X[j]
        v = grads[i] + a * attr
        lhs += float(v @ v)
    mean = X.mean(axis=0)
    vbar = sum(float((row - mean) @ (row - mean)) for row in X) / N
    d_bar = int(graph.degrees.max())
    rhs = 2.0 * sum(float(g @ g) for g in grads) + 8.0 * a * a * N * d_bar**2 * vbar
    return lhs, rhs


def test_lemma4_equal_positions():
    spec = _ridge()
    g = topology.complete_graph(5)
    X = np.tile(np.array([0.5, 0.1, 0.9]), (5, 1))
    res = metrics.lemma4_check(X, g, spec, a=2.0)
    grads_sq = 5.0 * float(obj.grad_exact(spec, X[0]) @ obj.grad_exact(spec, X[0]))
    assert res.lhs == pytest.approx(grads_sq, rel=1e-12)
    assert res.rhs == pytest.approx(2.0 * grads_sq, rel=1e-12)
    assert res.holds


def test_lemma4_zero_attraction():
    spec = _ridge()
    g = topology.path_graph(4)
    X = make_rng(9).normal(size=(4, 3))
    res = metrics.lemma4_check(X, g, spec, a=0.0)
    grads = obj.grad_exact_rows(spec, X)
    assert res.lhs == pytest.approx(float((grads**2).sum()), rel=1e-12)
    assert res.holds


def test_lemma4_matches_brute_force_and_always_holds():
    rng = make_rng(2718)
    kinds = ["ridge", "quadratic", "sine"]
    for trial in range(10_000):
        N = int(rng.integers(2, 11))
        m = int(rng.integers(1, 6))
        kind = kinds[trial % 3]
        if kind == "ridge":
            spec = obj.ridge_spec(0.05 + rng.random(), rng.random(m))
        elif kind == "quadratic":
            diag = 0.2 + rng.random(m)
            spec = obj.quadratic_spec(np.diag(diag), rng.normal(size=m))
        else:
            spec = obj.nonconvex_sine_spec(m)
        graph = (
            topology.complete_graph(N)
            if trial % 2 == 0
            else topology.erdos_renyi_connected(N, 0.7, rng)
        )
        a = float(rng.random() * 3.0)
        X = rng.normal(size=(N, m)) * (0.5 + 3.0 * rng.random())
        res = metrics.lemma4_check(X, graph, spec, a)
        assert res.holds, f"violation at trial {trial}"
        if trial % 500 == 0:
            lhs, rhs = _brute_lemma4(X, graph, spec, a)
            assert res.lhs == pytest.approx(lhs, rel=1e-9)
            assert res.rhs == pytest.approx(rhs, rel=1e-9)


def test_dispersion_after_single_update_brute_force():
    rng = make_rng(31)
    X = rng.normal(size=(6, 4))
    mean = X.mean(axis=0)
    vbar = sum(float((r - mean) @ (r - mean)) for r in X) / 6.0
    i = 2
    delta = rng.normal(size=4) * 0.3
    predicted = metrics.dispersion_after_single_update(vbar, X[i] - mean, delta, 6)
    Y = X.copy()
    Y[i] += delta
    mean2 = Y.mean(axis=0)
    brute = sum(float((r - mean2) @ (r - mean2)) for r in Y) / 6.0
    assert predicted == pytest.approx(brute, rel=1e-12)


def test_dispersion_update_vectorized_rows():
    rng = make_rng(32)
    X = rng.normal(size=(5, 3))
    mean = X.mean(axis=0)
    vbar = sum(float((r - mean) @ (r - mean)) for r in X) / 5.0
    deltas = rng.normal(size=(7, 3))
    out = metrics.dispersion_after_single_update(vbar, X[1] - mean, deltas, 5)
    assert out.shape == (7,)
    for j in range(7):
        single = metrics.dispersion_after_single_update(vbar, X[1] - mean, deltas[j], 5)
        assert out[j] == pytest.approx(float(single), rel=1e-12)


def test_lemma2_zero_step_size_is_exact():
    spec = _ridge()
    graph = topology.complete_graph(4)
    X = make_rng(41).normal(size=(4, 3))
    mean = X.mean(axis=0)
    vbar = sum(float((r - mean) @ (r - mean)) for r in X) / 4.0
    res = metrics.lemma2_monte_carlo_check(X, graph, spec, 0.0, 1.0, 1500, make_rng(5), sigma_samples=4000)
    assert res.lhs == vbar
    assert res.std_err == 0.0
    assert res.holds


def test_lemma2_hand_computed_two_thread_case():
    # Deterministic one-step case: two scalar threads at 1 and 3, exact
    # quadratic gradient x, no attraction, no noise, step 0.1.
    # Both one-step outcomes are computable by hand:
    #   update thread at 1: Vbar' = 1 + gamma + 0.25 gamma^2
    #   update thread at 3: Vbar' = 1 - 3 gamma + 2.25 gamma^2
    # so E Vbar' = 1 - gamma + 1.25 gamma^2 and the drift bound's rhs is
    # 1 - gamma + 2.5 gamma^2.
    gamma = 0.1
    spec = obj.quadratic_spec(np.array([[1.0]]), np.array([0.0]), noise_std=0.0)
    graph = topology.complete_graph(2)
    X = np.array([[1.0], [3.0]])
    res = metrics.lemma2_monte_carlo_check(X, graph, spec, gamma, 0.0, 4000, make_rng(77), sigma_samples=2000)
    expected_mean = 1.0 - gamma + 1.25 * gamma**2
    expected_rhs = 1.0 - gamma + 2.5 * gamma**2
    # thread choice is the only randomness: SE of a two-point mixture
    spread = abs((1.0 + gamma + 0.25 * gamma**2) - (1.0 - 3.0 * gamma + 2.25 * gamma**2)) / 2.0
    se = spread / math.sqrt(4000)
    assert res.rhs == pytest.approx(expected_rhs, rel=1e-12)
    assert abs(res.lhs - expected_mean) < 4.5 * se
    assert res.sigma_sq_hat == 0.0
    assert res.holds


def test_lemma2_rhs_matches_independent_formula():
    rng = make_rng(88)
    spec = _ridge()
    graph = topology.path_graph(5)
    X = rng.normal(size=(5, 3))
    gamma, a = 0.02, 0.8
    res = metrics.lemma2_monte_carlo_check(X, graph, spec, gamma, a, 1200, make_rng(6), sigma_samples=30_000)

    N = 5
    mean = X.mean(axis=0)
    vbar = sum(float((r - mean) @ (r - mean)) for r in X) / N
    grads = obj.grad_exact_rows(spec, X)
    drift = sum(float(grads[i] @ (X[i] - mean)) for i in range(N))
    lam2 = topology.algebraic_connectivity(graph)
    attr = metrics.lemma4_check(X, graph, spec, a).lhs
    rhs = (
        vbar
        - 2.0 * gamma / N**2 * drift
        - 2.0 / N * a * lam2 * gamma * vbar
        + gamma**2 / N**2 * attr
        + gamma**2 * res.sigma_sq_hat / N
    )
    assert res.rhs == pytest.approx(rhs, rel=1e-9)


def test_lemma2_requires_enough_replications():
    spec = _ridge()
    graph = topology.complete_graph(3)
    X = np.zeros((3, 3))
    with pytest.raises(ValueError):
        metrics.lemma2_monte_carlo_check(X, graph, spec, 0.01, 1.0, 999, make_rng(0))


def test_lemma2_holds_on_ridge_random_state():
    rng = make_rng(202)
    spec = obj.ridge_spec(0.1, rng.random(4))
    graph = topology.erdos_renyi_connected(6, 0.8, rng)
    X = rng.normal(size=(6, 4))
    res = metrics.lemma2_monte_carlo_check(X, graph, spec, 0.01, 1.0, 10_000, rng)
    assert res.holds
