import functools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from swarmsgd import metrics
from swarmsgd import objective as obj
from swarmsgd import topology
from swarmsgd.randomness import make_rng
from test_objective import (
    CHUNK_EDGE_COUNTS,
    MEMORY_KINDS,
    _specs,
    per_chunk_gradients,
    per_chunk_noise_variance,
    wide_spec,
)


def _ridge():
    return obj.ridge_spec(0.1, np.array([0.2, 0.7, 0.4]))


def test_snapshot_at_optimum():
    spec = _ridge()
    x_star = obj.optimum(spec)
    X = np.tile(x_star, (4, 1))
    snap = metrics.snapshot(X[None], spec, x_star, obj.optimal_value(spec))
    assert snap.U[0] == pytest.approx(0.0, abs=1e-14)
    assert snap.Vbar[0] == pytest.approx(0.0, abs=1e-14)
    assert snap.f_gap[0] == pytest.approx(0.0, abs=1e-12)
    assert snap.grad_norm_sq[0] == pytest.approx(0.0, abs=1e-12)


def test_snapshot_symmetric_pair():
    spec = _ridge()
    x_star = obj.optimum(spec)
    delta = 0.3
    e1 = np.zeros(3)
    e1[0] = delta
    X = np.stack([x_star + e1, x_star - e1])
    snap = metrics.snapshot(X[None], spec, x_star, obj.optimal_value(spec))
    assert snap.U[0] == pytest.approx(0.0, abs=1e-14)
    assert snap.Vbar[0] == pytest.approx(delta**2, rel=1e-12)


def test_snapshot_vbar_brute_force():
    rng = make_rng(17)
    spec = _ridge()
    P = rng.normal(size=(30, 5, 3))
    snap = metrics.snapshot(P, spec, obj.optimum(spec), obj.optimal_value(spec))
    assert snap.Vbar.shape == (30,)
    for X, Vbar in zip(P, snap.Vbar):
        mean = X.mean(axis=0)
        brute = sum(float((row - mean) @ (row - mean)) for row in X) / 5.0
        assert Vbar == pytest.approx(brute, rel=1e-12)


def test_snapshot_without_optimum_uses_nan_U():
    spec = obj.nonconvex_sine_spec(3)
    P = make_rng(3).normal(size=(2, 4, 3))
    snap = metrics.snapshot(P, spec, None, 0.0)
    assert np.isnan(snap.U).all() and snap.U.shape == (2,)
    # f* = 0 is exact for this objective, so f_gap stays meaningful
    assert (snap.f_gap >= 0.0).all()
    assert (snap.grad_norm_sq >= 0.0).all()


def test_snapshot_dimension_mismatch():
    spec = _ridge()
    # a single (N, m) state, a wrong m, and stacks of the wrong rank
    for shape in [(4, 3), (1, 4, 2), (4, 2), (2, 4, 3, 1), (3,)]:
        with pytest.raises(ValueError, match=r"expected \(R, N, 3\)"):
            metrics.snapshot(np.zeros(shape), spec, obj.optimum(spec), obj.optimal_value(spec))


def _dense_quadratic(dim):
    A = make_rng(41).normal(size=(dim, dim))
    return obj.quadratic_spec(A @ A.T / dim + np.eye(dim), make_rng(42).normal(size=dim))


def _dot(u, v):
    """u . v with the products added one at a time in index order."""
    return functools.reduce(operator.add, map(operator.mul, u.tolist(), v.tolist()))


def _single_value(spec, x):
    if spec.kind == obj.RIDGE:
        diff = x - spec.x_tilde
        return _dot(diff, diff) / 3.0 + spec.rho * _dot(x, x) + 1.0
    if spec.kind == obj.QUADRATIC:
        return _dot(np.array([_dot(row, 0.5 * x) for row in spec.Q]), x) + _dot(x, spec.b)
    s = np.sin(x)
    return 0.5 * _dot(x, x) + 3.0 * _dot(s, s)


@pytest.mark.parametrize("R", [1, 3, 128])
@pytest.mark.parametrize("N", [1, 4, 100])
@pytest.mark.parametrize(
    "spec",
    [_ridge(), _dense_quadratic(9), obj.nonconvex_sine_spec(5)],
    ids=["ridge", "quadratic", "sine"],
)
def test_stacked_snapshot_rounds_each_row_as_the_single_state_formulas(spec, N, R):
    # The single-state arithmetic a snapshot row replaces, written out with
    # every dot in the stated order.
    P = make_rng(R * 1000 + N).normal(size=(R, N, spec.dim)) * 2.0 + 0.5
    x_star, f_star = obj.optimum(spec), obj.optimal_value(spec)
    assert f_star == (0.0 if x_star is None else _single_value(spec, x_star))
    snap = metrics.snapshot(P, spec, x_star, f_star)
    for r, X in enumerate(P):
        mean = X.mean(axis=0)
        Vbar = ((X - mean) ** 2).sum() / N
        g = obj.grad_exact(spec, mean)
        if spec.kind == obj.QUADRATIC:
            assert g.tolist() == [_dot(row, mean) + b for row, b in zip(spec.Q, spec.b)]
        U = math.nan if x_star is None else _dot(mean - x_star, mean - x_star)
        f = _single_value(spec, mean)
        assert obj.value(spec, mean) == f
        expected = (U, Vbar, f - f_star, _dot(g, g))
        got = (snap.U[r], snap.Vbar[r], snap.f_gap[r], snap.grad_norm_sq[r])
        assert np.array_equal(got, expected, equal_nan=True), (r, got, expected)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("N,dim", [(1, 3), (4, 3), (20, 20), (100, 50)])
def test_dispersion_rounds_as_the_three_formulas_it_replaced(R, N, dim):
    # snapshot's, lemma4_check's and lemma 2's frozen-state Vbar, written out
    P = make_rng(R * 1000 + N).normal(size=(R, N, dim)) * 2.0 + 0.5
    got, means, Vbar = metrics._dispersion(P, N, dim)
    assert got is P
    snapshot_form = ((P - P.mean(axis=1)[:, None, :]) ** 2).reshape(R, -1).sum(axis=1) / N
    stacked = P - P.mean(axis=1)[:, None, :]
    lemma4_form = (stacked**2).reshape(R, N * dim).sum(axis=1) / N
    assert Vbar.tobytes() == snapshot_form.tobytes() == lemma4_form.tobytes()
    for r, X in enumerate(P):
        # lemma 2 subtracts the helper's mean from its one state
        assert means[r].tobytes() == X.mean(axis=0).tobytes()
        frozen = X - X.mean(axis=0)
        assert Vbar[r] == float((frozen**2).sum() / N)
    # N is checked only when given
    assert metrics._dispersion(P, None, dim)[2].tobytes() == Vbar.tobytes()
    with pytest.raises(ValueError, match=rf"expected \(R, {N + 1}, {dim}\)"):
        metrics._dispersion(P, N + 1, dim)


def test_validators_reject_positions_of_the_wrong_shape():
    spec = _ridge()
    graph = topology.complete_graph(3)
    for X in (np.zeros((4, 3)), np.zeros((3, 2)), np.zeros(3)):
        with pytest.raises(ValueError, match=r"expected \(R, 3, 3\)"):
            metrics.lemma4_check(X[None], graph, spec, 1.0)
        with pytest.raises(ValueError, match=r"expected \(3, 3\)"):
            metrics.lemma2_monte_carlo_check(X, graph, spec, 0.01, 1.0, 1000, make_rng(0))
    # lemma 4 takes a stack of states, not one state
    with pytest.raises(ValueError, match=r"expected \(R, 3, 3\)"):
        metrics.lemma4_check(np.zeros((3, 3)), graph, spec, 1.0)


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
    res = metrics.lemma4_check(X[None], g, spec, a=2.0)
    assert res.lhs.shape == res.rhs.shape == res.holds.shape == (1,)
    grads_sq = 5.0 * float(obj.grad_exact(spec, X[0]) @ obj.grad_exact(spec, X[0]))
    assert res.lhs[0] == pytest.approx(grads_sq, rel=1e-12)
    assert res.rhs[0] == pytest.approx(2.0 * grads_sq, rel=1e-12)
    assert res.holds[0]


def test_lemma4_zero_attraction():
    spec = _ridge()
    g = topology.path_graph(4)
    X = make_rng(9).normal(size=(4, 3))
    res = metrics.lemma4_check(X[None], g, spec, a=0.0)
    grads = obj.grad_exact_rows(spec, X)
    assert res.lhs[0] == pytest.approx(float((grads**2).sum()), rel=1e-12)
    assert res.holds[0]


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
        res = metrics.lemma4_check(X[None], graph, spec, a)
        assert res.holds[0], f"violation at trial {trial}"
        if trial % 500 == 0:
            lhs, rhs = _brute_lemma4(X, graph, spec, a)
            assert res.lhs[0] == pytest.approx(lhs, rel=1e-9)
            assert res.rhs[0] == pytest.approx(rhs, rel=1e-9)


def _single_state_lemma4(X, graph, spec, a):
    """Lemma 4 at one (N, dim) state, in the arithmetic of the single-state
    check the stacked one replaced."""
    N = graph.n_vertices
    deviations = X - X.mean(axis=0)
    Vbar = float((deviations**2).sum() / N)
    grads = obj.grad_exact_rows(spec, X)
    drift = grads + a * (graph.degrees[:, None] * X - graph.adjacency.astype(float) @ X)
    lhs = float((drift**2).sum())
    dbar = topology.max_degree(graph)
    rhs = float(2.0 * (grads**2).sum() + 8.0 * a * a * N * dbar * dbar * Vbar)
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


@pytest.mark.parametrize("R", [1, 3, 16])
@pytest.mark.parametrize(
    "spec",
    [_ridge(), _dense_quadratic(3), obj.nonconvex_sine_spec(3)],
    ids=["ridge", "quadratic", "sine"],
)
def test_stacked_lemma4_rounds_each_row_as_the_single_state_formulas(spec, R):
    for N, graph in (
        (7, topology.erdos_renyi_connected(7, 0.5, make_rng(R))),
        (20, topology.complete_graph(20)),
        (50, topology.path_graph(50)),
    ):
        P = make_rng(R * 100 + N).normal(size=(R, N, spec.dim)) * 3.0 + 0.25
        # a = 1/3 does not round exactly, so every product is exercised
        for a in (0.0, 1.0 / 3.0, 2.0):
            res = metrics.lemma4_check(P, graph, spec, a)
            got = list(zip(res.lhs.tolist(), res.rhs.tolist(), res.holds.tolist()))
            assert got == [_single_state_lemma4(X, graph, spec, a) for X in P]


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
    attr = metrics.lemma4_check(X[None], graph, spec, a).lhs[0]
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


@pytest.mark.parametrize("sigma_samples", [0, -5, True, 1e6])
def test_lemma2_refuses_a_bad_sigma_samples(sigma_samples):
    with pytest.raises(ValueError, match="sigma_samples must be an integer at least 1"):
        metrics.lemma2_monte_carlo_check(
            np.zeros((3, 3)), topology.complete_graph(3), _ridge(), 0.01, 1.0, 1000, make_rng(0),
            sigma_samples=sigma_samples,
        )


def _per_chunk_lemma2(X, graph, spec, gamma, a, n_replications, rng, sigma_samples):
    """(lhs, std_err, sigma_sq_hat) of ``lemma2_monte_carlo_check`` with
    the replays drawn by one ``noisy_gradients`` call per 1,024 rows."""
    N = graph.n_vertices
    deviations = X - X.mean(axis=0)
    Vbar = float((deviations**2).sum() / N)
    per_thread = max(1000, sigma_samples // N)
    sigma_sq_hat = float(
        np.mean([per_chunk_noise_variance(spec, X[i], per_thread, rng) for i in range(N)])
    )
    idx = rng.integers(N, size=n_replications)
    samples = np.concatenate(per_chunk_gradients(spec, X[idx], rng))
    attraction = graph.degrees[:, None] * X - graph.adjacency.astype(float) @ X
    deltas = gamma * (-samples - a * attraction[idx])
    v_next = metrics.dispersion_after_single_update(Vbar, deviations[idx], deltas, N)
    return float(v_next.mean()), float(v_next.std(ddof=1) / math.sqrt(n_replications)), sigma_sq_hat


# Up to 1,024 rows, the one chunk is a one-shot draw; past that, each chunk is one.
@pytest.mark.parametrize("n_replications", CHUNK_EDGE_COUNTS)
@pytest.mark.parametrize("kind", range(3))
def test_lemma2_equals_one_shot_draws(kind, n_replications):
    spec = _specs()[kind]
    graph = topology.path_graph(4)
    X = make_rng(9).normal(size=(4, spec.dim))
    chunked, reference = make_rng(71), make_rng(71)
    for rng in (chunked, reference):
        rng.integers(7, size=3)  # leaves a buffered 32-bit half
    res = metrics.lemma2_monte_carlo_check(
        X, graph, spec, 0.02, 0.8, n_replications, chunked, sigma_samples=4000
    )
    expected = _per_chunk_lemma2(X, graph, spec, 0.02, 0.8, n_replications, reference, 4000)
    assert (res.lhs, res.std_err, res.sigma_sq_hat) == expected
    assert chunked.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("kind", MEMORY_KINDS)
def test_lemma2_memory_is_bounded(kind):
    rng = make_rng(3)
    spec = wide_spec(kind, rng)
    X = rng.normal(size=(50, 100))
    tracemalloc.start()
    try:
        metrics.lemma2_monte_carlo_check(
            X, topology.complete_graph(50), spec, 0.01, 1.0, 65_536, rng, sigma_samples=50_000
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (65,536, 100) array is 52 MB; whole-batch draws peaked at 6 MB
    # (ridge) and 325 MB (quadratic, sine)
    assert peak < 16 * 2**20
