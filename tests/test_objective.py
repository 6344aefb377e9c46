import copy

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmsgd import objective as obj
from swarmsgd.randomness import make_rng, sampling_durations


def _fd_gradient(spec, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (obj.value(spec, x + e) - obj.value(spec, x - e)) / (2.0 * h)
    return g


def _specs():
    rng = make_rng(42)
    ridge = obj.ridge_spec(0.1, rng.random(6))
    M = rng.normal(size=(4, 4))
    Q = M @ M.T + 4.0 * np.eye(4)
    quad = obj.quadratic_spec(Q, rng.normal(size=4), noise_std=0.7)
    sine = obj.nonconvex_sine_spec(5, noise_std=1.0)
    return ridge, quad, sine


def test_factory_validation():
    with pytest.raises(ValueError):
        obj.ridge_spec(0.0, np.array([0.5]))
    with pytest.raises(ValueError):
        obj.ridge_spec(0.1, np.array([1.5]))
    with pytest.raises(ValueError):
        obj.ridge_spec(0.1, np.array([-0.1, 0.3]))
    with pytest.raises(ValueError):
        obj.quadratic_spec(np.array([[1.0, 0.5], [0.4, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError):
        obj.quadratic_spec(-np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        obj.quadratic_spec(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        obj.nonconvex_sine_spec(0)
    with pytest.raises(ValueError):
        obj.nonconvex_sine_spec(3, noise_std=-1.0)
    with pytest.raises(ValueError, match="nonempty"):
        obj.ridge_spec(0.1, np.array([]))
    with pytest.raises(ValueError, match="dimension"):
        obj.ridge_spec_random(0.1, 0, make_rng(0))
    with pytest.raises(ValueError, match="square"):
        obj.quadratic_spec(np.ones((2, 3)), np.zeros(2))


def test_ridge_optimum_and_regularity():
    x_tilde = np.array([0.2, 0.9, 0.5])
    spec = obj.ridge_spec(0.25, x_tilde)
    x_star = obj.optimum(spec)
    assert np.allclose(x_star, x_tilde / (1.0 + 3.0 * 0.25), atol=1e-14)
    assert np.allclose(obj.grad_exact(spec, x_star), 0.0, atol=1e-12)
    reg = obj.regularity(spec)
    expected = 2.0 / 3.0 + 2.0 * 0.25
    assert reg.kappa == pytest.approx(expected, rel=1e-14)
    assert reg.L == pytest.approx(expected, rel=1e-14)
    assert reg.convexity_class == obj.STRONGLY_CONVEX
    assert obj.optimal_value(spec) == pytest.approx(obj.value(spec, x_star), rel=1e-14)
    # value at any other point exceeds the optimal value
    assert obj.value(spec, x_star + 0.1) > obj.optimal_value(spec)


def test_quadratic_optimum():
    Q = np.array([[2.0, 0.3], [0.3, 1.0]])
    b = np.array([1.0, -0.5])
    spec = obj.quadratic_spec(Q, b)
    x_star = obj.optimum(spec)
    assert np.allclose(Q @ x_star + b, 0.0, atol=1e-12)
    reg = obj.regularity(spec)
    eig = np.linalg.eigvalsh(Q)
    assert reg.kappa == pytest.approx(eig[0], rel=1e-12)
    assert reg.L == pytest.approx(eig[-1], rel=1e-12)


def test_sine_objective_shape():
    spec = obj.nonconvex_sine_spec(3)
    assert obj.optimum(spec) is None
    assert obj.optimal_value(spec) == 0.0
    assert obj.value(spec, np.zeros(3)) == 0.0
    assert np.allclose(obj.grad_exact(spec, np.zeros(3)), 0.0)
    reg = obj.regularity(spec)
    assert reg.L == obj.SINE_CURVATURE_BOUND == 7.0
    assert reg.convexity_class == obj.NONCONVEX
    # second derivative 1 + 6 cos(2x) is bounded by 7 in magnitude
    xs = np.linspace(-6, 6, 2001)
    assert np.all(np.abs(1.0 + 6.0 * np.cos(2.0 * xs)) <= 7.0 + 1e-12)


def test_finite_difference_gradients():
    rng = make_rng(7)
    for spec in _specs():
        for _ in range(5):
            x = rng.normal(size=spec.dim)
            fd = _fd_gradient(spec, x)
            assert np.allclose(obj.grad_exact(spec, x), fd, atol=1e-4)


def test_grad_rows_matches_pointwise():
    rng = make_rng(8)
    for spec in _specs():
        X = rng.normal(size=(7, spec.dim))
        rows = obj.grad_exact_rows(spec, X)
        for i in range(7):
            assert np.allclose(rows[i], obj.grad_exact(spec, X[i]), atol=1e-14)


def test_noisy_gradient_unbiased_all_kinds():
    # componentwise 4-standard-error corridor on the Monte Carlo mean
    for seed, spec in zip((21, 22, 23), _specs()):
        rng = make_rng(seed)
        x = make_rng(seed + 100).normal(size=spec.dim)
        n = 120_000
        G = obj.noisy_gradients(spec, np.broadcast_to(x, (n, spec.dim)), rng)
        mean = G.mean(axis=0)
        se = G.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - obj.grad_exact(spec, x)) < 4.0 * se + 1e-12)


def test_noisy_gradient_scalar_unbiased():
    spec = obj.ridge_spec(0.1, np.array([0.3, 0.8]))
    rng = make_rng(31)
    x = np.array([1.0, -0.5])
    G = np.array([obj.noisy_gradient(spec, x, rng) for _ in range(20_000)])
    se = G.std(axis=0, ddof=1) / np.sqrt(G.shape[0])
    assert np.all(np.abs(G.mean(axis=0) - obj.grad_exact(spec, x)) < 4.0 * se)


def _block_gradients(spec, x, block):
    """Sampled gradients at ``x``, one per row of a drawn noise block."""
    U, c = block
    if spec.kind == obj.RIDGE:
        return 2.0 * (U @ x - c)[:, None] * U + 2.0 * spec.rho * x
    return obj.grad_exact(spec, x) + c


def test_batch_oracle_draws_the_noise_block():
    # row i of noisy_gradients is the sample of noise block row i at X[i]
    for seed, spec in zip((51, 52, 53), _specs()):
        X = make_rng(seed + 100).normal(size=(9, spec.dim))
        rng_batch, rng_block = make_rng(seed), make_rng(seed)
        G = obj.noisy_gradients(spec, X, rng_batch)
        U, c = obj.draw_noise_block(spec, 9, rng_block)
        for i in range(9):
            row = (None if U is None else U[i : i + 1], c[i : i + 1])
            assert np.allclose(G[i], _block_gradients(spec, X[i], row)[0], rtol=1e-12, atol=1e-14)
        assert rng_batch.bit_generator.state == rng_block.bit_generator.state


def test_noise_block_unbiased_all_kinds():
    # same 4-standard-error corridor as the per-call oracle
    for seed, spec in zip((41, 42, 43), _specs()):
        rng = make_rng(seed)
        x = make_rng(seed + 100).normal(size=spec.dim)
        n = 120_000
        G = _block_gradients(spec, x, obj.draw_noise_block(spec, n, rng))
        assert G.shape == (n, spec.dim)
        mean = G.mean(axis=0)
        se = G.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - obj.grad_exact(spec, x)) < 4.0 * se + 1e-12)


def test_noise_block_shapes_and_determinism():
    ridge, quad, sine = _specs()
    U, c = obj.draw_noise_block(ridge, 7, make_rng(3))
    assert U.shape == (7, ridge.dim) and c.shape == (7,)
    assert U.min() >= -1.0 and U.max() <= 1.0
    U2, c2 = obj.draw_noise_block(ridge, 7, make_rng(3))
    assert np.array_equal(U, U2) and np.array_equal(c, c2)
    for spec in (quad, sine):
        U, c = obj.draw_noise_block(spec, 7, make_rng(3))
        assert U is None and c.shape == (7, spec.dim)


def test_zero_noise_block_is_zero_and_draws_nothing():
    spec = obj.nonconvex_sine_spec(3, noise_std=0.0)
    rng = make_rng(8)
    before = rng.bit_generator.state
    U, c = obj.draw_noise_block(spec, 5, rng)
    assert U is None and np.array_equal(c, np.zeros((5, 3)))
    assert rng.bit_generator.state == before


def test_zero_noise_quadratic_gradient_is_exact():
    spec = obj.quadratic_spec(np.eye(2), np.zeros(2), noise_std=0.0)
    rng = make_rng(5)
    x = np.array([1.0, 2.0])
    assert np.array_equal(obj.noisy_gradient(spec, x, rng), obj.grad_exact(spec, x))


def test_sample_gradient_stream_order_and_time():
    spec = obj.ridge_spec(0.1, np.array([0.4, 0.6, 0.2]))
    x = np.array([0.1, 0.0, 0.9])
    s = obj.sample_gradient(spec, x, 0.02, make_rng(99))
    # gradient first, then the exponential duration, from one stream
    rng = make_rng(99)
    g = obj.noisy_gradient(spec, x, rng)
    t = rng.exponential(0.02)
    assert np.array_equal(s.g, g)
    assert s.sampling_time == t
    assert s.sampling_time > 0.0
    with pytest.raises(ValueError):
        obj.sample_gradient(spec, x, 0.0, make_rng(1))


def test_sample_gradient_time_mean():
    spec = obj.nonconvex_sine_spec(2, noise_std=0.0)
    rng = make_rng(13)
    x = np.zeros(2)
    times = np.array([obj.sample_gradient(spec, x, 0.05, rng).sampling_time for _ in range(20_000)])
    se = times.std(ddof=1) / np.sqrt(times.size)
    assert abs(times.mean() - 0.05) < 4.0 * se


def test_ridge_noise_variance_closed_form():
    # For the regression oracle, E|g - grad f|^2 at x has the closed
    # form 4 |w|^2 (1/5 + (m-1)/9) - (4/9)|w|^2 + 4m/3 with w = x - x_tilde.
    rng = make_rng(55)
    spec = obj.ridge_spec(0.1, np.linspace(0.1, 0.9, 6))
    x = np.array([0.3, -0.2, 0.5, 1.0, 0.0, -0.4])
    w = x - spec.x_tilde
    m = spec.dim
    closed = 4.0 * (w @ w) * (0.2 + (m - 1) / 9.0) - (4.0 / 9.0) * (w @ w) + 4.0 * m / 3.0
    est = obj.estimate_noise_variance(spec, x, 400_000, rng)
    assert est == pytest.approx(closed, rel=0.02)


def test_quadratic_noise_variance():
    spec = obj.quadratic_spec(np.eye(3), np.zeros(3), noise_std=0.5)
    est = obj.estimate_noise_variance(spec, np.ones(3), 200_000, make_rng(66))
    assert est == pytest.approx(0.25 * 3, rel=0.03)


def test_estimate_noise_variance_contract():
    spec = obj.nonconvex_sine_spec(2, noise_std=0.0)
    assert obj.estimate_noise_variance(spec, np.zeros(2), 1_000, make_rng(0)) == 0.0
    with pytest.raises(ValueError):
        obj.estimate_noise_variance(spec, np.zeros(2), 10, make_rng(0))


def test_value_and_grad_dimension_checks():
    spec = obj.ridge_spec(0.1, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        obj.value(spec, np.zeros(3))
    with pytest.raises(ValueError):
        obj.grad_exact(spec, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        obj.noisy_gradients(spec, np.zeros(2), make_rng(0))


@given(rho=st.floats(min_value=0.01, max_value=2.0), seed=st.integers(0, 2**32 - 1))
def test_ridge_gradient_lipschitz_between_random_points(rho, seed):
    rng = make_rng(seed)
    spec = obj.ridge_spec(rho, rng.random(4))
    reg = obj.regularity(spec)
    x, y = rng.normal(size=4), rng.normal(size=4)
    lhs = np.linalg.norm(obj.grad_exact(spec, x) - obj.grad_exact(spec, y))
    assert lhs <= reg.L * np.linalg.norm(x - y) * (1.0 + 1e-9)


def test_ridge_spec_random_uses_stream():
    a = obj.ridge_spec_random(0.1, 5, make_rng(3))
    b = obj.ridge_spec_random(0.1, 5, make_rng(3))
    assert np.array_equal(a.x_tilde, b.x_tilde)
    assert np.all(a.x_tilde >= 0.0) and np.all(a.x_tilde <= 1.0)


def test_noisy_gradient_is_row_0_of_the_block_oracle():
    # the per-call oracle draws and computes exactly what a one-row block does
    for seed, spec in zip((61, 62, 63), _specs()):
        x = make_rng(seed + 100).normal(size=spec.dim)
        rng = make_rng(seed)
        twin = copy.deepcopy(rng)
        g = obj.noisy_gradient(spec, x, rng)
        assert np.array_equal(g, obj.noisy_gradients(spec, x[None, :], twin)[0])
        assert rng.bit_generator.state == twin.bit_generator.state


def test_sample_gradient_duration_is_one_sampling_duration():
    spec = obj.ridge_spec(0.1, np.array([0.4, 0.6, 0.2]))
    x = np.array([0.1, 0.0, 0.9])
    rng = make_rng(71)
    twin = copy.deepcopy(rng)
    s = obj.sample_gradient(spec, x, 0.03, rng)
    obj.noisy_gradient(spec, x, twin)
    assert s.sampling_time == sampling_durations(twin, 0.03, 1)[0]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_spec_kind_is_one_of_the_kinds():
    assert obj.KINDS == (obj.RIDGE, obj.QUADRATIC, obj.NONCONVEX_SINE)
    assert {spec.kind for spec in _specs()} == set(obj.KINDS)
    with pytest.raises(ValueError, match="unknown objective kind 'bogus'"):
        obj.ObjectiveSpec(kind="bogus", dim=2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: obj.ridge_spec(np.nan, np.array([0.5])),
        lambda: obj.ridge_spec(np.inf, np.array([0.5])),
        lambda: obj.ridge_spec(0.1, np.array([np.nan, 0.5])),
        lambda: obj.ridge_spec(0.1, np.array([0.5, np.nan])),
        lambda: obj.quadratic_spec(np.eye(2), np.array([np.nan, 1.0])),
        lambda: obj.quadratic_spec(np.eye(2), np.array([0.0, -np.inf])),
        lambda: obj.quadratic_spec(np.diag([1.0, np.inf]), np.zeros(2)),
        lambda: obj.quadratic_spec(np.eye(2), np.array([0.0, 1.0]), np.inf),
        lambda: obj.quadratic_spec(np.eye(2), np.array([0.0, 1.0]), np.nan),
        lambda: obj.nonconvex_sine_spec(2, np.inf),
        lambda: obj.nonconvex_sine_spec(2, np.nan),
        lambda: obj.sample_gradient(_specs()[0], np.zeros(6), np.nan, make_rng(0)),
    ],
    ids=[
        "ridge-rho-nan", "ridge-rho-inf", "ridge-x_tilde-nan-first", "ridge-x_tilde-nan-last",
        "quadratic-b-nan", "quadratic-b-inf", "quadratic-Q-inf", "quadratic-noise-inf",
        "quadratic-noise-nan", "sine-noise-inf", "sine-noise-nan", "sample-mean-time-nan",
    ],
)
def test_constructors_reject_nan_and_infinite_inputs(build):
    with pytest.raises(ValueError):
        build()
