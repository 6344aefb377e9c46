import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swarmsgd import theory
from swarmsgd.theory import (
    InadmissibleParametersError,
    centralized_bound,
    convex_bound,
    harmonic_speedup,
    nonconvex_bound,
    solve_hat_omega,
    strong_convex_bound,
)

RIDGE_C = 2.0 / 3.0 + 0.2  # kappa = L for the default ridge penalty


def _weight_poly(kappa, L, gamma, a, lambda2, d_bar, N):
    """Independent statement of the quadratic the dispersion weight solves."""

    def p(w):
        A = kappa * L * gamma
        B = -(kappa + (N - 1) / N * kappa * L * gamma - L - a * lambda2 + 4 * a * a * d_bar * d_bar * gamma)
        C0 = kappa - kappa * L * gamma / N - 4.0 / N * a * a * d_bar * d_bar * gamma - L
        return A * w * w + B * w + C0

    return p


def _bisect_root(p, lo, hi, iters=200):
    flo = p(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (p(mid) > 0) == (flo > 0):
            lo, flo = mid, p(mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_harmonic_table_values():
    assert harmonic_speedup(1).H_N == 1.0
    assert round(harmonic_speedup(20).delta_t_c_over_delta_t, 2) == 3.60
    assert round(harmonic_speedup(50).delta_t_c_over_delta_t, 2) == 4.50
    assert round(harmonic_speedup(100).delta_t_c_over_delta_t, 2) == 5.19
    assert harmonic_speedup(20).H_N == pytest.approx(3.597739657, abs=1e-9)
    with pytest.raises(ValueError):
        harmonic_speedup(0)


def test_harmonic_increasing_and_log_bracket():
    prev = 0.0
    for n in range(1, 300):
        h = harmonic_speedup(n).H_N
        assert h > prev
        prev = h
        if n >= 2:
            assert 0.577 < h - math.log(n) < 1.0
    for n in (500, 1000, 2000):
        h = harmonic_speedup(n).H_N
        assert 0.577 < h - math.log(n) < 1.0


def test_harmonic_expansion_matches_the_sum_past_the_cutoff():
    cutoff = theory.HARMONIC_SUM_MAX_N
    for n in (cutoff, cutoff + 1):
        exact = math.fsum(1.0 / i for i in range(1, n + 1))
        assert abs(harmonic_speedup(n).H_N - exact) <= 2 * math.ulp(exact)
    assert harmonic_speedup(cutoff + 1).H_N > harmonic_speedup(cutoff).H_N


def test_harmonic_of_a_huge_N_returns_at_once():
    started = time.perf_counter()
    h = harmonic_speedup(10**12).H_N
    assert time.perf_counter() - started < 0.1
    assert h == pytest.approx(math.log(1e12) + 0.5772156649015329, rel=1e-12)


def test_hat_omega_against_bisection_oracle():
    # complete graph with 20 threads for the default ridge constants
    kappa = L = RIDGE_C
    gamma, a, lambda2, d_bar, N = 0.01, 1.0, 20.0, 19.0, 20
    root = solve_hat_omega(kappa, L, gamma, a, lambda2, d_bar, N)
    assert 0.0 < root < 1.0
    p = _weight_poly(kappa, L, gamma, a, lambda2, d_bar, N)
    assert abs(p(root)) < 1e-10
    # the polynomial changes sign across (0, 1); bisection finds the
    # same root independently of the closed-form path
    assert p(0.0) * p(1.0) < 0
    oracle = _bisect_root(p, 0.0, 1.0)
    assert root == pytest.approx(oracle, abs=1e-9)


def test_hat_omega_zero_step_limits():
    kappa = L = RIDGE_C
    w = solve_hat_omega(kappa, L, 1e-8, 1.0, 20.0, 19.0, 20)
    assert w == pytest.approx(0.0, abs=1e-6)
    # asymmetric curvature: the limit is (L - kappa)/(a lambda2 + L - kappa)
    kappa2, L2, a2, lam2 = 0.5, 2.0, 1.5, 8.0
    w2 = solve_hat_omega(kappa2, L2, 1e-8, a2, lam2, 7.0, 10)
    expected = (L2 - kappa2) / (a2 * lam2 + L2 - kappa2)
    assert w2 == pytest.approx(expected, abs=1e-5)


def test_hat_omega_inadmissible_raises():
    with pytest.raises(InadmissibleParametersError):
        solve_hat_omega(RIDGE_C, RIDGE_C, 10.0, 1.0, 20.0, 19.0, 20)
    with pytest.raises(ValueError):
        solve_hat_omega(-1.0, 1.0, 0.01, 1.0, 2.0, 1.0, 4)
    with pytest.raises(ValueError):
        solve_hat_omega(1.0, 1.0, 0.01, -1.0, 2.0, 1.0, 4)


def test_hat_omega_residual_over_log_grid():
    # every admissible point of a 5^7 log grid leaves residual < 1e-10
    kappas = np.logspace(-2, 1, 5)
    Ls = np.logspace(-2, 1, 5)
    gammas = np.logspace(-4, -0.5, 5)
    attractions = np.logspace(-1, 1, 5)
    lambdas = np.logspace(-0.5, 2, 5)
    d_bars = np.logspace(0, 2, 5)
    Ns = (2, 5, 10, 50, 100)
    admissible = 0
    for kappa in kappas:
        for L in Ls:
            if L < kappa:
                continue  # smoothness never falls below curvature
            for gamma in gammas:
                for a in attractions:
                    for lam2 in lambdas:
                        for d_bar in d_bars:
                            for N in Ns:
                                try:
                                    w = solve_hat_omega(kappa, L, gamma, a, lam2, d_bar, N)
                                except InadmissibleParametersError:
                                    continue
                                p = _weight_poly(kappa, L, gamma, a, lam2, d_bar, N)
                                assert abs(p(w)) < 1e-10
                                assert 0.0 < w < 1.0
                                admissible += 1
    assert admissible > 1000


def test_hat_omega_residual_is_relative_to_the_terms():
    # at L ~ 2e10 the terms of the weight equation are ~4e10, so an
    # absolute residual of 4e-6 is 1e-16 of them: round-off, not an error
    args = (0.8, 21807734143.0, 0.01, 1.0, 1.0, 2.0, 5)
    w = solve_hat_omega(*args)
    A, B, C0 = theory._hat_omega_coefficients(*args)
    assert 0.0 < w < 1.0
    assert abs(A * w * w + B * w + C0) <= 1e-15 * (abs(A) * w * w + abs(B) * w + abs(C0))
    bound = strong_convex_bound(0.8, 21807734143.0, 1.0, 0.01, 1.0, 1.0, 2.0, 5, 1.0, 0.0)
    assert bound.hat_omega == w and not bound.admissible


def test_strong_convex_bound_basics():
    sc = strong_convex_bound(RIDGE_C, RIDGE_C, 1.0, 0.01, 1.0, 20.0, 19.0, 20, 2.0, 0.5)
    assert sc.admissible
    assert 0.0 < sc.C < 1.0
    assert sc.phi_star > 0.0
    assert len(sc.gamma_caps) == 3
    assert sc.initial_weighted_error == pytest.approx(2.0 + sc.hat_omega * 0.5, rel=1e-14)
    # trajectory at k = 0 is exactly the initial weighted error
    assert sc.trajectory(0) == pytest.approx(sc.initial_weighted_error, rel=1e-14)
    # trajectory decays toward phi_star
    assert sc.trajectory(10_000) < sc.trajectory(100) < sc.trajectory(0)
    assert sc.trajectory(10**7) == pytest.approx(sc.phi_star, rel=1e-6)


def test_strong_convex_caps_match_formulas():
    kappa, L, gamma, a, lam2, d_bar, N = 0.7, 1.2, 0.005, 1.3, 9.0, 8.0, 12
    sc = strong_convex_bound(kappa, L, 1.0, gamma, a, lam2, d_bar, N, 1.0, 0.0)
    w = sc.hat_omega
    assert sc.gamma_caps[0] == pytest.approx(N / ((1 + w * N) * L), rel=1e-12)
    assert sc.gamma_caps[1] == pytest.approx(N / (2 * kappa), rel=1e-12)
    assert sc.gamma_caps[2] == pytest.approx(N * lam2 / (4 * a * (N + 1) * d_bar**2), rel=1e-12)
    assert sc.admissible == (gamma < min(sc.gamma_caps))
    C_expected = 2 / N * kappa * gamma - 2 / N**2 * kappa * (1 + w * N) * L * gamma**2
    assert sc.C == pytest.approx(C_expected, rel=1e-12)
    phi_expected = (1 + w * N) * gamma * 1.0 / (2 * kappa * N - 2 * kappa * (1 + w * N) * L * gamma)
    assert sc.phi_star == pytest.approx(phi_expected, rel=1e-12)


def test_phi_star_monotone_in_lambda2_and_N():
    base = dict(kappa=RIDGE_C, L=RIDGE_C, sigma_sq=1.0, gamma=0.005, a=1.0, d_bar=9.0, N=10, U0=1.0, V0=0.0)
    prev = None
    for lam2 in (2.0, 4.0, 8.0, 16.0):
        sc = strong_convex_bound(
            base["kappa"], base["L"], base["sigma_sq"], base["gamma"], base["a"], lam2, base["d_bar"], base["N"], 1.0, 0.0
        )
        if prev is not None:
            assert sc.phi_star <= prev * (1 + 1e-12)
        prev = sc.phi_star
    # complete graphs: lambda2 = N, d_bar = N - 1; the step must stay
    # below the attraction cap for every N on the grid, hence 0.001
    prev = None
    for N in (10, 20, 40, 80):
        sc = strong_convex_bound(RIDGE_C, RIDGE_C, 1.0, 0.001, 1.0, float(N), float(N - 1), N, 1.0, 0.0)
        assert sc.admissible
        if prev is not None:
            assert sc.phi_star <= prev * (1 + 1e-12)
        prev = sc.phi_star


def test_zero_attraction_gives_infinite_attraction_cap():
    sc = strong_convex_bound(RIDGE_C, RIDGE_C, 1.0, 0.01, 0.0, 5.0, 4.0, 5, 1.0, 0.0)
    assert sc.gamma_caps[2] == math.inf


def test_centralized_bound_basics():
    cb = centralized_bound(RIDGE_C, RIDGE_C, 1.0, 0.01, 20, 2.0)
    assert 0.0 < cb.contraction < 1.0
    assert cb.phi_star_star == pytest.approx(
        0.01 * 1.0 / (RIDGE_C * 20 * (2.0 - RIDGE_C * 0.01)), rel=1e-12
    )
    # fixed point: starting at phi** stays at phi**
    fixed = centralized_bound(RIDGE_C, RIDGE_C, 1.0, 0.01, 20, cb.phi_star_star)
    for k in (1, 2, 10, 1000):
        assert fixed.trajectory(k) == pytest.approx(cb.phi_star_star, rel=1e-12)
    # exponent is k - 1: the bound at k = 1 is the initial error itself
    assert cb.trajectory(1) == pytest.approx(2.0, rel=1e-12)
    with pytest.raises(ValueError):
        cb.trajectory(0)


def test_centralized_bound_step_cap():
    with pytest.raises(InadmissibleParametersError):
        centralized_bound(1.0, 1.0, 1.0, 2.0, 4, 1.0)
    centralized_bound(1.0, 1.0, 1.0, 1.999, 4, 1.0)


def test_centralized_contraction_grid():
    for kappa in (0.1, 0.5, 1.0):
        for L in (1.0, 2.0):
            if L < kappa:
                continue
            for gamma in (1e-4, 0.01, 0.5 / L, 1.5 / L):
                cb = centralized_bound(kappa, L, 1.0, gamma, 4, 1.0)
                assert 0.0 < cb.contraction < 1.0


def test_phi_star_ratio_identity_with_centralized():
    # on shared constants the two fixed points differ by the closed
    # factor (1 + wN)(2 - L gamma)/(2 - 2(1 + wN) L gamma / N)
    kappa = L = RIDGE_C
    gamma, a, N = 0.01, 1.0, 20
    sc = strong_convex_bound(kappa, L, 1.0, gamma, a, 20.0, 19.0, N, 1.0, 0.0)
    cb = centralized_bound(kappa, L, 1.0, gamma, N, 1.0)
    w = sc.hat_omega
    factor = (1 + w * N) * (2 - L * gamma) / (2 - 2 * (1 + w * N) * L * gamma / N)
    assert sc.phi_star / cb.phi_star_star == pytest.approx(factor, rel=1e-12)
    # both are O(sigma^2/(kappa N)): same order within a modest factor
    assert 0.5 < sc.phi_star / cb.phi_star_star < 10.0


def test_convex_bound_formulas():
    L, sig2, gamma, a, lam2, d_bar, N, K = 1.0, 1.0, 0.01, 1.0, 10.0, 9.0, 10, 1000
    cv = convex_bound(L, sig2, gamma, a, lam2, d_bar, N, K, 1.0, 0.5)
    denom = N * L + a * N * lam2 - 4 * a * a * N * d_bar**2 * gamma
    w = (N * L + 4 * a * a * d_bar**2 * gamma) / denom
    assert cv.tilde_omega == pytest.approx(w, rel=1e-12)
    mu = gamma / N**2 - (1 + w * N) * gamma**2 * L / N**3
    assert cv.mu == pytest.approx(mu, rel=1e-12)
    expected = (1.0 + w * 0.5 + (1 + w * N) * K * gamma**2 * sig2 / N**2) / (2 * N * K * mu)
    assert cv.bound_at_K == pytest.approx(expected, rel=1e-12)
    assert cv.admissible


def test_convex_bound_inadmissible_denominator_flip():
    # strong attraction with a fixed step drives the weight's
    # denominator negative, which must flag the bound invalid
    cv = convex_bound(1.0, 1.0, 0.1, 50.0, 4.0, 3.0, 4, 100, 1.0, 0.0)
    assert not cv.admissible
    assert math.isnan(cv.bound_at_K)


def test_convex_rule_halves_phi_at_quadruple_K():
    # with V0 = 0 the rate certificate scales exactly as 1/sqrt(K)
    L, sig2, a, lam2, d_bar, N = 1.0, 4.0, 1.0, 10.0, 9.0, 10
    D = 0.5
    K = 10_000
    g1 = D * math.sqrt(lam2 * N) / (math.sqrt(sig2) * math.sqrt(K))
    g2 = D * math.sqrt(lam2 * N) / (math.sqrt(sig2) * math.sqrt(4 * K))
    c1 = convex_bound(L, sig2, g1, a, lam2, d_bar, N, K, 1.0, 0.0, D)
    c2 = convex_bound(L, sig2, g2, a, lam2, d_bar, N, 4 * K, 1.0, 0.0, D)
    assert c1.gamma_rule_value == pytest.approx(g1, rel=1e-12)
    assert c2.gamma_rule_value == pytest.approx(g2, rel=1e-12)
    assert c1.phi_K_star / c2.phi_K_star == pytest.approx(2.0, rel=1e-12)


def test_convex_rule_caps_and_default_D():
    L, sig2, gamma, a, lam2, d_bar, N, K = 1.0, 1.0, 0.01, 1.0, 10.0, 9.0, 10, 1000
    cv = convex_bound(L, sig2, gamma, a, lam2, d_bar, N, K, 1.0, 0.0)
    # default D reproduces gamma through the rule exactly
    assert cv.gamma_rule_value == pytest.approx(gamma, rel=1e-12)
    assert cv.gamma_rule_caps[0] == pytest.approx(lam2 / (8 * a * d_bar**2), rel=1e-12)
    cap2 = (2 * L + a * lam2) * N / (4 * (N * L + L + a * lam2) * L)
    assert cv.gamma_rule_caps[1] == pytest.approx(cap2, rel=1e-12)
    assert cv.gamma_rule_ok == (gamma <= min(cv.gamma_rule_caps))


def test_convex_phi_order_sigma_over_sqrt_K():
    # complete graphs: phi_K_star * sqrt(K) stays constant in K (V0 = 0)
    for N in (10, 20, 50):
        lam2, d_bar = float(N), float(N - 1)
        D, sig2, L = 0.3, 1.0, 1.0
        values = []
        for K in (10**3, 10**4, 10**5):
            g = D * math.sqrt(lam2 * N) / math.sqrt(K)
            cv = convex_bound(L, sig2, g, 1.0, lam2, d_bar, N, K, 1.0, 0.0, D)
            values.append(cv.phi_K_star * math.sqrt(K))
        assert max(values) / min(values) == pytest.approx(1.0, rel=1e-9)


def test_nonconvex_bound_formulas_and_flags():
    L, sig2, gamma, a, lam2, d_bar, N, K = 7.0, 1.0, 0.001, 2.0, 6.0, 5.0, 6, 1000
    nc = nonconvex_bound(L, sig2, gamma, a, lam2, d_bar, N, K, 10.0, 0.5)
    assert nc.attraction_ok  # 2 > 35/24
    mix = 2 * L * L + 4 * a * a * d_bar**2
    w = (N * L + 2 * mix * gamma) / (4 * N * (a * lam2 - L) - 4 * N * mix * gamma)
    assert nc.check_omega == pytest.approx(w, rel=1e-12)
    mu = gamma / (2 * N**2) - (2 + 4 * w * N) * L * gamma**2 / N**3
    assert nc.check_mu == pytest.approx(mu, rel=1e-12)
    expected = ((10.0 + w * L * 0.5) / L + (0.5 + w * N) * K * gamma**2 * sig2 / N**2) / (N * K * mu)
    assert nc.bound_at_K == pytest.approx(expected, rel=1e-12)
    assert nc.admissible and nc.bound_at_K > 0.0


def test_nonconvex_attraction_boundary_is_inadmissible():
    L, lam2 = 2.0, 5.0
    a = 5.0 * L / (4.0 * lam2)  # exactly on the boundary
    nc = nonconvex_bound(L, 1.0, 1e-4, a, lam2, 4.0, 5, 100, 1.0, 0.0)
    assert not nc.attraction_ok
    assert not nc.admissible
    above = nonconvex_bound(L, 1.0, 1e-4, a * 1.5, lam2, 4.0, 5, 100, 1.0, 0.0)
    assert above.attraction_ok


def test_nonconvex_zero_step_limit():
    L, a, lam2 = 2.0, 3.0, 5.0
    nc = nonconvex_bound(L, 1.0, 1e-8, a, lam2, 4.0, 6, 100, 1.0, 0.0)
    expected = L / (4.0 * (a * lam2 - L))
    assert nc.check_omega == pytest.approx(expected, abs=1e-5)


def test_nonconvex_positive_bound_on_admissible_grid():
    for gamma in (1e-4, 1e-3):
        for a in (2.0, 3.0):
            for N in (4, 8):
                nc = nonconvex_bound(7.0, 1.0, gamma, a, float(N), float(N - 1), N, 10_000, 5.0, 0.1)
                if nc.admissible:
                    assert nc.bound_at_K > 0.0


def test_input_validation_common():
    with pytest.raises(ValueError):
        strong_convex_bound(1.0, 1.0, -1.0, 0.01, 1.0, 2.0, 1.0, 4, 1.0, 0.0)
    with pytest.raises(ValueError):
        strong_convex_bound(1.0, 1.0, 1.0, 0.01, 1.0, 2.0, 1.0, 4, -1.0, 0.0)
    with pytest.raises(ValueError):
        convex_bound(1.0, 1.0, 0.01, 1.0, 2.0, 1.0, 4, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        nonconvex_bound(1.0, 1.0, 0.01, 1.0, 2.0, 0.5, 4, 10, 1.0, 0.0)
    with pytest.raises(ValueError):
        centralized_bound(1.0, 0.0, 1.0, 0.01, 4, 1.0)


# Valid inputs for every calculator, by argument name.
_VALID_INPUTS = dict(
    kappa=1.0, L=1.0, sigma_sq=1.0, gamma=0.01, a=1.0, lambda2=2.0, d_bar=1.0, N=4, K=10,
    U0=1.0, V0=0.0, G0=1.0, f0_gap=1.0,
)


@pytest.mark.parametrize(
    "calculator,name,bad",
    [
        (strong_convex_bound, "kappa", -1.0),
        (strong_convex_bound, "L", 0.0),
        (strong_convex_bound, "sigma_sq", -1.0),
        (strong_convex_bound, "gamma", -0.01),
        (strong_convex_bound, "a", -1.0),
        (strong_convex_bound, "lambda2", 0.0),
        (strong_convex_bound, "d_bar", 0.5),
        (strong_convex_bound, "N", 0),
        (strong_convex_bound, "U0", -1.0),
        (strong_convex_bound, "V0", -1.0),
        (centralized_bound, "G0", -1.0),
        (convex_bound, "K", 0),
        (nonconvex_bound, "f0_gap", -1.0),
        (solve_hat_omega, "gamma", 0.0),
        (harmonic_speedup, "N", 0),
        (strong_convex_bound, "kappa", math.nan),
        (strong_convex_bound, "kappa", math.inf),
        (strong_convex_bound, "L", math.inf),
        (strong_convex_bound, "sigma_sq", math.nan),
        (strong_convex_bound, "sigma_sq", math.inf),
        (strong_convex_bound, "gamma", math.nan),
        (strong_convex_bound, "a", math.nan),
        (strong_convex_bound, "a", math.inf),
        (strong_convex_bound, "lambda2", math.inf),
        (strong_convex_bound, "d_bar", math.nan),
        (strong_convex_bound, "N", math.nan),
        (strong_convex_bound, "U0", math.nan),
        (strong_convex_bound, "V0", math.inf),
        (centralized_bound, "gamma", math.nan),
        (centralized_bound, "sigma_sq", math.nan),
        (centralized_bound, "G0", math.inf),
        (convex_bound, "L", math.nan),
        (convex_bound, "K", math.inf),
        (convex_bound, "U0", math.inf),
        (nonconvex_bound, "lambda2", math.nan),
        (nonconvex_bound, "K", math.nan),
        (nonconvex_bound, "f0_gap", math.nan),
        (nonconvex_bound, "V0", math.nan),
        (solve_hat_omega, "gamma", math.inf),
        (harmonic_speedup, "N", math.nan),
        (centralized_bound, "kappa", 0.0),
        (centralized_bound, "kappa", -1.0),
        (convex_bound, "D", -1.0),
        (convex_bound, "D", 0.0),
        (convex_bound, "D", math.inf),
        (convex_bound, "D", math.nan),
        # counts are integers
        (harmonic_speedup, "N", 5.5),
        (harmonic_speedup, "N", True),
        (convex_bound, "K", 10.5),
        (strong_convex_bound, "N", 5.5),
    ],
)
def test_out_of_range_input_names_the_argument(calculator, name, bad):
    params = inspect.signature(calculator).parameters
    args = {p: _VALID_INPUTS[p] for p in params if p in _VALID_INPUTS}
    args[name] = bad
    with pytest.raises(ValueError, match=rf"\b{name}\b.* must be ") as info:
        calculator(**args)
    assert not isinstance(info.value, InadmissibleParametersError)


@pytest.mark.parametrize(
    "calculator",
    [harmonic_speedup, solve_hat_omega, strong_convex_bound, centralized_bound, convex_bound,
     nonconvex_bound],
)
def test_every_argument_is_checked_under_its_own_name(calculator):
    # NaN is outside every range, so each argument must be refused by name
    params = inspect.signature(calculator).parameters
    valid = {p: {**_VALID_INPUTS, "D": 1.0}[p] for p in params}
    for name in params:
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            calculator(**{**valid, name: math.nan})


def test_bound_evaluators_are_pure():
    args = (RIDGE_C, RIDGE_C, 1.0, 0.01, 1.0, 20.0, 19.0, 20, 1.0, 0.0)
    assert strong_convex_bound(*args) == strong_convex_bound(*args)
    assert harmonic_speedup(17) == harmonic_speedup(17)


def test_convex_step_rule_is_off_without_noise():
    for D in (None, 1.0):
        cv = convex_bound(1.0, 0.0, 0.01, 1.0, 10.0, 9.0, 10, 1000, 1.0, 0.0, D)
        assert cv.admissible and cv.bound_at_K > 0.0
        assert math.isnan(cv.gamma_rule_value) and math.isnan(cv.phi_K_star)
        assert not cv.gamma_rule_ok
    assert math.isnan(convex_bound(1.0, 0.0, 0.01, 1.0, 10.0, 9.0, 10, 1000, 1.0, 0.0).D)


# The abstract's claim that the error bound is monotone decreasing in
# network size and connectivity, as properties over random constants.


def _log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


@st.composite
def _bound_inputs(draw):
    """Bound inputs with a step below the strongly convex caps at
    hat_omega < 1; in half the draws the attraction passes the
    nonconvex condition a > 5 L / (4 lambda2)."""
    kappa = draw(_log_uniform(-2.0, 0.5))
    L = kappa * draw(_log_uniform(0.0, 1.5))
    lambda2 = draw(_log_uniform(-1.0, 2.0))
    if draw(st.booleans()):
        a = 5.0 * L / (4.0 * lambda2) * draw(_log_uniform(0.01, 1.0))
    else:
        a = draw(_log_uniform(-1.0, 1.0))
    d_bar = draw(st.floats(min_value=1.0, max_value=30.0))
    N = draw(st.integers(min_value=2, max_value=200))
    cap = min(N / (2.0 * kappa), N * lambda2 / (4.0 * a * (N + 1) * d_bar**2), N / ((1 + N) * L))
    return dict(
        kappa=kappa, L=L, sigma_sq=draw(_log_uniform(-2.0, 2.0)),
        gamma=cap * draw(_log_uniform(-3.0, -0.01)), a=a, lambda2=lambda2, d_bar=d_bar, N=N,
    )


def _phi_star(inputs):
    """phi_star where the strongly convex bound holds with one root, else None."""
    try:
        sc = strong_convex_bound(**inputs, U0=1.0, V0=0.0)
    except InadmissibleParametersError:
        return None
    return sc.phi_star if sc.admissible and not sc.root_ambiguous else None


def _bound_at_K(calculator, inputs, K):
    args = {k: v for k, v in inputs.items() if k != "kappa"}
    start = "f0_gap" if calculator is nonconvex_bound else "U0"
    result = calculator(**args, K=K, **{start: 1.0}, V0=0.5)
    return result.bound_at_K if result.admissible else None


@settings(max_examples=300)
@given(inputs=_bound_inputs(), growth=_log_uniform(-3.0, 1.0))
def test_phi_star_does_not_rise_with_lambda2(inputs, growth):
    before = _phi_star(inputs)
    after = _phi_star({**inputs, "lambda2": inputs["lambda2"] * (1.0 + growth)})
    assume(before is not None and after is not None)
    assert after <= before * (1.0 + 1e-12)


@settings(max_examples=300)
@given(inputs=_bound_inputs(), more=st.integers(min_value=1, max_value=100))
def test_phi_star_does_not_rise_with_N(inputs, more):
    # lambda2 and d_bar held fixed
    before = _phi_star(inputs)
    after = _phi_star({**inputs, "N": inputs["N"] + more})
    assume(before is not None and after is not None)
    assert after <= before * (1.0 + 1e-12)


@settings(max_examples=300)
@given(
    inputs=_bound_inputs(),
    growth=_log_uniform(-3.0, 1.0),
    calculator=st.sampled_from([convex_bound, nonconvex_bound]),
)
def test_bound_at_K_does_not_rise_with_lambda2(inputs, growth, calculator):
    before = _bound_at_K(calculator, inputs, 1000)
    after = _bound_at_K(
        calculator, {**inputs, "lambda2": inputs["lambda2"] * (1.0 + growth)}, 1000
    )
    assume(before is not None and after is not None)
    assert after <= before * (1.0 + 1e-12)


@settings(max_examples=300)
@given(
    inputs=_bound_inputs(),
    rounds=st.integers(min_value=1, max_value=10_000),
    calculator=st.sampled_from([convex_bound, nonconvex_bound]),
)
def test_bound_at_K_per_round_does_not_rise_with_N(inputs, rounds, calculator):
    # K counts updates over all threads, so the bound is compared after
    # the same number of rounds, K = N x rounds; lambda2 and d_bar held fixed
    N = inputs["N"]
    before = _bound_at_K(calculator, inputs, N * rounds)
    after = _bound_at_K(calculator, {**inputs, "N": N + 1}, (N + 1) * rounds)
    assume(before is not None and after is not None)
    assert after <= before * (1.0 + 1e-12)


@settings(max_examples=300)
@given(inputs=_bound_inputs(), spread=_log_uniform(-2.0, 1.5))
def test_hat_omega_tends_to_its_zero_step_limit(inputs, spread):
    kappa = inputs["kappa"]
    L = kappa * (1.0 + spread)
    a, lambda2, d_bar, N = inputs["a"], inputs["lambda2"], inputs["d_bar"], inputs["N"]
    limit = (L - kappa) / (a * lambda2 + L - kappa)
    # gamma enters the weight equation through kappa L gamma and 4 a^2 d_bar^2 gamma
    scale = 1.0 / (kappa * L + 4.0 * a * a * d_bar * d_bar)
    errors = [
        abs(solve_hat_omega(kappa, L, gamma * scale, a, lambda2, d_bar, N) - limit)
        for gamma in (1e-4, 1e-7, 1e-10)
    ]
    # the root moves linearly in gamma near 0, up to round-off
    assert errors[1] <= 1e-2 * errors[0] + 1e-12
    assert errors[2] <= 1e-2 * errors[1] + 1e-12


@settings(max_examples=300)
@given(
    inputs=_bound_inputs(),
    U0=_log_uniform(-3.0, 3.0),
    V0=_log_uniform(-3.0, 3.0),
    ks=st.lists(st.integers(min_value=0, max_value=10**7), min_size=2, max_size=10),
)
def test_trajectory_approaches_phi_star_monotonically(inputs, U0, V0, ks):
    try:
        sc = strong_convex_bound(**inputs, U0=U0, V0=V0)
    except InadmissibleParametersError:
        assume(False)
    assume(0.0 < sc.C < 1.0)
    phi, start = sc.phi_star, sc.initial_weighted_error
    values = [sc.trajectory(k) for k in sorted(set(ks))]
    slack = 1e-12 * max(start, phi)
    # every step moves toward phi_star without passing it: down from above, up from below
    for earlier, later in zip(values, values[1:]):
        if start >= phi:
            assert phi - slack <= later <= earlier + slack
        else:
            assert earlier - slack <= later <= phi + slack
    # (1 - C)^(40 / C) < e^-40
    assert sc.trajectory(math.ceil(40.0 / sc.C)) == pytest.approx(phi, rel=1e-9, abs=slack)
