"""Closed-form convergence bounds for the asynchronous swarm scheme.

Each calculator takes explicit problem constants (strong convexity
``kappa``, smoothness ``L``, gradient noise variance ``sigma_sq``) and
scheme constants (step size ``gamma``, attraction ``a``, algebraic
connectivity ``lambda2``, max degree ``d_bar``, thread count ``N``) and
returns the quantities of the corresponding bound: a weighted error
recursion for strongly convex objectives, fixed point and contraction
for the synchronized baseline, averaged-iterate guarantees for merely
convex objectives, and a stationarity guarantee for smooth nonconvex
objectives. Calculators report admissibility rather than guessing:
every bound carries the step-size and attraction conditions under
which it is proven.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass

from ._ranges import AT_LEAST_1, NONNEGATIVE, POSITIVE, Range, args, check


class InadmissibleParametersError(ValueError):
    """Raised when a bound's own validity conditions cannot hold."""


# The range of every input a calculator takes, by argument name. The
# counts N and K are taken as floats, so they must convert exactly.
RANGES = {
    **dict.fromkeys(("kappa", "L", "gamma", "lambda2", "D"), POSITIVE),
    **dict.fromkeys(("sigma_sq", "a", "U0", "V0", "G0", "f0_gap"), NONNEGATIVE),
    "d_bar": AT_LEAST_1,
    **dict.fromkeys(("N", "K"), Range(1, 2**53, "an integer in [1, 2**53]", integer=True)),
}


@dataclass(frozen=True)
class HarmonicSpeedup:
    """Predicted per-step slowdown of the synchronized baseline: the
    expected maximum of N unit-mean exponentials is the N-th harmonic
    number, so baseline steps take H_N times a single sampling time."""

    H_N: float
    delta_t_c_over_delta_t: float


# Up to this N the harmonic number is summed exactly (about 10 ms);
# above it the Euler-Maclaurin expansion agrees with the sum to an ulp.
HARMONIC_SUM_MAX_N = 100_000
_EULER_GAMMA = 0.5772156649015329


def harmonic_speedup(N: int) -> HarmonicSpeedup:
    check(_ARGS["harmonic_speedup"], (N,))
    if N <= HARMONIC_SUM_MAX_N:
        h = math.fsum(1.0 / i for i in range(1, N + 1))
    else:
        h = math.log(N) + _EULER_GAMMA + 1.0 / (2 * N) - 1.0 / (12 * N**2) + 1.0 / (120 * N**4)
    return HarmonicSpeedup(H_N=h, delta_t_c_over_delta_t=h)


def _hat_omega_coefficients(
    kappa: float, L: float, gamma: float, a: float, lambda2: float, d_bar: float, N: int
) -> tuple[float, float, float]:
    """Coefficients (A, B, C0) of the weight equation A w^2 + B w + C0 = 0."""
    A = kappa * L * gamma
    B = -(
        kappa
        + (N - 1) / N * kappa * L * gamma
        - L
        - a * lambda2
        + 4.0 * a * a * d_bar * d_bar * gamma
    )
    C0 = kappa - kappa * L * gamma / N - 4.0 / N * a * a * d_bar * d_bar * gamma - L
    return A, B, C0


def _hat_omega_roots(
    kappa: float,
    L: float,
    gamma: float,
    a: float,
    lambda2: float,
    d_bar: float,
    N: int,
) -> list[float]:
    """Roots of the weight equation inside the open interval (0, 1),
    smallest first; raises InadmissibleParametersError when there is
    none."""
    A, B, C0 = _hat_omega_coefficients(kappa, L, gamma, a, lambda2, d_bar, N)
    disc = B * B - 4.0 * A * C0
    candidates = []
    if disc >= 0.0:
        sqrt_disc = math.sqrt(disc)
        # Citardauq-style split avoids cancellation in the small root.
        q = -0.5 * (B + sqrt_disc) if B >= 0.0 else -0.5 * (B - sqrt_disc)
        if A != 0.0:
            candidates.append(q / A)
        if q != 0.0:
            candidates.append(C0 / q)
    roots = []
    for r in candidates:
        if not 0.0 < r < 1.0:
            continue
        # One Newton polish keeps the substitution residual at round-off.
        slope = 2.0 * A * r + B
        if slope != 0.0:
            r = r - (A * r * r + B * r + C0) / slope
        if 0.0 < r < 1.0:
            roots.append(r)
    roots = sorted(set(roots))
    for r in roots:
        # relative to the size of the terms, which grows with L
        residual = abs(A * r * r + B * r + C0)
        if residual > 1e-10 * (abs(A) * r * r + abs(B) * r + abs(C0)):
            raise ArithmeticError(f"weight equation residual {residual:.3e} too large")
    if not roots:
        raise InadmissibleParametersError(
            "weight equation has no root in (0, 1); the step size or "
            "attraction is outside the admissible range"
        )
    return roots


def solve_hat_omega(
    kappa: float, L: float, gamma: float, a: float, lambda2: float, d_bar: float, N: int
) -> float:
    """Dispersion weight for the strongly convex error recursion.

    Solves the quadratic weight equation and returns its root in
    (0, 1); when both roots land inside, the smaller one is returned
    (``strong_convex_bound`` additionally flags that case). As the step
    size tends to zero the root tends to (L - kappa) / (a lambda2 + L - kappa).
    """
    check(_ARGS["solve_hat_omega"], (kappa, L, gamma, a, lambda2, d_bar, N))
    return _hat_omega_roots(kappa, L, gamma, a, lambda2, d_bar, N)[0]


@dataclass(frozen=True)
class StrongConvexBound:
    """Weighted-error bound for strongly convex objectives.

    The weighted error U + hat_omega * Vbar contracts by (1 - C) per
    update down to the fixed point ``phi_star``. ``gamma_caps`` are the
    three step-size ceilings whose minimum must exceed gamma for the
    bound to hold; ``corollary_gamma_ok`` reports the stronger step
    condition under which phi_star scales like sigma^2 / (kappa lambda2).
    """

    hat_omega: float
    C: float
    phi_star: float
    gamma_caps: tuple[float, float, float]
    admissible: bool
    root_ambiguous: bool
    corollary_gamma_ok: bool
    initial_weighted_error: float

    def trajectory(self, k: int) -> float:
        """Bound on the weighted error after k updates."""
        return self.phi_star + (self.initial_weighted_error - self.phi_star) * (
            1.0 - self.C
        ) ** k


def strong_convex_bound(
    kappa: float,
    L: float,
    sigma_sq: float,
    gamma: float,
    a: float,
    lambda2: float,
    d_bar: float,
    N: int,
    U0: float,
    V0: float,
) -> StrongConvexBound:
    check(
        _ARGS["strong_convex_bound"], (kappa, L, sigma_sq, gamma, a, lambda2, d_bar, N, U0, V0)
    )
    roots = _hat_omega_roots(kappa, L, gamma, a, lambda2, d_bar, N)
    hat_omega = roots[0]
    root_ambiguous = len(roots) > 1

    cap_smooth = N / ((1.0 + hat_omega * N) * L)
    cap_curvature = N / (2.0 * kappa)
    if a > 0.0:
        cap_attraction = N * lambda2 / (4.0 * a * (N + 1) * d_bar * d_bar)
    else:
        cap_attraction = math.inf
    caps = (cap_smooth, cap_curvature, cap_attraction)
    admissible = gamma < min(caps)

    C = 2.0 / N * kappa * gamma - 2.0 / N**2 * kappa * (1.0 + hat_omega * N) * L * gamma**2
    denom = 2.0 * kappa * N - 2.0 * kappa * (1.0 + hat_omega * N) * L * gamma
    phi_star = (1.0 + hat_omega * N) * gamma * sigma_sq / denom if denom > 0.0 else math.inf

    cap_corollary = (a * lambda2 + 2.0 * L - 2.0 * kappa) / (
        2.0 * (kappa * L + 4.0 * a * a * d_bar * d_bar)
    )
    corollary_gamma_ok = gamma < min(cap_corollary, 2.0 / L)

    return StrongConvexBound(
        hat_omega=hat_omega,
        C=C,
        phi_star=phi_star,
        gamma_caps=caps,
        admissible=admissible,
        root_ambiguous=root_ambiguous,
        corollary_gamma_ok=corollary_gamma_ok,
        initial_weighted_error=U0 + hat_omega * V0,
    )


@dataclass(frozen=True)
class CentralizedBound:
    """Error bound for the synchronized batch baseline: squared error
    contracts per step toward ``phi_star_star``."""

    phi_star_star: float
    contraction: float
    G0: float
    # Inadmissible inputs raise instead of being reported.
    admissible = True

    def trajectory(self, k: int) -> float:
        """Bound on the squared error after k >= 1 steps."""
        if k < 1:
            raise ValueError(f"trajectory is defined for k >= 1, got {k}")
        return self.phi_star_star + (self.G0 - self.phi_star_star) * self.contraction ** (
            k - 1
        )


def centralized_bound(
    kappa: float, L: float, sigma_sq: float, gamma: float, N: int, G0: float
) -> CentralizedBound:
    check(_ARGS["centralized_bound"], (kappa, L, sigma_sq, gamma, N, G0))
    if gamma >= 2.0 / L:
        raise InadmissibleParametersError(
            f"step size {gamma} must be below 2/L = {2.0 / L}"
        )
    phi_star_star = gamma * sigma_sq / (kappa * N * (2.0 - L * gamma))
    contraction = 1.0 - 2.0 * kappa * gamma + kappa * L * gamma**2
    return CentralizedBound(phi_star_star=phi_star_star, contraction=contraction, G0=G0)


@dataclass(frozen=True)
class ConvexBound:
    """Averaged-iterate bound for convex objectives.

    ``bound_at_K`` bounds the expected suboptimality of the running
    average of swarm means after K updates. The step rule
    gamma = D sqrt(lambda2 N) / (sigma sqrt(K)), when it respects
    ``gamma_rule_caps``, yields the rate ``phi_K_star`` that decays
    like sigma / sqrt(lambda2 K).
    """

    tilde_omega: float
    mu: float
    bound_at_K: float
    admissible: bool
    D: float
    gamma_rule_value: float
    gamma_rule_caps: tuple[float, float]
    gamma_rule_ok: bool
    phi_K_star: float


def convex_bound(
    L: float,
    sigma_sq: float,
    gamma: float,
    a: float,
    lambda2: float,
    d_bar: float,
    N: int,
    K: int,
    U0: float,
    V0: float,
    D: float | None = None,
) -> ConvexBound:
    """Bound for convex objectives; ``D`` defaults to the value that
    makes the step rule reproduce the given gamma exactly."""
    # D, the last argument, is checked only when given
    check(_ARGS["convex_bound"], (L, sigma_sq, gamma, a, lambda2, d_bar, N, K, U0, V0))
    if D is not None:
        check(_ARGS["convex_bound"][-1:], (D,))

    denom = N * L + a * N * lambda2 - 4.0 * a * a * N * d_bar * d_bar * gamma
    tilde_omega = (N * L + 4.0 * a * a * d_bar * d_bar * gamma) / denom if denom != 0.0 else math.inf
    mu = gamma / N**2 - (1.0 + tilde_omega * N) * gamma**2 * L / N**3
    admissible = 0.0 < tilde_omega < 1.0 and mu > 0.0

    if admissible:
        bound_at_K = (
            U0 + tilde_omega * V0 + (1.0 + tilde_omega * N) * K * gamma**2 * sigma_sq / N**2
        ) / (2.0 * N * K * mu)
    else:
        bound_at_K = math.nan

    sigma = math.sqrt(sigma_sq)
    if D is None:
        D = gamma * sigma * math.sqrt(K) / math.sqrt(lambda2 * N) if sigma > 0.0 else math.nan
    cap_dispersion = lambda2 / (8.0 * a * d_bar * d_bar) if a > 0.0 else math.inf
    cap_step = (
        (2.0 * L + a * lambda2) * N / (4.0 * (N * L + L + a * lambda2) * L)
    )
    caps = (cap_dispersion, cap_step)
    # The step rule needs noise and a positive D; NaN fails D > 0.
    if sigma > 0.0 and D > 0.0:
        gamma_rule_value = D * math.sqrt(lambda2 * N) / (sigma * math.sqrt(K))
        gamma_rule_ok = gamma_rule_value <= min(caps)
        phi_K_star = (
            sigma
            * math.sqrt(N)
            / (D * math.sqrt(lambda2 * K))
            * (
                U0
                + tilde_omega * V0
                + (1.0 + (2.0 * N * L + a * lambda2) / (2.0 * L + a * lambda2))
                * D
                * D
                * lambda2
                / N
            )
        )
    else:
        gamma_rule_value = phi_K_star = math.nan
        gamma_rule_ok = False

    return ConvexBound(
        tilde_omega=tilde_omega,
        mu=mu,
        bound_at_K=bound_at_K,
        admissible=admissible,
        D=D,
        gamma_rule_value=gamma_rule_value,
        gamma_rule_caps=caps,
        gamma_rule_ok=gamma_rule_ok,
        phi_K_star=phi_K_star,
    )


@dataclass(frozen=True)
class NonconvexBound:
    """Stationarity bound for smooth nonconvex objectives.

    ``bound_at_K`` bounds (1/L) E |grad f|^2 at the swarm mean of a
    uniformly random update index. Requires the attraction to dominate
    the curvature: a > 5 L / (4 lambda2), reported as ``attraction_ok``.
    """

    check_omega: float
    check_mu: float
    bound_at_K: float
    attraction_ok: bool
    admissible: bool


def nonconvex_bound(
    L: float,
    sigma_sq: float,
    gamma: float,
    a: float,
    lambda2: float,
    d_bar: float,
    N: int,
    K: int,
    f0_gap: float,
    V0: float,
) -> NonconvexBound:
    check(_ARGS["nonconvex_bound"], (L, sigma_sq, gamma, a, lambda2, d_bar, N, K, f0_gap, V0))

    attraction_ok = a > 5.0 * L / (4.0 * lambda2)
    curvature_mix = 2.0 * L * L + 4.0 * a * a * d_bar * d_bar
    denom = 4.0 * N * (a * lambda2 - L) - 4.0 * N * curvature_mix * gamma
    check_omega = (N * L + 2.0 * curvature_mix * gamma) / denom if denom != 0.0 else math.inf
    check_mu = gamma / (2.0 * N**2) - (2.0 + 4.0 * check_omega * N) * L * gamma**2 / N**3
    admissible = attraction_ok and 0.0 < check_omega < 1.0 and check_mu > 0.0

    if admissible:
        bound_at_K = (
            (f0_gap + check_omega * L * V0) / L
            + (0.5 + check_omega * N) * K * gamma**2 * sigma_sq / N**2
        ) / (N * K * check_mu)
    else:
        bound_at_K = math.nan

    return NonconvexBound(
        check_omega=check_omega,
        check_mu=check_mu,
        bound_at_K=bound_at_K,
        attraction_ok=attraction_ok,
        admissible=admissible,
    )


# The arguments of each calculator and their ranges, in signature order.
_ARGS = {
    f.__name__: args(RANGES, *inspect.signature(f).parameters)
    for f in (harmonic_speedup, solve_hat_omega, strong_convex_bound, centralized_bound,
              convex_bound, nonconvex_bound)
}
