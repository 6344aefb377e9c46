"""Trajectory statistics and runtime validators for swarm runs.

The central quantities are the squared distance of the swarm mean from
the optimum (``U``), the mean squared dispersion of threads around that
mean (``Vbar``), and the suboptimality and gradient norm at the mean.
The two ``lemma*`` validators check, on live states, the algebraic
inequalities that the convergence analysis rests on: a deterministic
bound on the combined gradient-plus-attraction magnitudes, and a
one-step conditional drift bound on the dispersion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from . import objective as obj
from . import topology
from ._ranges import COUNT, Range, args, check

# The counts ``lemma2_monte_carlo_check`` accepts.
RANGES = {
    "n_replications": Range(1000, math.inf, "an integer at least 1000", integer=True),
    "sigma_samples": COUNT,
}
_REL_SLACK = 1e-9
_ESTIMATE_FLOOR = 1000


@dataclass(frozen=True)
class MetricSnapshot:
    """Metrics of R recorded states, one (R,) array each; U NaN without an optimum."""

    U: np.ndarray
    Vbar: np.ndarray
    f_gap: np.ndarray
    grad_norm_sq: np.ndarray


def _dispersion(states: np.ndarray, n_rows: int | None, dim: int):
    """``states`` as a float (R, N, dim) stack, N = ``n_rows`` unless that
    is None, with each state's mean and Vbar, the mean squared norm of its
    rows' deviations from that mean. ValueError naming the shape
    otherwise. Row r rounds as state r alone would."""
    P = np.asarray(states, dtype=float)
    if P.ndim != 3 or P.shape[2] != dim or n_rows not in (None, P.shape[1]):
        expected = f"(R, {'N' if n_rows is None else n_rows}, {dim})"
        raise ValueError(f"states have shape {P.shape}, expected {expected}")
    means = P.mean(axis=1)
    # One stack-sized temporary, squared in place: a second one costs
    # more than the arithmetic on the engine's record stacks.
    squares = P - means[:, None, :]
    np.square(squares, out=squares)
    return P, means, squares.reshape(len(P), -1).sum(axis=1) / P.shape[1]


def snapshot(
    states: np.ndarray, spec: obj.ObjectiveSpec, x_star: np.ndarray | None, f_star: float
) -> MetricSnapshot:
    """Compute all trace metrics for each state of an (R, N, m) stack,
    given the optimum (None when unknown) and the optimal value. Row r
    rounds as state r alone would: each dot product is a ``_kernel.dots`` row."""
    _, means, Vbar = _dispersion(states, None, spec.dim)
    diffs = np.full_like(means, math.nan) if x_star is None else means - x_star
    grads = obj.grad_exact_rows(spec, means)
    f_gap = obj.value_rows(spec, means) - f_star
    return MetricSnapshot(_kernel.dots(diffs, diffs), Vbar, f_gap, _kernel.dots(grads, grads))


def watched_errors(spec, x_star, means: np.ndarray) -> np.ndarray:
    """What the engine's threshold watch tests of each row of ``means``, a
    swarm mean: its squared error to ``x_star``, or its squared gradient
    norm when no optimum is known. ``means`` is overwritten; ``_kernel.dots``
    rounds each row as e.dot(e)."""
    if x_star is None:
        err = obj.grad_exact_rows(spec, means)
    else:
        err = np.subtract(means, x_star, out=means)
    return _kernel.dots(err, err)


@dataclass(frozen=True)
class Lemma4Result:
    """Lemma 4 at R states, one (R,) array each."""

    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray


def _attraction_rows(graph: topology.Graph, X: np.ndarray) -> np.ndarray:
    """Row i holds sum_j a_ij (x_i - x_j); ``X`` may be a stack of states,
    each multiplied by the adjacency matrix in one gemm of its own."""
    return graph.degrees[:, None] * X - graph.adjacency.astype(float) @ X


def lemma4_check(
    states: np.ndarray,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    a: float,
) -> Lemma4Result:
    """Deterministic bound on the summed gradient-plus-attraction norms,
    at each state of an (R, N, dim) stack.

    Checks sum_i |grad f(x_i) + a sum_j a_ij (x_i - x_j)|^2
    <= 2 sum_i |grad f(x_i)|^2 + 8 a^2 N dbar^2 Vbar
    with a small relative slack for floating point round-off. Row r
    rounds as state r checked alone would: its sums are ``sum`` rows and
    its products one gemm per state. So a stack the engine hands
    ``on_record`` is checked as it comes, in one call.
    """
    N = graph.n_vertices
    P, _, Vbar = _dispersion(states, N, spec.dim)
    flat = (len(P), N * spec.dim)
    grads = obj.grad_exact_rows(spec, P)
    drift = grads + a * _attraction_rows(graph, P)
    lhs = (drift**2).reshape(flat).sum(axis=1)
    dbar = topology.max_degree(graph)
    rhs = 2.0 * (grads**2).reshape(flat).sum(axis=1) + 8.0 * a * a * N * dbar * dbar * Vbar
    return Lemma4Result(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + _REL_SLACK))


@dataclass(frozen=True)
class Lemma2Result:
    lhs: float
    rhs: float
    std_err: float
    sigma_sq_hat: float
    holds: bool


def dispersion_after_single_update(
    Vbar: float,
    deviation_i: np.ndarray,
    delta: np.ndarray,
    n_threads: int,
) -> np.ndarray:
    """Dispersion after adding ``delta`` to the thread whose deviation
    from the swarm mean is ``deviation_i``.

    Exact rank-one update: moving one of N rows by delta shifts the
    mean by delta/N, giving
    Vbar' = Vbar + (2 deviation_i . delta + (1 - 1/N) |delta|^2) / N.
    Accepts stacked rows of deltas and returns one value per row.
    """
    cross = (np.asarray(deviation_i) * delta).sum(axis=-1)
    norms = (np.asarray(delta) ** 2).sum(axis=-1)
    return Vbar + (2.0 * cross + (1.0 - 1.0 / n_threads) * norms) / n_threads


def lemma2_monte_carlo_check(
    positions: np.ndarray,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    gamma: float,
    a: float,
    n_replications: int,
    rng: np.random.Generator,
    sigma_samples: int = 100_000,
) -> Lemma2Result:
    """Monte Carlo check of the one-step conditional dispersion bound.

    Replays a single asynchronous update from the frozen state many
    times (uniform updating thread, fresh gradient sample) and compares
    the empirical mean of the next dispersion against the closed-form
    drift bound evaluated with an estimated gradient noise variance, for
    step size ``gamma`` and attraction ``a``. The variance is estimated
    from ``max(1000, sigma_samples // N)`` samples at each thread, and the
    replays are drawn through ``objective.noisy_gradient_chunks``, so
    memory is O(chunk * dim) plus a few 8-byte values per replication.
    """
    check(args(RANGES, "n_replications", "sigma_samples"), (n_replications, sigma_samples))
    N = graph.n_vertices
    X = np.asarray(positions, dtype=float)
    if X.shape != (N, spec.dim):
        raise ValueError(f"positions have shape {X.shape}, expected ({N}, {spec.dim})")
    _, (mean,), (Vbar,) = _dispersion(X[None], N, spec.dim)
    deviations, Vbar = X - mean, float(Vbar)
    grads = obj.grad_exact_rows(spec, X)
    attraction = _attraction_rows(graph, X)
    lam2 = topology.algebraic_connectivity(graph)

    per_thread = max(_ESTIMATE_FLOOR, sigma_samples // N)
    sigma_sq_hat = float(
        np.mean([obj.estimate_noise_variance(spec, X[i], per_thread, rng) for i in range(N)])
    )

    drift_sq = float(((grads + a * attraction) ** 2).sum())
    grad_dot_dev = float((grads * deviations).sum())
    rhs = (
        Vbar
        - (2.0 * gamma / N**2) * grad_dot_dev
        - (2.0 / N) * a * lam2 * gamma * Vbar
        + (gamma**2 / N**2) * drift_sq
        + gamma**2 * sigma_sq_hat / N
    )

    idx = rng.integers(N, size=n_replications)
    v_next = np.empty(n_replications)
    for start, samples in obj.noisy_gradient_chunks(spec, X, rng, idx):
        rows = slice(start, start + len(samples))
        deltas = gamma * (-samples - a * attraction[idx[rows]])
        v_next[rows] = dispersion_after_single_update(Vbar, deviations[idx[rows]], deltas, N)
    lhs = float(v_next.mean())
    std_err = float(v_next.std(ddof=1) / math.sqrt(n_replications))
    return Lemma2Result(
        lhs=lhs,
        rhs=float(rhs),
        std_err=std_err,
        sigma_sq_hat=sigma_sq_hat,
        holds=lhs <= rhs + 3.0 * std_err,
    )
