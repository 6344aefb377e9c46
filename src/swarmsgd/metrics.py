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

from . import objective as obj
from . import topology

# The fewest replications ``lemma2_monte_carlo_check`` accepts.
MIN_REPLICATIONS = 1000
_REL_SLACK = 1e-9
_ESTIMATE_FLOOR = 1000


@dataclass(frozen=True)
class MetricSnapshot:
    """Metrics of one recorded state; U is NaN when the optimum is unknown."""

    U: float
    Vbar: float
    f_gap: float
    grad_norm_sq: float


def _frozen_state(positions: np.ndarray, n_rows: int | None, dim: int):
    """``positions`` as a float array with its mean, its rows' deviations
    from the mean and their mean squared norm Vbar. ValueError unless the
    shape is (n_rows, dim), any row count when ``n_rows`` is None."""
    X = np.asarray(positions, dtype=float)
    if X.ndim != 2 or X.shape[1] != dim or n_rows not in (None, X.shape[0]):
        expected = "*" if n_rows is None else n_rows
        raise ValueError(f"positions have shape {X.shape}, expected ({expected}, {dim})")
    mean = X.mean(axis=0)
    deviations = X - mean
    return X, mean, deviations, float((deviations**2).sum() / X.shape[0])


def snapshot(
    positions: np.ndarray, spec: obj.ObjectiveSpec, x_star: np.ndarray | None, f_star: float
) -> MetricSnapshot:
    """Compute all trace metrics for an (N, m) position matrix, given the
    optimum (None when unknown) and the optimal value."""
    _, mean, _, Vbar = _frozen_state(positions, None, spec.dim)
    if x_star is None:
        U = math.nan
    else:
        diff = mean - x_star
        U = float(diff @ diff)
    f_gap = obj.value(spec, mean) - f_star
    g = obj.grad_exact(spec, mean)
    return MetricSnapshot(U=U, Vbar=Vbar, f_gap=f_gap, grad_norm_sq=float(g @ g))


@dataclass(frozen=True)
class Lemma4Result:
    lhs: float
    rhs: float
    holds: bool


def _attraction_rows(graph: topology.Graph, X: np.ndarray) -> np.ndarray:
    """Row i holds sum_j a_ij (x_i - x_j)."""
    return graph.degrees[:, None] * X - graph.adjacency.astype(float) @ X


def lemma4_check(
    positions: np.ndarray,
    graph: topology.Graph,
    spec: obj.ObjectiveSpec,
    a: float,
) -> Lemma4Result:
    """Deterministic bound on the summed gradient-plus-attraction norms.

    Checks sum_i |grad f(x_i) + a sum_j a_ij (x_i - x_j)|^2
    <= 2 sum_i |grad f(x_i)|^2 + 8 a^2 N dbar^2 Vbar
    with a small relative slack for floating point round-off.
    """
    X, _, _, Vbar = _frozen_state(positions, graph.n_vertices, spec.dim)
    grads = obj.grad_exact_rows(spec, X)
    drift = grads + a * _attraction_rows(graph, X)
    lhs = float((drift**2).sum())
    dbar = topology.max_degree(graph)
    rhs = float(
        2.0 * (grads**2).sum() + 8.0 * a * a * graph.n_vertices * dbar * dbar * Vbar
    )
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
    step size ``gamma`` and attraction ``a``.
    """
    if n_replications < MIN_REPLICATIONS:
        raise ValueError(f"need at least {MIN_REPLICATIONS} replications, got {n_replications}")
    N = graph.n_vertices
    X, _, deviations, Vbar = _frozen_state(positions, N, spec.dim)
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
    samples = obj.noisy_gradients(spec, X[idx], rng)
    deltas = gamma * (-samples - a * attraction[idx])
    v_next = dispersion_after_single_update(Vbar, deviations[idx], deltas, N)
    lhs = float(v_next.mean())
    std_err = float(v_next.std(ddof=1) / math.sqrt(n_replications))
    return Lemma2Result(
        lhs=lhs,
        rhs=float(rhs),
        std_err=std_err,
        sigma_sq_hat=sigma_sq_hat,
        holds=lhs <= rhs + 3.0 * std_err,
    )
