"""Objective functions, exact gradients, and stochastic gradient oracles.

Three families are supported:

- ``ridge``: online ridge regression with features drawn uniformly from
  [-1, 1]^m, responses ``u . x_tilde + eps`` with unit Gaussian noise,
  and an L2 penalty. The population objective has the closed form
  ``|x - x_tilde|^2 / 3 + rho |x|^2 + 1``.
- ``quadratic``: ``0.5 x'Qx + b'x`` with additive Gaussian gradient
  noise of a configurable scale.
- ``nonconvex_sine``: separable ``sum_i x_i^2 / 2 + 3 sin^2(x_i)`` with
  additive Gaussian gradient noise; smooth, bounded curvature, many
  stationary points, global minimum 0 at the origin.

The oracle is stated once, for a block of calls: ``noisy_gradients``
gives one unbiased sample per row, from randomness ``draw_noise_block``
draws, and the engine evaluates such blocks inline. The per-call
``noisy_gradient`` is one row of it; ``sample_gradient`` adds the
exponential sampling duration, the engine's unit of virtual time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .randomness import polar_normals, sampling_durations

RIDGE = "ridge"
QUADRATIC = "quadratic"
NONCONVEX_SINE = "nonconvex_sine"
KINDS = (RIDGE, QUADRATIC, NONCONVEX_SINE)

STRONGLY_CONVEX = "strongly_convex"
NONCONVEX = "nonconvex"

# |d^2/dx^2 (x^2/2 + 3 sin^2 x)| = |1 + 6 cos 2x| <= 7
SINE_CURVATURE_BOUND = 7.0

_ESTIMATE_MIN_SAMPLES = 100
_BATCH_ROWS = 65_536


@dataclass(frozen=True, eq=False)
class ObjectiveSpec:
    """Immutable description of one objective instance; its ``kind``, one
    of ``KINDS``, is checked when it is built."""

    kind: str
    dim: int
    rho: float | None = None
    x_tilde: np.ndarray | None = None
    Q: np.ndarray | None = None
    b: np.ndarray | None = None
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown objective kind {self.kind!r}")


@dataclass(frozen=True)
class GradientSample:
    """One stochastic gradient together with its sampling duration."""

    g: np.ndarray
    sampling_time: float


@dataclass(frozen=True)
class Regularity:
    """Strong-convexity and smoothness constants of an objective."""

    kappa: float
    L: float
    convexity_class: str


def ridge_spec(rho: float, x_tilde: np.ndarray) -> ObjectiveSpec:
    """Ridge objective for a given target vector."""
    if not 0.0 < rho < np.inf:
        raise ValueError(f"ridge penalty must be finite and positive, got {rho}")
    target = np.asarray(x_tilde, dtype=float)
    if target.ndim != 1 or target.size < 1:
        raise ValueError("x_tilde must be a nonempty vector")
    if not (0.0 <= target.min() and target.max() <= 1.0):
        raise ValueError("x_tilde entries must lie in [0, 1]")
    target = target.copy()
    target.setflags(write=False)
    return ObjectiveSpec(kind=RIDGE, dim=target.size, rho=float(rho), x_tilde=target)


def ridge_spec_random(rho: float, dim: int, rng: np.random.Generator) -> ObjectiveSpec:
    """Ridge objective with the target drawn uniformly from [0, 1]^dim."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return ridge_spec(rho, rng.random(dim))


def quadratic_spec(Q: np.ndarray, b: np.ndarray, noise_std: float = 1.0) -> ObjectiveSpec:
    """Quadratic objective 0.5 x'Qx + b'x with Gaussian gradient noise."""
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be square, got shape {Q.shape}")
    if b.shape != (Q.shape[0],):
        raise ValueError(f"b has shape {b.shape}, expected ({Q.shape[0]},)")
    if not (np.isfinite(Q).all() and np.isfinite(b).all()):
        raise ValueError("Q and b must be finite")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    if np.linalg.eigvalsh(Q)[0] <= 0.0:
        raise ValueError("Q must be positive definite")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise std must be finite and nonnegative, got {noise_std}")
    Q = Q.copy()
    b = b.copy()
    Q.setflags(write=False)
    b.setflags(write=False)
    return ObjectiveSpec(kind=QUADRATIC, dim=b.size, Q=Q, b=b, noise_std=float(noise_std))


def nonconvex_sine_spec(dim: int, noise_std: float = 1.0) -> ObjectiveSpec:
    """Separable sine-well objective sum_i x_i^2/2 + 3 sin^2(x_i)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if not 0.0 <= noise_std < np.inf:
        raise ValueError(f"noise std must be finite and nonnegative, got {noise_std}")
    return ObjectiveSpec(kind=NONCONVEX_SINE, dim=dim, noise_std=float(noise_std))


def _check_point(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({spec.dim},)")
    return x


def _check_rows(spec: ObjectiveSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.dim:
        raise ValueError(f"rows have shape {X.shape}, expected (*, {spec.dim})")
    return X


def value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Population objective value at ``x``."""
    x = _check_point(spec, x)
    if spec.kind == RIDGE:
        diff = x - spec.x_tilde
        return float(diff @ diff / 3.0 + spec.rho * (x @ x) + 1.0)
    if spec.kind == QUADRATIC:
        return float(0.5 * x @ spec.Q @ x + spec.b @ x)
    s = np.sin(x)
    return float(0.5 * (x @ x) + 3.0 * (s @ s))


def grad_exact(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """Exact population gradient at ``x``: row 0 of ``grad_exact_rows``,
    except for quadratic, whose ``Q @ x`` rounds differently from ``x @ Q``."""
    x = _check_point(spec, x)
    if spec.kind == QUADRATIC:
        return spec.Q @ x + spec.b
    return grad_exact_rows(spec, x[None, :])[0]


def grad_exact_rows(spec: ObjectiveSpec, X: np.ndarray) -> np.ndarray:
    """Exact gradients at each row of ``X``, shape preserved."""
    X = _check_rows(spec, X)
    if spec.kind == RIDGE:
        return (2.0 / 3.0 + 2.0 * spec.rho) * X - (2.0 / 3.0) * spec.x_tilde
    if spec.kind == QUADRATIC:
        return X @ spec.Q + spec.b
    return X + 3.0 * np.sin(2.0 * X)


def noisy_gradient(spec: ObjectiveSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One unbiased stochastic gradient at ``x``: row 0 of ``noisy_gradients``."""
    return noisy_gradients(spec, _check_point(spec, x)[None, :], rng)[0]


def noisy_gradients(spec: ObjectiveSpec, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent stochastic gradients, one per row of ``X``."""
    X = _check_rows(spec, X)
    U, c = draw_noise_block(spec, X.shape[0], rng)
    if U is None:
        return grad_exact_rows(spec, X) + c
    residual = np.einsum("ij,ij->i", U, X) - c
    return 2.0 * residual[:, None] * U + 2.0 * spec.rho * X


def draw_noise_block(
    spec: ObjectiveSpec, rows: int, rng: np.random.Generator
) -> tuple[np.ndarray | None, np.ndarray]:
    """Randomness of the next ``rows`` oracle calls, drawn in one go.

    Returns ``(U, c)``. For ``ridge``, ``U`` holds the (rows, dim)
    feature rows, uniform on [-1, 1]^m, and ``c = U @ x_tilde + eps``
    the (rows,) responses with standard normal ``eps``; call ``j`` at
    ``x`` samples ``2 (U[j] . x - c[j]) U[j] + 2 rho x``. For the
    additive-noise kinds ``U`` is None and ``c`` is the (rows, dim)
    noise ``noise_std * Z`` added to the exact gradient; nothing is
    drawn when ``noise_std`` is 0. Each row is one unbiased sample.
    """
    if spec.kind == RIDGE:
        U = rng.random((rows, spec.dim))
        U *= 2.0
        U -= 1.0
        return U, U @ spec.x_tilde + polar_normals(rng, rows)
    if spec.noise_std == 0.0:
        return None, np.zeros((rows, spec.dim))
    return None, spec.noise_std * polar_normals(rng, rows * spec.dim).reshape(rows, spec.dim)


def sample_gradient(
    spec: ObjectiveSpec,
    x: np.ndarray,
    mean_time: float,
    rng: np.random.Generator,
) -> GradientSample:
    """One oracle call: a stochastic gradient plus its sampling duration.

    The duration is exponential with the given mean, drawn after the
    gradient so the two consume disjoint parts of the stream in a fixed
    order.
    """
    if not 0.0 < mean_time < np.inf:
        raise ValueError(f"mean sampling time must be finite and positive, got {mean_time}")
    g = noisy_gradient(spec, x, rng)
    return GradientSample(g=g, sampling_time=float(sampling_durations(rng, mean_time, 1)[0]))


def optimum(spec: ObjectiveSpec) -> np.ndarray | None:
    """Closed-form minimizer, or None when there is no usable formula."""
    if spec.kind == RIDGE:
        return spec.x_tilde / (1.0 + 3.0 * spec.rho)
    if spec.kind == QUADRATIC:
        return np.linalg.solve(spec.Q, -spec.b)
    return None


def optimal_value(spec: ObjectiveSpec) -> float:
    """Minimum objective value."""
    if spec.kind in (RIDGE, QUADRATIC):
        return value(spec, optimum(spec))
    # Both sine terms are nonnegative and vanish together at the origin.
    return 0.0


def regularity(spec: ObjectiveSpec) -> Regularity:
    """Curvature constants: strong convexity kappa and smoothness L."""
    if spec.kind == RIDGE:
        c = 2.0 / 3.0 + 2.0 * spec.rho
        return Regularity(kappa=c, L=c, convexity_class=STRONGLY_CONVEX)
    if spec.kind == QUADRATIC:
        eigenvalues = np.linalg.eigvalsh(spec.Q)
        return Regularity(
            kappa=float(eigenvalues[0]),
            L=float(eigenvalues[-1]),
            convexity_class=STRONGLY_CONVEX,
        )
    return Regularity(kappa=0.0, L=SINE_CURVATURE_BOUND, convexity_class=NONCONVEX)


def estimate_noise_variance(
    spec: ObjectiveSpec,
    x: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of E|g(x, xi) - grad f(x)|^2 at a point."""
    if n_samples < _ESTIMATE_MIN_SAMPLES:
        raise ValueError(f"need at least {_ESTIMATE_MIN_SAMPLES} samples, got {n_samples}")
    x = _check_point(spec, x)
    g_exact = grad_exact(spec, x)
    total = 0.0
    remaining = n_samples
    while remaining > 0:
        rows = min(remaining, _BATCH_ROWS)
        G = noisy_gradients(spec, np.broadcast_to(x, (rows, spec.dim)), rng)
        total += float(((G - g_exact) ** 2).sum())
        remaining -= rows
    return total / n_samples
