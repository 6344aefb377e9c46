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
``noisy_gradient_chunks`` draws the validators' large batches a chunk
of rows at a time, one ``noisy_gradients`` call per chunk.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from ._ranges import NONNEGATIVE, POSITIVE, Range, args, check
from .randomness import polar_normals, sampling_durations

RIDGE = "ridge"
QUADRATIC = "quadratic"
NONCONVEX_SINE = "nonconvex_sine"
KINDS = (RIDGE, QUADRATIC, NONCONVEX_SINE)

STRONGLY_CONVEX = "strongly_convex"
NONCONVEX = "nonconvex"

# |d^2/dx^2 (x^2/2 + 3 sin^2 x)| = |1 + 6 cos 2x| <= 7
SINE_CURVATURE_BOUND = 7.0

# Rows of oracle samples ``noisy_gradient_chunks`` holds at once.
_CHUNK_ROWS = 1024

# The range of each numeric argument; x_tilde's holds for each entry. At
# the top dimension, 4,096, a dense quadratic's Q alone takes 128 MiB.
RANGES = {
    "dim": Range(1, 4096, "an integer from 1 to 4096", integer=True),
    "rho": POSITIVE,
    "x_tilde": Range(0.0, 1.0, "in [0, 1]"),
    "noise_std": NONNEGATIVE,
    "mean_time": POSITIVE,
    "n_samples": Range(100, math.inf, "an integer at least 100", integer=True),
}


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


def _numbers(name: str, values, words: str) -> np.ndarray:
    """``values`` as a float array; ``ValueError("<name> must be <words>")``
    when they are ragged or hold something that is not a number."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be {words}") from None


def ridge_spec(rho: float, x_tilde: np.ndarray) -> ObjectiveSpec:
    """Ridge objective for a given target vector."""
    target = _numbers("x_tilde", x_tilde, "a nonempty vector of numbers")
    if target.ndim != 1 or target.size < 1:
        raise ValueError("x_tilde must be a nonempty vector")
    check(args(RANGES, "rho", "dim"), (rho, target.size))
    check(args(RANGES, "x_tilde") * target.size, target.tolist())
    target = target.copy()
    target.setflags(write=False)
    return ObjectiveSpec(kind=RIDGE, dim=target.size, rho=float(rho), x_tilde=target)


def ridge_spec_random(rho: float, dim: int, rng: np.random.Generator) -> ObjectiveSpec:
    """Ridge objective with the target drawn uniformly from [0, 1]^dim."""
    check(args(RANGES, "dim"), (dim,))
    return ridge_spec(rho, rng.random(dim))


def quadratic_spec(Q: np.ndarray, b: np.ndarray, noise_std: float = 1.0) -> ObjectiveSpec:
    """Quadratic objective 0.5 x'Qx + b'x with Gaussian gradient noise."""
    b = _numbers("b", b, "a vector of numbers")
    check(args(RANGES, "dim", "noise_std"), (b.size, noise_std))
    Q = _numbers("Q", Q, f"a {b.size} x {b.size} matrix of numbers, as b has length {b.size}")
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
    Q = Q.copy()
    b = b.copy()
    Q.setflags(write=False)
    b.setflags(write=False)
    return ObjectiveSpec(kind=QUADRATIC, dim=b.size, Q=Q, b=b, noise_std=float(noise_std))


def nonconvex_sine_spec(dim: int, noise_std: float = 1.0) -> ObjectiveSpec:
    """Separable sine-well objective sum_i x_i^2/2 + 3 sin^2(x_i)."""
    check(args(RANGES, "dim", "noise_std"), (dim, noise_std))
    return ObjectiveSpec(kind=NONCONVEX_SINE, dim=dim, noise_std=float(noise_std))


def _check_point(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.dim,):
        raise ValueError(f"point has shape {x.shape}, expected ({spec.dim},)")
    return x


def _check_rows(spec: ObjectiveSpec, X: np.ndarray, ndims=(2,)) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim not in ndims or X.shape[-1] != spec.dim:
        raise ValueError(f"rows have shape {X.shape}, expected (*, {spec.dim})")
    return X


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A[i] . B[i]`` for each row, ``B`` a stack like ``A`` or one vector;
    each a dot in ``_kernel``'s fixed order, whatever the BLAS build."""
    return _kernel.dots(A, B)


def value(spec: ObjectiveSpec, x: np.ndarray) -> float:
    """Population objective value at ``x``: row 0 of ``value_rows``."""
    return float(value_rows(spec, _check_point(spec, x)[None, :])[0])


def value_rows(spec: ObjectiveSpec, X: np.ndarray) -> np.ndarray:
    """Population objective value at each row of ``X``."""
    X = _check_rows(spec, X)
    if spec.kind == RIDGE:
        diff = X - spec.x_tilde
        return row_dots(diff, diff) / 3.0 + spec.rho * row_dots(X, X) + 1.0
    if spec.kind == QUADRATIC:
        return row_dots(_kernel.matvecs(spec.Q, 0.5 * X), X) + row_dots(X, spec.b)
    S = np.sin(X)
    return 0.5 * row_dots(X, X) + 3.0 * row_dots(S, S)


def grad_exact(spec: ObjectiveSpec, x: np.ndarray) -> np.ndarray:
    """Exact population gradient at ``x``: row 0 of ``grad_exact_rows``."""
    return grad_exact_rows(spec, _check_point(spec, x)[None, :])[0]


def grad_exact_rows(spec: ObjectiveSpec, X: np.ndarray) -> np.ndarray:
    """Exact gradients at each row of ``X``, shape preserved; ``X`` may be a
    stack of (n, dim) arrays. Each row rounds as alone: quadratic's ``Q x``
    is ``_kernel.matvecs``'s fixed-order row dots."""
    X = _check_rows(spec, X, ndims=(2, 3))
    if spec.kind == RIDGE:
        return (2.0 / 3.0 + 2.0 * spec.rho) * X - (2.0 / 3.0) * spec.x_tilde
    if spec.kind == QUADRATIC:
        return _kernel.matvecs(spec.Q, X.reshape(-1, spec.dim)).reshape(X.shape) + spec.b
    return X + 3.0 * np.sin(2.0 * X)


def noisy_gradient(spec: ObjectiveSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One unbiased stochastic gradient at ``x``: row 0 of ``noisy_gradients``."""
    return noisy_gradients(spec, _check_point(spec, x)[None, :], rng)[0]


def noisy_gradients(spec: ObjectiveSpec, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Independent stochastic gradients, one per row of ``X``, from one
    ``draw_noise_block`` call: for ridge the rows * dim feature uniforms
    and then the rows response normals, for the additive-noise kinds the
    rows * dim noise normals."""
    X = _check_rows(spec, X)
    U, c = draw_noise_block(spec, X.shape[0], rng)
    if U is None:
        return grad_exact_rows(spec, X) + c
    residual = np.einsum("ij,ij->i", U, X) - c
    return 2.0 * residual[:, None] * U + 2.0 * spec.rho * X


def noisy_gradient_chunks(
    spec: ObjectiveSpec, X: np.ndarray, rng: np.random.Generator, idx: np.ndarray | None = None
):
    """``noisy_gradients`` at the rows of ``X[idx]`` (all of ``X`` when
    ``idx`` is None), one call per chunk of ``_CHUNK_ROWS`` rows, so
    memory is O(_CHUNK_ROWS * dim) for every kind; yields ``(start, G)``
    for the rows ``start:start + len(G)``."""
    X = _check_rows(spec, X)
    rows = X.shape[0] if idx is None else idx.size
    for start in range(0, rows, _CHUNK_ROWS):
        at = slice(start, min(start + _CHUNK_ROWS, rows))
        yield start, noisy_gradients(spec, X[at] if idx is None else X[idx[at]], rng)


def draw_noise_block(
    spec: ObjectiveSpec, rows: int, rng: np.random.Generator
) -> tuple[np.ndarray | None, np.ndarray]:
    """Randomness of the next ``rows`` oracle calls, drawn in one go.

    Returns ``(U, c)``. For ``ridge``, ``U`` holds the (rows, dim)
    feature rows, uniform on [-1, 1]^m, and ``c = row_dots(U, x_tilde) +
    eps`` the (rows,) responses with standard normal ``eps``; call ``j`` at
    ``x`` samples ``2 (U[j] . x - c[j]) U[j] + 2 rho x``. For the
    additive-noise kinds ``U`` is None and ``c`` is the (rows, dim)
    noise ``noise_std * Z`` added to the exact gradient; nothing is
    drawn when ``noise_std`` is 0. Each row is one unbiased sample.
    """
    if spec.kind == RIDGE:
        U = _features(rng, rows, spec.dim)
        return U, row_dots(U, spec.x_tilde) + polar_normals(rng, rows)
    if spec.noise_std == 0.0:
        return None, np.zeros((rows, spec.dim))
    return None, spec.noise_std * polar_normals(rng, rows * spec.dim).reshape(rows, spec.dim)


def _features(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """``rows`` ridge feature rows, uniform on [-1, 1]^dim."""
    U = rng.random((rows, dim))
    U *= 2.0
    U -= 1.0
    return U


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
    check(args(RANGES, "mean_time"), (mean_time,))
    g = noisy_gradient(spec, x, rng)
    return GradientSample(g=g, sampling_time=float(sampling_durations(rng, mean_time, 1)[0]))


def _solve_spd(Q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``Q^-1 r`` for a symmetric positive definite ``Q`` by Gaussian
    elimination without pivoting, which is stable for such a ``Q``. Every
    step is elementwise, in a fixed order, so unlike LAPACK's solve the
    bits do not depend on the BLAS build."""
    A, y = np.array(Q, dtype=float), np.array(r, dtype=float)
    n = len(y)
    for k in range(n - 1):
        scale = A[k + 1 :, k] / A[k, k]
        A[k + 1 :, k + 1 :] -= np.multiply.outer(scale, A[k, k + 1 :])
        y[k + 1 :] -= scale * y[k]
    for k in range(n - 1, -1, -1):
        y[k] /= A[k, k]
        y[:k] -= A[:k, k] * y[k]
    return y


def optimum(spec: ObjectiveSpec) -> np.ndarray | None:
    """Closed-form minimizer, or None when there is no usable formula."""
    if spec.kind == RIDGE:
        return spec.x_tilde / (1.0 + 3.0 * spec.rho)
    if spec.kind == QUADRATIC:
        return _solve_spd(spec.Q, -spec.b)
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
    """Monte Carlo estimate of E|g(x, xi) - grad f(x)|^2 at a point,
    from ``noisy_gradient_chunks`` draws summed a chunk at a time."""
    check(args(RANGES, "n_samples"), (n_samples,))
    x = _check_point(spec, x)
    g_exact = grad_exact(spec, x)
    points = np.broadcast_to(x, (n_samples, spec.dim))
    total = 0.0
    for _, G in noisy_gradient_chunks(spec, points, rng):
        total += float(np.square(G - g_exact).sum())
    return total / n_samples
