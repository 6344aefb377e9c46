"""Deterministic simulator and bound calculators for swarming-based
asynchronous stochastic gradient descent on a thread network."""

from .engine import (
    RunConfig,
    RunSummary,
    Trace,
    TraceRecord,
    run_centralized,
    run_swarm,
    run_swarm_global_tick,
)
from .metrics import (
    MetricSnapshot,
    lemma2_monte_carlo_check,
    lemma4_check,
    snapshot,
)
from .objective import (
    ObjectiveSpec,
    nonconvex_sine_spec,
    optimum,
    quadratic_spec,
    regularity,
    ridge_spec,
    ridge_spec_random,
)
from .theory import (
    centralized_bound,
    convex_bound,
    harmonic_speedup,
    nonconvex_bound,
    solve_hat_omega,
    strong_convex_bound,
)
from .topology import (
    Graph,
    algebraic_connectivity,
    complete_graph,
    erdos_renyi_connected,
    laplacian,
    path_graph,
    star_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "MetricSnapshot",
    "ObjectiveSpec",
    "RunConfig",
    "RunSummary",
    "Trace",
    "TraceRecord",
    "algebraic_connectivity",
    "centralized_bound",
    "complete_graph",
    "convex_bound",
    "erdos_renyi_connected",
    "harmonic_speedup",
    "laplacian",
    "lemma2_monte_carlo_check",
    "lemma4_check",
    "nonconvex_bound",
    "nonconvex_sine_spec",
    "optimum",
    "path_graph",
    "quadratic_spec",
    "regularity",
    "ridge_spec",
    "ridge_spec_random",
    "run_centralized",
    "run_swarm",
    "run_swarm_global_tick",
    "snapshot",
    "solve_hat_omega",
    "star_graph",
    "strong_convex_bound",
]
