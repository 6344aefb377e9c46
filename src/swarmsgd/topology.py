"""Undirected interaction graphs and their spectral quantities.

Graphs here are simple, unweighted and undirected; they describe which
threads attract which during a swarm run. The quantity that drives all
of the convergence bounds is the algebraic connectivity, the second
smallest eigenvalue of the graph Laplacian.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ranges import PROBABILITY, Range, args, check

CONNECTIVITY_TOL = 1e-10
# A swarm, and so each generated graph, has at least two vertices; at
# the top, 4,096, the int64 adjacency alone takes 128 MiB.
RANGES = {"n": Range(2, 4096, "an integer from 2 to 4096", integer=True), "p": PROBABILITY}


class GraphConnectivityError(RuntimeError):
    """Raised when a connected graph is required but not available."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph.

    ``adjacency`` is a symmetric 0/1 matrix with zero diagonal and
    ``degrees`` holds its row sums. ``er_attempts`` records how many
    Erdos-Renyi draws were needed when the graph came from
    ``erdos_renyi_connected``, else None.
    """

    n_vertices: int
    adjacency: np.ndarray
    degrees: np.ndarray
    er_attempts: int | None = None


def graph_from_adjacency(
    adjacency: np.ndarray,
    *,
    require_connected: bool = True,
    er_attempts: int | None = None,
) -> Graph:
    """Validate an adjacency matrix and wrap it in a Graph."""
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    adj = adj.astype(np.int64)
    if np.diagonal(adj).any():
        raise ValueError("self-loops are not allowed")
    if not (adj == adj.T).all():
        raise ValueError("adjacency must be symmetric")
    degrees = adj.sum(axis=1)
    adj.setflags(write=False)
    degrees.setflags(write=False)
    graph = Graph(n_vertices=n, adjacency=adj, degrees=degrees, er_attempts=er_attempts)
    if require_connected and not is_connected(graph):
        raise GraphConnectivityError("graph is not connected")
    return graph


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    check(args(RANGES, "n"), (n,))
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    return graph_from_adjacency(adj)


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    check(args(RANGES, "n"), (n,))
    adj = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = 1
    adj[idx + 1, idx] = 1
    return graph_from_adjacency(adj)


def star_graph(n: int) -> Graph:
    """Star with hub vertex 0 and ``n - 1`` leaves."""
    check(args(RANGES, "n"), (n,))
    adj = np.zeros((n, n), dtype=np.int64)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    return graph_from_adjacency(adj)


def erdos_renyi_connected(
    n: int,
    p: float,
    rng: np.random.Generator,
    max_attempts: int = 10_000,
) -> Graph:
    """Sample G(n, p) repeatedly until a connected draw appears.

    Raises GraphConnectivityError when ``max_attempts`` draws all come
    out disconnected, which signals that ``p`` is too small for ``n``.
    """
    check(args(RANGES, "n", "p"), (n, p))
    rows, cols = np.triu_indices(n, k=1)
    for attempt in range(1, max_attempts + 1):
        mask = rng.random(rows.size) < p
        adj = np.zeros((n, n), dtype=np.int64)
        adj[rows[mask], cols[mask]] = 1
        adj[cols[mask], rows[mask]] = 1
        graph = graph_from_adjacency(adj, require_connected=False, er_attempts=attempt)
        if is_connected(graph):
            return graph
    raise GraphConnectivityError(
        f"no connected graph in {max_attempts} draws of G({n}, {p})"
    )


def is_connected(graph: Graph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0, by frontiers."""
    seen = np.zeros(graph.n_vertices, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = graph.adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def laplacian(graph: Graph) -> np.ndarray:
    """Graph Laplacian diag(degrees) - adjacency, as float64."""
    return np.diag(graph.degrees).astype(float) - graph.adjacency.astype(float)


def algebraic_connectivity(graph: Graph, tol: float = CONNECTIVITY_TOL) -> float:
    """Second smallest Laplacian eigenvalue.

    Positive exactly when the graph is connected; a value at or below
    ``tol`` is treated as disconnected and raises.
    """
    eigenvalues = np.linalg.eigvalsh(laplacian(graph))
    lam2 = float(eigenvalues[1])
    if lam2 <= tol:
        raise GraphConnectivityError(
            f"graph is disconnected (second eigenvalue {lam2:.3e})"
        )
    return lam2


def max_degree(graph: Graph) -> int:
    """Largest vertex degree."""
    return int(graph.degrees.max())


def _json_int(value, what: str) -> int:
    """``value`` when it is an integer (a bool is not); else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"graph json {what} must be an integer, got {value!r}")
    return value


def graph_from_json_dict(data: dict) -> Graph:
    """Parse and validate the edge-list form; requires a connected graph."""
    if "n" not in data:
        raise ValueError("graph json is missing field 'n'")
    if "edges" not in data:
        raise ValueError("graph json is missing field 'edges'")
    n = _json_int(data["n"], "n")
    if n < 1:
        raise ValueError(f"graph json has invalid vertex count {n}")
    adj = np.zeros((n, n), dtype=np.int64)
    for edge in data["edges"]:
        if len(edge) != 2:
            raise ValueError(f"malformed edge {edge!r}")
        i, j = (_json_int(v, "vertex id") for v in edge)
        if not (0 <= i < j < n):
            raise ValueError(f"edge {edge!r} violates 0 <= i < j < n={n}")
        if adj[i, j]:
            raise ValueError(f"duplicate edge {edge!r}")
        adj[i, j] = 1
        adj[j, i] = 1
    return graph_from_adjacency(adj)
