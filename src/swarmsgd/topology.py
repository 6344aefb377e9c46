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
# Erdos-Renyi draws before a p is called too small for n.
ER_MAX_ATTEMPTS = 10_000
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


def _graph(n: int, rows, cols, er_attempts: int | None = None) -> Graph:
    """The Graph on ``n`` vertices with the edges ``rows[k]``-``cols[k]``, each listed
    once; the only place a Graph's arrays are made. Raises GraphConnectivityError."""
    adj = np.zeros((n, n), dtype=np.int64)
    adj[rows, cols] = adj[cols, rows] = 1
    degrees = adj.sum(axis=1)
    adj.setflags(write=False)
    degrees.setflags(write=False)
    graph = Graph(n_vertices=n, adjacency=adj, degrees=degrees, er_attempts=er_attempts)
    if not is_connected(graph):
        raise GraphConnectivityError("graph is not connected")
    return graph


def graph_from_adjacency(adjacency: np.ndarray) -> Graph:
    """Validate an adjacency matrix of ``RANGES["n"]`` vertices, 2 to 4096,
    and build its Graph; a disconnected one raises GraphConnectivityError."""
    adj = np.asarray(adjacency)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {adj.shape}")
    n = adj.shape[0]
    check(args(RANGES, "n"), (n,))
    if not np.isin(adj, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    if np.diagonal(adj).any():
        raise ValueError("self-loops are not allowed")
    if not (adj == adj.T).all():
        raise ValueError("adjacency must be symmetric")
    return _graph(n, *np.nonzero(np.triu(adj, k=1)))


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The vertex pairs i < j in row-major order, as ``np.triu_indices(n,
    k=1)`` lists them, in two int32 arrays: half its int64 pair's bytes."""
    counts = np.arange(n - 1, 0, -1)  # row i holds n - 1 - i pairs
    rows = np.repeat(np.arange(n - 1, dtype=np.int32), counts)
    # Within a row the columns count up by one; row i restarts at i + 1,
    # a step of i + 2 - n from the last column, n - 1.
    cols = np.ones(rows.size, dtype=np.int32)
    cols[np.cumsum(counts[:-1])] = np.arange(3 - n, 1, dtype=np.int32)
    return rows, np.cumsum(cols, dtype=np.int32, out=cols)


def complete_graph(n: int) -> Graph:
    """Complete graph on ``n`` vertices."""
    check(args(RANGES, "n"), (n,))
    return _graph(n, *_upper_pairs(n))


def path_graph(n: int) -> Graph:
    """Path 0-1-...-(n-1)."""
    check(args(RANGES, "n"), (n,))
    return _graph(n, np.arange(n - 1), np.arange(1, n))


def star_graph(n: int) -> Graph:
    """Star with hub vertex 0 and ``n - 1`` leaves."""
    check(args(RANGES, "n"), (n,))
    return _graph(n, 0, np.arange(1, n))


def erdos_renyi_connected(n: int, p: float, rng: np.random.Generator) -> Graph:
    """Sample G(n, p) repeatedly until a connected draw appears.

    Raises GraphConnectivityError when ``ER_MAX_ATTEMPTS`` draws all come
    out disconnected, which signals that ``p`` is too small for ``n``.
    """
    check(args(RANGES, "n", "p"), (n, p))
    rows, cols = _upper_pairs(n)
    for attempt in range(1, ER_MAX_ATTEMPTS + 1):
        mask = rng.random(rows.size) < p
        try:
            return _graph(n, rows[mask], cols[mask], er_attempts=attempt)
        except GraphConnectivityError:
            pass
    raise GraphConnectivityError(f"no connected graph in {ER_MAX_ATTEMPTS} draws of G({n}, {p})")


def is_connected(graph: Graph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0, by frontiers.
    A frontier's adjacency rows are read 1 MiB at a time, so the memory
    beyond the adjacency is O(n), whatever the frontier's size."""
    n = graph.n_vertices
    chunk = max(1, 2**17 // n)  # rows of 8-byte entries in 1 MiB
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.intp)
    while frontier.size:
        reached = np.zeros(n, dtype=bool)
        for start in range(0, frontier.size, chunk):
            reached |= graph.adjacency[frontier[start : start + chunk]].any(axis=0)
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    return bool(seen.all())


def laplacian(graph: Graph) -> np.ndarray:
    """Graph Laplacian diag(degrees) - adjacency, as float64."""
    return np.diag(graph.degrees).astype(float) - graph.adjacency.astype(float)


def algebraic_connectivity(graph: Graph) -> float:
    """Second smallest Laplacian eigenvalue.

    Positive exactly when the graph is connected; a value at or below
    ``CONNECTIVITY_TOL`` is treated as disconnected and raises.
    """
    eigenvalues = np.linalg.eigvalsh(laplacian(graph))
    lam2 = float(eigenvalues[1])
    if lam2 <= CONNECTIVITY_TOL:
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
    """Parse and validate the edge-list form, every edge before any matrix is
    built; requires a connected graph whose ``n`` is in ``RANGES["n"]``."""
    if "n" not in data:
        raise ValueError("graph json is missing field 'n'")
    if "edges" not in data:
        raise ValueError("graph json is missing field 'edges'")
    n = data["n"]
    check(args(RANGES, "n"), (n,))
    edges: set[tuple[int, int]] = set()
    for edge in data["edges"]:
        if len(edge) != 2:
            raise ValueError(f"malformed edge {edge!r}")
        i, j = (_json_int(v, "vertex id") for v in edge)
        if not (0 <= i < j < n):
            raise ValueError(f"edge {edge!r} violates 0 <= i < j < n={n}")
        if (i, j) in edges:
            raise ValueError(f"duplicate edge {edge!r}")
        edges.add((i, j))
    return _graph(n, *np.array([*edges], dtype=np.int64).reshape(-1, 2).T)
