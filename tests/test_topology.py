import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from swarmsgd import topology
from swarmsgd.randomness import make_rng
from swarmsgd.topology import (
    CONNECTIVITY_TOL,
    Graph,
    GraphConnectivityError,
    algebraic_connectivity,
    complete_graph,
    erdos_renyi_connected,
    graph_from_adjacency,
    graph_from_json_dict,
    is_connected,
    laplacian,
    max_degree,
    path_graph,
    star_graph,
)


def test_complete_graph_structure():
    g = complete_graph(5)
    assert g.n_vertices == 5
    assert np.array_equal(g.degrees, np.full(5, 4))
    assert np.array_equal(g.adjacency, 1 - np.eye(5, dtype=np.int64))
    assert max_degree(g) == 4


def test_path_and_star_structure():
    p = path_graph(4)
    assert list(p.degrees) == [1, 2, 2, 1]
    s = star_graph(4)
    # hub is vertex 0
    assert list(s.degrees) == [3, 1, 1, 1]
    assert max_degree(s) == 3


def test_lambda2_closed_forms():
    # complete: N; star: 1; path: 2(1 - cos(pi/n))
    for n in (2, 3, 5, 9, 16):
        assert algebraic_connectivity(complete_graph(n)) == pytest.approx(n, abs=1e-8)
    for n in (3, 4, 7, 12):
        assert algebraic_connectivity(star_graph(n)) == pytest.approx(1.0, abs=1e-8)
        expected = 2.0 * (1.0 - math.cos(math.pi / n))
        assert algebraic_connectivity(path_graph(n)) == pytest.approx(expected, abs=1e-8)


def test_laplacian_rows_sum_to_zero_and_psd():
    for g in (complete_graph(6), path_graph(7), star_graph(5)):
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() > -1e-10


def test_graph_from_adjacency_validation():
    with pytest.raises(ValueError):
        graph_from_adjacency(np.ones((2, 3)))
    with pytest.raises(ValueError):
        graph_from_adjacency(np.eye(3))  # self loops
    bad_sym = np.zeros((3, 3))
    bad_sym[0, 1] = 1
    with pytest.raises(ValueError):
        graph_from_adjacency(bad_sym)
    with pytest.raises(ValueError):
        graph_from_adjacency(np.full((2, 2), 2.0) - 2.0 * np.eye(2))
    with pytest.raises(ValueError, match="n must be an integer from 2 to 4096, got 0"):
        graph_from_adjacency(np.zeros((0, 0)))


def _unchecked(adj) -> Graph:
    """A Graph of ``adj`` built around the library's checks, which refuse
    a disconnected graph."""
    adj = np.asarray(adj, dtype=np.int64)
    return Graph(n_vertices=adj.shape[0], adjacency=adj, degrees=adj.sum(axis=1))


@pytest.mark.parametrize("n", [1, 4097])
def test_graphs_from_adjacency_and_json_need_2_to_4096_vertices(n):
    words = f"n must be an integer from 2 to 4096, got {n}"
    # a broadcast zero, so the test allocates no n x n matrix either
    with pytest.raises(ValueError, match=words):
        graph_from_adjacency(np.broadcast_to(0, (n, n)))
    # the edge list's n is checked before the n x n matrix is built
    with pytest.raises(ValueError, match=words):
        graph_from_json_dict({"n": n, "edges": []})


GENERATORS = [
    complete_graph, path_graph, star_graph, lambda n: erdos_renyi_connected(n, 0.5, make_rng(0))
]


@pytest.mark.parametrize("make", GENERATORS)
def test_generators_need_two_vertices(make):
    with pytest.raises(ValueError, match="n must be an integer from 2 to 4096, got 1"):
        make(1)


@pytest.mark.parametrize("make", GENERATORS)
def test_generators_refuse_more_than_4096_vertices(make):
    # refused before the n x n matrix is built
    with pytest.raises(ValueError, match="n must be an integer from 2 to 4096, got 4097"):
        make(4097)


def test_disconnected_rejected_unless_allowed():
    adj = np.zeros((4, 4), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(GraphConnectivityError):
        graph_from_adjacency(adj)
    g = _unchecked(adj)
    assert not is_connected(g)
    with pytest.raises(GraphConnectivityError):
        algebraic_connectivity(g)


def test_connectivity_tolerance_constant():
    assert CONNECTIVITY_TOL == 1e-10


def test_erdos_renyi_p_one_is_complete():
    g = erdos_renyi_connected(6, 1.0, make_rng(3))
    assert np.array_equal(g.adjacency, complete_graph(6).adjacency)


def test_erdos_renyi_deterministic():
    a = erdos_renyi_connected(12, 0.4, make_rng(11))
    b = erdos_renyi_connected(12, 0.4, make_rng(11))
    assert np.array_equal(a.adjacency, b.adjacency)
    c = erdos_renyi_connected(12, 0.4, make_rng(12))
    assert not np.array_equal(a.adjacency, c.adjacency)


def test_erdos_renyi_invalid_p():
    with pytest.raises(ValueError):
        erdos_renyi_connected(5, -0.1, make_rng(0))
    with pytest.raises(ValueError):
        erdos_renyi_connected(5, 1.5, make_rng(0))


def test_erdos_renyi_gives_up_when_connectivity_unlikely():
    # At p = 1e-6 the one edge of a 2-vertex draw is almost never there,
    # so all ER_MAX_ATTEMPTS draws come out disconnected.
    with pytest.raises(GraphConnectivityError, match="no connected graph in 10000 draws"):
        erdos_renyi_connected(2, 1e-6, make_rng(0))
    assert topology.ER_MAX_ATTEMPTS == 10_000
    with pytest.raises(ValueError):
        erdos_renyi_connected(4, 0.0, make_rng(0))


def _reference_er(n, p, rng):
    """G(n, p) drawn until connected, each draw checked by reachability."""
    rows, cols = np.triu_indices(n, k=1)
    for attempt in range(1, topology.ER_MAX_ATTEMPTS + 1):
        mask = rng.random(rows.size) < p
        adj = np.zeros((n, n), dtype=np.int64)
        adj[rows[mask], cols[mask]] = 1
        adj[cols[mask], rows[mask]] = 1
        if is_connected(_unchecked(adj)):
            return adj, attempt
    raise AssertionError("no connected draw")


def test_erdos_renyi_retries_draw_for_draw_like_the_reference():
    # at p = 0.15 a 12-vertex draw is often disconnected
    retried = 0
    for seed in range(40):
        g = erdos_renyi_connected(12, 0.15, make_rng(seed))
        adj, attempts = _reference_er(12, 0.15, make_rng(seed))
        assert np.array_equal(g.adjacency, adj) and g.er_attempts == attempts
        retried += attempts > 1
    assert retried >= 10


def _matrix_graph(adj, er_attempts=None) -> Graph:
    """A Graph made the matrix-first way: an int64 copy of the whole n x n
    matrix and its row sums, as the library once built every graph."""
    adj = np.asarray(adj).astype(np.int64)
    return Graph(n_vertices=adj.shape[0], adjacency=adj, degrees=adj.sum(axis=1),
                 er_attempts=er_attempts)


def _matrix_of_edges(n, edges):
    adj = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1
    return adj


def _matrix_path(n):
    adj = np.zeros((n, n), dtype=np.int64)
    idx = np.arange(n - 1)
    adj[idx, idx + 1] = 1
    adj[idx + 1, idx] = 1
    return adj


def _matrix_star(n):
    adj = np.zeros((n, n), dtype=np.int64)
    adj[0, 1:] = 1
    adj[1:, 0] = 1
    return adj


def _assert_same_graph(g, ref):
    assert g.n_vertices == ref.n_vertices
    assert g.er_attempts == ref.er_attempts
    for got, want in ((g.adjacency, ref.adjacency), (g.degrees, ref.degrees)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable


@pytest.mark.parametrize("n", range(2, 41))
def test_generators_match_the_matrix_first_reference(n):
    complete = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    _assert_same_graph(complete_graph(n), _matrix_graph(complete))
    _assert_same_graph(path_graph(n), _matrix_graph(_matrix_path(n)))
    _assert_same_graph(star_graph(n), _matrix_graph(_matrix_star(n)))


def test_erdos_renyi_graphs_match_the_matrix_first_reference():
    # at p = ln(n)/n a draw is often disconnected, so many need retries
    retried = 0
    for n in range(2, 41):
        p = math.log(n) / n
        adj, attempts = _reference_er(n, p, make_rng(n))
        _assert_same_graph(
            erdos_renyi_connected(n, p, make_rng(n)), _matrix_graph(adj, er_attempts=attempts)
        )
        retried += attempts > 1
    assert retried >= 10


def test_graphs_from_outside_match_the_matrix_first_reference():
    rng = make_rng(7)
    connected = 0
    for _ in range(80):
        n = int(rng.integers(2, 41))
        adj = np.triu((rng.random((n, n)) < rng.uniform(0.05, 0.6)).astype(np.int64), 1)
        adj += adj.T
        edges = np.column_stack(np.nonzero(np.triu(adj, 1)))
        edges = edges[rng.permutation(len(edges))].tolist()
        data = {"n": n, "edges": edges}
        if not is_connected(_unchecked(adj)):
            with pytest.raises(GraphConnectivityError):
                graph_from_adjacency(adj)
            with pytest.raises(GraphConnectivityError):
                graph_from_json_dict(data)
            continue
        connected += 1
        ref = _matrix_graph(adj)
        # any 0/1 dtype in, int64 out
        for matrix in (adj, adj.astype(float), adj.astype(bool)):
            _assert_same_graph(graph_from_adjacency(matrix), ref)
        _assert_same_graph(graph_from_json_dict(data), _matrix_graph(_matrix_of_edges(n, edges)))
    assert connected >= 20


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_file_with_a_bad_edge_is_refused_before_any_matrix():
    def build():
        with pytest.raises(ValueError, match="violates 0 <= i < j < n=4096"):
            graph_from_json_dict({"n": 4096, "edges": [[0, 1], [5, 5]]})

    # an n x n int64 matrix would take 128 MiB
    assert _peak_bytes(build) < 2**20


def test_path_graph_peaks_near_its_adjacency():
    # 2048 x 2048 int64 entries take 32 MiB, and only the adjacency is n x n
    adjacency = 2048 * 2048 * 8
    assert _peak_bytes(lambda: path_graph(2048)) < 1.5 * adjacency


def test_is_connected_reads_a_complete_frontier_in_o_n_memory():
    # The second frontier of a complete graph is n - 1 rows, 32 MiB at n
    # 2048 if copied at once; read 1 MiB at a time it stays near that.
    graph = complete_graph(2048)
    assert _peak_bytes(lambda: topology.is_connected(graph)) < 2 * 2**20


def test_complete_and_erdos_renyi_graphs_keep_int32_pairs():
    # The vertex pairs are two int32 arrays, 16 MiB at n 2048, not
    # np.triu_indices' two int64 ones, 32 MiB, on a 32 MiB adjacency.
    adjacency = 2048 * 2048 * 8
    assert _peak_bytes(lambda: complete_graph(2048)) < 1.6 * adjacency
    assert _peak_bytes(lambda: erdos_renyi_connected(2048, 0.005, make_rng(2))) < 1.9 * adjacency
    for n in range(2, 50):
        rows, cols = topology._upper_pairs(n)
        assert rows.dtype == cols.dtype == np.int32
        assert np.array_equal(np.stack([rows, cols]), np.triu_indices(n, k=1))


@given(
    n=st.integers(min_value=2, max_value=12),
    p=st.floats(min_value=0.3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_erdos_renyi_always_connected_and_simple(n, p, seed):
    g = erdos_renyi_connected(n, p, make_rng(seed))
    assert is_connected(g)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert np.all(np.diag(g.adjacency) == 0)
    assert algebraic_connectivity(g) > 0.0


def test_is_connected_agrees_with_spectral_check():
    rng = make_rng(2024)
    graphs = []
    for _ in range(100):
        n = int(rng.integers(2, 41))
        adj = (rng.random((n, n)) < rng.uniform(0.02, 0.3)).astype(np.int64)
        adj = np.triu(adj, 1)
        graphs.append(adj + adj.T)
    # paths, whole and with one edge cut, take a frontier round per vertex
    for n in (2, 3, 17, 40):
        adj = path_graph(n).adjacency.copy()
        graphs.append(adj.copy())
        cut = int(rng.integers(n - 1))
        adj[cut, cut + 1] = adj[cut + 1, cut] = 0
        graphs.append(adj)
    for adj in graphs:
        g = _unchecked(adj)
        lam2 = np.linalg.eigvalsh(laplacian(g))[1]
        assert is_connected(g) == (lam2 > CONNECTIVITY_TOL)


def test_json_round_trip(tmp_path):
    # a graph file holds the edge list, each edge once with i < j
    g = erdos_renyi_connected(9, 0.5, make_rng(77))
    rows, cols = np.nonzero(np.triu(g.adjacency, k=1))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 9, "edges": np.column_stack((rows, cols)).tolist()}))
    with open(path, encoding="utf-8") as fh:
        loaded = graph_from_json_dict(json.load(fh))
    assert np.array_equal(loaded.adjacency, g.adjacency)


def test_graph_from_json_dict_validation():
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": []})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[0, 3]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[0, 0]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 0]]})
    with pytest.raises(GraphConnectivityError):
        graph_from_json_dict({"n": 4, "edges": [[0, 1], [2, 3]]})
    assert is_connected(graph_from_json_dict({"n": 2, "edges": [[0, 1]]}))
    for data, words in (
        ({"n": 3}, "missing field 'edges'"),
        ({"n": 0, "edges": []}, "n must be an integer from 2 to 4096, got 0"),
        ({"n": 3, "edges": [[0, 1, 2]]}, "malformed edge"),
        ({"n": 3, "edges": [[0, 1], [0, 1], [1, 2]]}, "duplicate edge"),
        # a vertex count or id that is not an integer is not rounded
        ({"n": 3, "edges": [[0, 1.9], [1, 2]]}, "vertex id"),
        ({"n": 3, "edges": [[0, True], [1, 2]]}, "vertex id"),
        ({"n": "3", "edges": [[0, 1], [1, 2]]}, "n must be an integer"),
        ({"n": 3.0, "edges": [[0, 1], [1, 2]]}, "n must be an integer"),
        ({"n": True, "edges": []}, "n must be an integer"),
    ):
        with pytest.raises(ValueError, match=words):
            graph_from_json_dict(data)


def test_graph_is_immutable_record():
    g = complete_graph(4)
    assert isinstance(g, Graph)
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 0
