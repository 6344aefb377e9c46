import json
import math

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
    with pytest.raises(ValueError, match="at least one vertex"):
        graph_from_adjacency(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "make",
    [complete_graph, path_graph, star_graph, lambda n: erdos_renyi_connected(n, 0.5, make_rng(0))],
)
def test_generators_need_two_vertices(make):
    with pytest.raises(ValueError, match="n must be an integer at least 2, got 1"):
        make(1)


def test_disconnected_rejected_unless_allowed():
    adj = np.zeros((4, 4), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = 1
    adj[2, 3] = adj[3, 2] = 1
    with pytest.raises(GraphConnectivityError):
        graph_from_adjacency(adj)
    g = graph_from_adjacency(adj, require_connected=False)
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
    # At p = 0.01 a 40-vertex draw almost surely has isolated vertices,
    # so a small attempt budget runs out.
    with pytest.raises(GraphConnectivityError):
        erdos_renyi_connected(40, 0.01, make_rng(0), max_attempts=30)
    with pytest.raises(ValueError):
        erdos_renyi_connected(4, 0.0, make_rng(0))


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
    for _ in range(50):
        n = int(rng.integers(2, 10))
        adj = (rng.random((n, n)) < 0.3).astype(np.int64)
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        g = graph_from_adjacency(adj, require_connected=False)
        lap = laplacian(g)
        lam2 = np.linalg.eigvalsh(lap)[1] if n > 1 else 0.0
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
    assert is_connected(graph_from_json_dict({"n": 1, "edges": []}))
    for data, words in (
        ({"n": 3}, "missing field 'edges'"),
        ({"n": 0, "edges": []}, "vertex count"),
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
