import numpy as np
import pytest

from oscising.graphs import (GraphFormatError, WeightedGraph, cubic_ring_graph,
                             parse_gset, random_graph, serialize_gset)
from oscising.ising import IsingProblem


def test_parse_minimal():
    g = parse_gset("2 1\n1 2 1\n")
    assert g.n == 2
    assert g.edges() == [(0, 1, 1.0)]


def test_parse_crlf_and_whitespace():
    g = parse_gset("3 2\r\n1 2 1\r\n 2  3   -2 \r\n")
    assert g.m == 2
    assert g.edges() == [(0, 1, 1.0), (1, 2, -2.0)]


def test_parse_canonicalizes_order():
    g = parse_gset("4 1\n3 1 5\n")
    assert g.edges() == [(0, 2, 5.0)]


@pytest.mark.parametrize("text", [
    "2 1\n1 1 1\n",          # self loop
    "2 2\n1 2 1\n2 1 1\n",   # duplicate (reversed)
    "2 1\n1 3 1\n",          # index out of range
    "2 1\n0 2 1\n",          # 1-based indexing violated
    "2 2\n1 2 1\n",          # fewer edges than declared
    "2 1\n1 2 1\n1 2 1\n",   # more edges than declared
    "x 1\n1 2 1\n",          # bad header
    "",                       # empty
])
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_gset(text)


def test_roundtrip_serialize_parse():
    g = random_graph(17, 37.5, "uniform_range", seed=5)
    g2 = parse_gset(serialize_gset(g), name=g.name)
    assert g2.n == g.n
    assert g2.edges() == g.edges()


def test_roundtrip_integer_weights_stay_integers():
    text = "3 2\n1 2 1\n1 3 -4\n"
    assert serialize_gset(parse_gset(text)) == text


def test_random_graph_deterministic():
    a = random_graph(20, 50, "pm_one", seed=99)
    b = random_graph(20, 50, "pm_one", seed=99)
    assert a.edges() == b.edges()
    c = random_graph(20, 50, "pm_one", seed=100)
    assert a.edges() != c.edges()


def test_random_graph_pm_one_weights():
    g = random_graph(100, 10, "pm_one", seed=0)
    assert set(np.unique(g.w)) <= {-1.0, 1.0}


def test_random_graph_full_density_is_complete():
    g = random_graph(12, 100, "unit", seed=1)
    assert g.m == 12 * 11 // 2


def test_random_graph_expected_edge_count():
    g = random_graph(200, 10, "unit", seed=3)
    npairs = 200 * 199 // 2
    # binomial(npairs, 0.1): five sigma band
    sigma = np.sqrt(npairs * 0.1 * 0.9)
    assert abs(g.m - 0.1 * npairs) < 5 * sigma


@pytest.mark.parametrize("n,density", [(1, 10), (5, 0), (5, 101)])
def test_random_graph_rejects_bad_args(n, density):
    with pytest.raises(ValueError):
        random_graph(n, density, "unit", seed=0)


def test_cubic_ring_graph_degrees():
    g = cubic_ring_graph(8)
    assert g.m == 12
    assert np.all(g.degrees() == 3)


def test_graph_rejects_duplicate_edges():
    with pytest.raises(GraphFormatError, match=r"duplicate pair \(0, 1\)"):
        WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 0, 2.0)])


@pytest.mark.parametrize("i, j, got", [
    (np.array([0.0]), np.array([1.5]), "i must be an integer array, got float64"),
    (np.array([0.5, 0.0]), np.array([1.0, 1.0]), "i must be an integer array, got float64"),
    ([0], [1], "i must be an integer array, got list"),
    (np.array([0]), np.array([True]), "j must be an integer array, got bool"),
])
def test_edge_indices_must_be_integer_arrays(i, j, got):
    """Float indices would pass the range and order checks, truncate in the
    pair keys (a false duplicate for the second case) and fail only later,
    as array indices."""
    with pytest.raises(GraphFormatError, match=got):
        WeightedGraph(n=3, i=i, j=j, w=np.ones(len(i)))
    with pytest.raises(GraphFormatError, match=got):
        IsingProblem(n=3, i=i, j=j, jval=np.ones(len(i)), h=np.zeros(3))


def test_pair_keys_do_not_wrap_in_int32():
    """At n = 70,000, (0, 20000) and (61356, 67296) share the key 20000 when
    i * n + j is formed in int32; they are different pairs."""
    n = 70_000
    i = np.array([0, 61356], dtype=np.int32)
    j = np.array([20000, 67296], dtype=np.int32)
    assert WeightedGraph(n=n, i=i, j=j, w=np.ones(2)).m == 2
    assert IsingProblem(n=n, i=i, j=j, jval=np.ones(2), h=np.zeros(n)).m == 2
