import hashlib
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import cubic_ring_graph, same_bits
from oscising import graphs
from oscising.graphs import (GraphFormatError, WeightedGraph, parse_gset,
                             random_graph)
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


def test_parse_keeps_the_line_order():
    """Edges are stored in the file's order, which sets the incidence
    columns and so the summation order; they are not sorted."""
    g = parse_gset("5 4\n4 2 1.5\n1 5 -2\n3 1 0.25\n2 1 7\n")
    assert g.edges() == [(1, 3, 1.5), (0, 4, -2.0), (0, 2, 0.25), (0, 1, 7.0)]


@pytest.mark.parametrize("text, message", [
    ("3 2\n1 2 1\n2 2 1\n", r"self loop at vertex 2 \(edge 2\)"),
    ("3 2\n1 2 1\n2 4 1\n", r"vertex index out of \[1, 3\] in edge 2: \(2, 4\)"),
    ("3 2\n1 2 1\n2 3 x\n", "bad edge line 2"),
    ("3 2\n1 2 x\n2 3.0 1\n", "bad edge line 1"),
    ("3 2\n1 2 1\n2 99999999999999999999 1\n", "bad edge line 2"),
    ("99999999999999999999 0\n", "bad header"),
    ("3 2\n1 2 1\n2 1 1\n", r"duplicate pair \(0, 1\)"),
])
def test_parse_names_the_broken_rule(text, message):
    """The file's own rules name the edge line; an oversized integer is a
    format error, not an OverflowError; a repeated pair is the edge-list
    validator's, reported 0-based."""
    with pytest.raises(GraphFormatError, match=message):
        parse_gset(text)


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


def test_parse_float_weights_exactly_in_file_order():
    """Each pair becomes 0-based i < j, in the file's order, and each weight
    the float64 its text rounds to."""
    g = parse_gset("4 3\n2 1 0.1\n2 4 -2.5e-3\n3 4 1.7976931348623157e+308\n")
    assert g.n == 4 and g.w.dtype == np.float64
    assert g.edges() == [(0, 1, 0.1), (1, 3, -0.0025), (2, 3, 1.7976931348623157e308)]


def test_parse_integer_weights():
    g = parse_gset("3 2\n1 2 1\n1 3 -4\n")
    assert g.edges() == [(0, 1, 1.0), (0, 2, -4.0)]


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


def triu_reference(n, density_percent, weight_mode, seed):
    """random_graph's draws over all n(n-1)/2 pairs at once, then the weights."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    iu, ju = np.triu_indices(n, k=1)
    p = density_percent / 100.0
    keep = np.ones(len(iu), dtype=bool) if p >= 1.0 else rng.random(len(iu)) < p
    m = int(keep.sum())
    w = {"unit": lambda: np.ones(m),
         "pm_one": lambda: rng.integers(0, 2, size=m) * 2.0 - 1.0}[weight_mode]()
    return iu[keep], ju[keep], w


# 400 nodes: 79,800 pairs, so the first block of draws ends inside a row
@pytest.mark.parametrize("n", [2, 3, 40, 400])
@pytest.mark.parametrize("density", [7.5, 100])
@pytest.mark.parametrize("mode", ["unit", "pm_one"])
def test_random_graph_matches_one_draw_over_all_pairs(n, density, mode):
    g = random_graph(n, density, mode, seed=n)
    for got, want in zip((g.i, g.j, g.w), triu_reference(n, density, mode, n)):
        assert same_bits(got, want)


@pytest.mark.parametrize("block", [1, 2, 5, 39, 40])
def test_random_graph_draw_blocks_make_the_same_graph(monkeypatch, block):
    """Blocks shorter than a row, as long as one and spanning several rows
    give the one-draw graph."""
    monkeypatch.setattr(graphs, "PAIR_BLOCK", block)
    for mode in ("unit", "pm_one"):
        g = random_graph(41, 30, mode, seed=3)
        for got, want in zip((g.i, g.j, g.w), triu_reference(41, 30, mode, 3)):
            assert same_bits(got, want)


# p * 2**53 an integer (50, 25, 100 * 2**-20), below one (1e-14: only a
# word below 2**11 is kept) and just below 2**53 (p = 1 - 3 * 2**-53)
@pytest.mark.parametrize("density", [50, 25, 100 * 2**-20, 1e-14, 100 * (1 - 2**-52)])
@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_random_graph_edge_densities_match_one_draw(monkeypatch, density, block):
    monkeypatch.setattr(graphs, "PAIR_BLOCK", block)
    for mode in ("unit", "pm_one"):
        g = random_graph(60, density, mode, seed=5)
        for got, want in zip((g.i, g.j, g.w), triu_reference(60, density, mode, 5)):
            assert same_bits(got, want)


class _Words:
    """A bit generator stand-in whose random_raw hands out fixed words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


def test_random_is_the_top_53_bits_of_a_raw_word():
    a, b = (np.random.Generator(np.random.Philox(key=9)) for _ in range(2))
    assert same_bits(a.random(1000), (b.bit_generator.random_raw(1000) >> 11) * 2.0**-53)
    assert same_bits(a.random(5), b.random(5))     # the streams stay in step


@pytest.mark.parametrize("p", [0.5, 0.25, 2**-20, 1e-16, 1 - 2**-53, 0.07, 1 / 3])
def test_kept_pairs_keeps_the_words_whose_double_is_below_p(p):
    """At the words on both sides of each multiple of 2**11 next to
    p * 2**53, _kept_pairs keeps exactly those whose random() double,
    (w >> 11) * 2**-53, is below p."""
    q = math.ceil(p * 2**53)
    words = sorted({min(max(w, 0), 2**64 - 1) for c in (q - 1, q, q + 1)
                    for w in ((c << 11) - 1, c << 11, (c << 11) + 2047)} | {0, 2**64 - 1})
    words += [0] * (15 - len(words))        # 15 pairs: n = 6
    i, j = graphs._kept_pairs(6, p, SimpleNamespace(bit_generator=_Words(words)))
    want = np.flatnonzero((np.array(words, dtype=np.uint64) >> 11) * 2.0**-53 < p)
    iu, ju = np.triu_indices(6, k=1)
    assert i.tolist() == iu[want].tolist() and j.tolist() == ju[want].tolist()


@pytest.mark.parametrize("n, density, m, digest", [
    (800, 6, 19_106, "44e7cd057bf9ac57"),       # the G1-shaped benchmark graph
    (2000, 1, 19_885, "00c869186a05b591"),      # the G22-shaped one
])
def test_random_graph_benchmark_instances_are_pinned(n, density, m, digest):
    g = random_graph(n, density, "unit", seed=1)
    h = hashlib.sha256()
    for a in (g.i, g.j, g.w):
        h.update(a.tobytes())
    assert (g.m, h.hexdigest()[:16]) == (m, digest)


@pytest.mark.parametrize("n,density", [(1, 10), (5, 0), (5, 101)])
def test_random_graph_rejects_bad_args(n, density):
    with pytest.raises(ValueError):
        random_graph(n, density, "unit", seed=0)


@pytest.mark.parametrize("kwargs, message", [
    ({"n": 5.5}, "n must be an integer, got 5.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
])
def test_random_graph_rejects_non_integer_size_and_seed(kwargs, message):
    """n = 5.5 used to fail deep in numpy with a TypeError; seed = 1.5 was
    accepted."""
    with pytest.raises(ValueError, match=message):
        random_graph(**{"n": 5, "density_percent": 50, "seed": 0, **kwargs})


def test_random_graph_rejects_unknown_weight_mode():
    with pytest.raises(ValueError, match=r"'uniform_range'; expected one of \('unit', 'pm_one'\)"):
        random_graph(5, 50, "uniform_range", seed=0)


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


@pytest.mark.parametrize("w, got", [
    ([1.0], "got list"),
    (np.array(["1"]), "got <U1"),
    (np.array([1.0 + 0.0j]), "got complex128"),
    (np.array([True]), "got bool"),
])
def test_edge_weights_must_be_real_arrays(w, got):
    """A list failed when frozen, a string array inside isfinite, and a
    complex array passed; all are GraphFormatErrors naming the weights."""
    i, j = np.array([0]), np.array([1])
    with pytest.raises(GraphFormatError, match=f"w must be a real array, {got}"):
        WeightedGraph(n=3, i=i, j=j, w=w)
    with pytest.raises(GraphFormatError, match=f"jval must be a real array, {got}"):
        IsingProblem(n=3, i=i, j=j, jval=w, h=np.zeros(3))


@pytest.mark.parametrize("i, j, w, name, shape", [
    (np.array([[0, 1]]), np.array([[1, 2]]), np.ones((1, 2)), "i", "(1, 2)"),
    (np.array([0]), np.array([[1]]), np.ones(1), "j", "(1, 1)"),
    (np.array([0]), np.array([1]), np.ones((1, 1)), "w", "(1, 1)"),
    (np.array(0), np.array(1), np.array(1.0), "i", "()"),
])
def test_edge_arrays_must_be_one_dimensional(i, j, w, name, shape):
    """A (1, 2) edge list was accepted as one edge, listed as ([0, 1], [1, 2])."""
    message = f"must be one-dimensional, got shape {re.escape(shape)}"
    with pytest.raises(GraphFormatError, match=f"{name} {message}"):
        WeightedGraph(n=3, i=i, j=j, w=w)
    with pytest.raises(GraphFormatError, match=message):
        IsingProblem(n=3, i=i, j=j, jval=w, h=np.zeros(3))


def test_integer_edge_weights_are_accepted():
    w = np.array([2])
    assert WeightedGraph(n=3, i=np.array([0]), j=np.array([1]), w=w).total_weight == 2.0


@pytest.mark.parametrize("wtype", [np.uint8, np.int32, np.int64])
@pytest.mark.parametrize("itype", [np.uint16, np.int32, np.int64])
def test_edge_lists_are_stored_canonically(wtype, itype):
    """Both classes store int64 indices and float64 weights, read-only,
    whatever integer or real dtypes they were given."""
    i, j = np.array([0, 1], dtype=itype), np.array([2, 2], dtype=itype)
    w = np.array([1, 3], dtype=wtype)
    for a in (WeightedGraph(n=np.int32(3), i=i, j=j, w=w),
              IsingProblem(n=np.int32(3), i=i, j=j, jval=w, h=np.zeros(3))):
        weights = a.w if isinstance(a, WeightedGraph) else a.jval
        assert type(a.n) is int
        assert (a.i.dtype, a.j.dtype, weights.dtype) == (np.int64, np.int64, np.float64)
        assert weights.tolist() == [1.0, 3.0]
        assert not (a.i.flags.writeable or a.j.flags.writeable or weights.flags.writeable)


@pytest.mark.parametrize("n", [2.0, 3.5, True, "3", None, -1])
def test_vertex_count_must_be_an_integer(n):
    """n = 2.0 was accepted and failed only in drift, with a bare TypeError;
    a negative n fails the same rule."""
    i, j = np.array([0]), np.array([1])
    message = f"n must be a non-negative integer, got {re.escape(repr(n))}"
    with pytest.raises(GraphFormatError, match=message):
        WeightedGraph(n=n, i=i, j=j, w=np.ones(1))
    with pytest.raises(GraphFormatError, match=message):
        IsingProblem(n=n, i=i, j=j, jval=np.ones(1), h=np.zeros(2))


def test_pair_keys_do_not_wrap_in_int32():
    """At n = 70,000, (0, 20000) and (61356, 67296) share the key 20000 when
    i * n + j is formed in int32; they are different pairs."""
    n = 70_000
    i = np.array([0, 61356], dtype=np.int32)
    j = np.array([20000, 67296], dtype=np.int32)
    assert WeightedGraph(n=n, i=i, j=j, w=np.ones(2)).m == 2
    assert IsingProblem(n=n, i=i, j=j, jval=np.ones(2), h=np.zeros(n)).m == 2
