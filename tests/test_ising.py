import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from helpers import (all_spin_configs, coupling_dict, cubic_ring_graph, same_bits, scipy_csr,
                     uniform_random_graph)
from oscising import ising
from oscising.coupling import smoothed_square
from oscising.graphs import WeightedGraph, random_graph
from oscising.ising import (IsingProblem, SpinConfig, _crossing, _edge_sum,
                            _row_sum, _spin_product, brute_force_ground_state,
                            cut_batch, cut_value, hamiltonian, hamiltonian_batch,
                            maxcut_to_ising)


def spread_entries(shape, size):
    """size distinct positions of the shape as int64 (rows, cols), in random
    order but for the last: the corner (n - 1, ncols - 1), whose tagged key
    is the largest that a build of this shape and size can make."""
    last = shape[0] * shape[1] - 1
    rng = np.random.default_rng(size)
    keys = (np.append(rng.choice(last, size - 1, replace=False), last) if size
            else np.zeros(0, dtype=np.int64))
    return np.divmod(keys, shape[1])


T = ising.CSR_TAGGED_MIN


@pytest.mark.parametrize("shape, size", [
    pytest.param((3, 4), 0, id="no-entry"),
    pytest.param((3, 4), 1, id="one-entry"),
    pytest.param((2, 2**9), T - 1, id="lexsort-below-the-tagged-size"),
    pytest.param((2, 2**9), T, id="tagged-at-its-size"),
    # b = 10 bits of position: the corner's tagged key is 2**63 - 1024 + 511
    pytest.param((2, 2**52), T, id="largest-tagged-key"),
    # tagged keys could reach 2**64: the lexsort fallback
    pytest.param((2, 2**53), T, id="fallback-past-int64"),
    # n * ncols alone is 2**63
    pytest.param((2, 2**62), 3, id="fallback-2**62-few"),
    pytest.param((2, 2**62), T, id="fallback-2**62"),
])
def test_csr_edge_builds_are_what_scipy_stores(shape, size):
    rows, cols = spread_entries(shape, size)
    vals = np.arange(1.0, size + 1.0)
    got = ising._csr(shape, rows, cols, vals)
    ref = sparse.csr_matrix((vals, (rows, cols)), shape=shape)
    assert got.shape == ref.shape and len(got.indptr) == shape[0] + 1
    for name in ("indptr", "indices", "data"):
        assert same_bits(getattr(got, name), getattr(ref, name))


def test_spin_config_validates():
    SpinConfig(np.array([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        SpinConfig(np.array([1.0, 0.5]))


def test_maxcut_encoding_single_edge():
    g = random_graph(2, 100, "unit", seed=0)
    p = maxcut_to_ising(g)
    assert coupling_dict(p) == {(0, 1): -1.0}
    assert np.all(p.h == 0.0)
    assert p.constant_offset == 0.0


def test_maxcut_encoding_empty_graph():
    from oscising.graphs import WeightedGraph
    p = maxcut_to_ising(WeightedGraph.from_edges(3, []))
    assert p.m == 0
    assert hamiltonian(p, np.array([1.0, -1.0, 1.0])) == 0.0


def test_maxcut_cubic8_has_12_unit_couplings():
    p = maxcut_to_ising(cubic_ring_graph(8))
    assert p.m == 12
    assert np.all(p.jval == -1.0)


@pytest.mark.parametrize("jval", [np.nan, np.inf, -np.inf])
def test_problem_rejects_nonfinite_jval(jval):
    with pytest.raises(ValueError, match="jval must be finite"):
        IsingProblem.from_couplings(3, {(0, 1): jval})


def test_problem_rejects_unequal_coupling_lengths():
    with pytest.raises(ValueError, match="i, j and jval must have equal lengths"):
        IsingProblem(n=3, i=np.array([0, 1]), j=np.array([1, 2]),
                     jval=np.array([1.0]), h=np.zeros(3))


def test_problem_rejects_negative_index():
    with pytest.raises(ValueError, match="i holds an index outside"):
        IsingProblem(n=3, i=np.array([-1]), j=np.array([1]),
                     jval=np.array([1.0]), h=np.zeros(3))


def test_problem_rejects_index_at_or_above_n():
    with pytest.raises(ValueError, match=r"j holds an index outside \[0, n=3\)"):
        IsingProblem.from_couplings(3, {(0, 7): 1.0})
    with pytest.raises(ValueError, match="j holds an index outside"):
        IsingProblem.from_couplings(3, {(0, 3): 1.0})


@pytest.mark.parametrize("couplings,message", [
    ({(0, 1): 1.0, (1, 0): 2.0}, r"duplicate pair \(0, 1\)"),
    ({(2, 2): 1.0}, "self loop at vertex 2"),
])
def test_from_couplings_rejects_repeated_and_self_pairs(couplings, message):
    with pytest.raises(ValueError, match=message):
        IsingProblem.from_couplings(3, couplings)


def test_adjacency_is_the_symmetric_coupling_matrix():
    p = IsingProblem.from_couplings(4, {(0, 1): 1.5, (1, 3): -2.0})
    dense = np.zeros((4, 4))
    dense[0, 1] = dense[1, 0] = 1.5
    dense[1, 3] = dense[3, 1] = -2.0
    assert np.array_equal(scipy_csr(p.adjacency).toarray(), dense)


def test_hamiltonian_single_term():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    assert hamiltonian(p, np.array([1.0, -1.0])) == 1.0
    assert hamiltonian(p, np.array([1.0, 1.0])) == -1.0


def test_hamiltonian_dimension_mismatch():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        hamiltonian(p, np.array([1.0, 1.0, 1.0]))


def test_cut_values_on_cubic8():
    g = cubic_ring_graph(8)
    even_odd = np.array([1.0 if v % 2 == 0 else -1.0 for v in range(8)])
    assert cut_value(g, even_odd) == 8.0
    spins, h0 = brute_force_ground_state(maxcut_to_ising(g))
    assert h0 == -8.0
    assert cut_value(g, spins) == 10.0
    assert cut_value(g, np.ones(8)) == 0.0


def test_cut_identity_property():
    """2*cut + H == total weight, for random graphs and spins."""
    rng = np.random.default_rng(123)
    checked = 0
    for gseed in range(100):
        n, density = int(rng.integers(2, 30)), float(rng.uniform(5, 100))
        g = (uniform_random_graph(n, density, seed=gseed) if gseed % 3 == 2
             else random_graph(n, density, ("unit", "pm_one")[gseed % 3], seed=gseed))
        p = maxcut_to_ising(g)
        s = 1.0 - 2.0 * rng.integers(0, 2, size=(100, g.n))
        cuts = np.array([cut_value(g, row) for row in s])
        hs = hamiltonian_batch(p, s)
        scale = max(1.0, np.abs(g.w).sum())
        assert np.abs(2 * cuts + hs - g.total_weight).max() <= 1e-12 * scale
        checked += len(s)
    assert checked == 10_000


def test_spin_flip_symmetry_when_h_zero():
    rng = np.random.default_rng(7)
    g = uniform_random_graph(12, 40, seed=8)
    p = maxcut_to_ising(g)
    for _ in range(50):
        s = 1.0 - 2.0 * rng.integers(0, 2, size=12)
        assert hamiltonian(p, s) == hamiltonian(p, -s)


def test_brute_force_matches_exhaustive_scan():
    g = random_graph(10, 30, "pm_one", seed=11)
    p = maxcut_to_ising(g)
    _, h0 = brute_force_ground_state(p)
    assert h0 == hamiltonian_batch(p, all_spin_configs(10)).min()


def test_brute_force_with_self_terms():
    p = IsingProblem.from_couplings(1, {}, h=np.array([1.0]))
    spins, h0 = brute_force_ground_state(p)
    assert h0 == -1.0
    assert spins.s.tolist() == [1.0]

    rng = np.random.default_rng(2)
    p2 = IsingProblem.from_couplings(
        6, {(0, 1): 1.0, (2, 3): -2.0, (1, 4): 0.5}, h=rng.normal(size=6))
    _, h0 = brute_force_ground_state(p2)
    assert h0 == hamiltonian_batch(p2, all_spin_configs(6)).min()


def test_brute_force_rejects_large_n():
    p = IsingProblem.from_couplings(25, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        brute_force_ground_state(p)


def test_constant_offset_enters_hamiltonian():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0}, constant_offset=10.0)
    assert hamiltonian(p, np.array([1.0, 1.0])) == 9.0


SQUARE = smoothed_square()
EDGE_TERMS = {
    "spin product": _spin_product,
    "crossing": _crossing,
    "pair kernel": lambda a, b: SQUARE.pair_kernel(np.subtract(a, b, out=a)),
}


def untiled_edge_sum(g, x, term):
    return _row_sum(term(x[..., g.i], x[..., g.j]) * g.w)


@pytest.mark.parametrize("term", EDGE_TERMS.values(), ids=EDGE_TERMS.keys())
@pytest.mark.parametrize("tile", [1, 2, 3, 7, "m"])
def test_edge_sum_is_the_untiled_row_sum(monkeypatch, term, tile):
    """Float weights, whose sums depend on the order of the additions; a
    row alone, its row in a batch and the untiled sum agree bit for bit."""
    g = uniform_random_graph(30, 40, seed=4)
    monkeypatch.setattr(ising, "EDGE_TILE", g.m if tile == "m" else tile)
    x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(6, g.n))
    x[1] = np.where(x[1] < 0, -1.0, 1.0)        # a row of spins
    batch = _edge_sum(g.i, g.j, g.w, x, term)
    assert same_bits(batch, untiled_edge_sum(g, x, term))
    for b, row in enumerate(x):
        alone = _edge_sum(g.i, g.j, g.w, row, term)
        assert same_bits(alone, untiled_edge_sum(g, row, term))
        assert same_bits(alone, batch[b])


@pytest.mark.parametrize("tile", [1, 4])
def test_edge_sum_of_no_edges_and_of_negative_zeros(monkeypatch, tile):
    """No edges sum to +0.0 per row; terms that are all -0.0 sum to -0.0, as
    the untiled sum gives, in the first tile and after it."""
    monkeypatch.setattr(ising, "EDGE_TILE", tile)
    empty = WeightedGraph.from_edges(5, [])
    x = np.ones((3, 5))
    assert same_bits(_edge_sum(empty.i, empty.j, empty.w, x, _crossing), np.zeros(3))
    assert same_bits(_edge_sum(empty.i, empty.j, empty.w, x[0], _crossing), np.zeros(()))
    negative = WeightedGraph.from_edges(5, [(0, 1, -1.0), (1, 2, -2.0), (3, 4, -0.5)])
    got = _edge_sum(negative.i, negative.j, negative.w, x, _crossing)
    assert same_bits(got, untiled_edge_sum(negative, x, _crossing))
    assert np.signbit(got).all()


def test_readout_allocates_no_edge_by_trial_arrays():
    """H and cut of 64 spin rows on the G1-shaped graph (m = 19,106) peak
    far below one (64, m) float64 array, 9.8 MB."""
    g = random_graph(800, 6, "unit", seed=1)
    p = maxcut_to_ising(g)
    s = np.where(np.random.default_rng(0).random((64, g.n)) < 0.5, 1.0, -1.0)
    tracemalloc.start()
    try:
        h = hamiltonian_batch(p, s)
        cut = cut_batch(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20
    assert np.array_equal(2 * cut + h, np.full(64, g.total_weight))
