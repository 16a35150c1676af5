"""Property tests of the physics quantities over random small problems."""
import numpy as np
from hypothesis import given, settings, strategies as st

from oscising.coupling import sine, smoothed_square
from oscising.dynamics import OscillatorBank, make_rng
from oscising.graphs import WeightedGraph
from oscising.ising import (IsingProblem, cut_batch, cut_value, hamiltonian,
                            hamiltonian_batch, maxcut_to_ising)
from oscising.lyapunov import energy, energy_total_batch

FEW = settings(max_examples=25, deadline=None)
weights = st.floats(-2.0, 2.0, allow_nan=False)
seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    w = draw(st.lists(weights, min_size=len(chosen), max_size=len(chosen)))
    return WeightedGraph.from_edges(n, [(a, b, x) for (a, b), x in zip(chosen, w)])


@st.composite
def problems(draw):
    """An Ising problem with random couplings and, half the time, self terms."""
    g = draw(graphs())
    h = np.array(draw(st.lists(weights, min_size=g.n, max_size=g.n)))
    h = h if draw(st.booleans()) else np.zeros(g.n)
    return IsingProblem(n=g.n, i=g.i, j=g.j, jval=g.w.copy(), h=h)


def random_spins(seed, n, rows=5):
    return 1.0 - 2.0 * make_rng(seed).integers(0, 2, size=(rows, n))


@FEW
@given(problems(), seeds)
def test_hamiltonian_equals_its_batch_row(p, seed):
    s = random_spins(seed, p.n)
    hs = hamiltonian_batch(p, s)
    assert all(hamiltonian(p, row) == hb for row, hb in zip(s, hs))


@FEW
@given(graphs(), seeds)
def test_cut_equals_its_batch_row_and_completes_h(g, seed):
    s = random_spins(seed, g.n)
    cuts = cut_batch(g, s)
    assert all(cut_value(g, row) == c for row, c in zip(s, cuts))
    hs = hamiltonian_batch(maxcut_to_ising(g), s)
    scale = max(1.0, np.abs(g.w).sum())
    assert np.abs(2.0 * cuts + hs - g.total_weight).max() <= 1e-12 * scale


@FEW
@given(problems(), seeds, st.sampled_from([sine(), smoothed_square()]),
       st.booleans(), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_energy_equals_its_batch_row(p, seed, coupling, uniform, K, Ks):
    rng = make_rng(seed)
    bank = (OscillatorBank.uniform(p.n) if uniform
            else OscillatorBank.gaussian_spread(p.n, 0.01, rng))
    phi = rng.uniform(-2 * np.pi, 2 * np.pi, size=(5, p.n))
    totals = energy_total_batch(p, coupling, bank, phi, K, Ks)
    assert all(energy(p, coupling, bank, row, K, Ks).total == e
               for row, e in zip(phi, totals))


@FEW
@given(problems(), seeds, st.floats(0.0, 3.0))
def test_binary_energy_is_hamiltonian_minus_n_ks(p, seed, Ks):
    bank = OscillatorBank.uniform(p.n)
    for s in random_spins(seed, p.n):
        phi = np.where(s > 0, 0.0, np.pi)
        assert energy(p, sine(), bank, phi, 0.5, Ks).total == hamiltonian(p, s) - p.n * Ks
