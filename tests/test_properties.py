"""Property tests of the physics quantities over random small problems."""
import numpy as np
from hypothesis import given, settings, strategies as st

from oscising.coupling import sine, smoothed_square
from oscising.dynamics import OscillatorBank, _coupling_sum, _integrate, drift, make_rng
from oscising.graphs import WeightedGraph
from oscising.harness import trial_seed
from oscising.ising import (IsingProblem, cut_batch, cut_value, hamiltonian,
                            hamiltonian_batch, maxcut_to_ising)
from oscising.lyapunov import energy, energy_total_batch
from oscising.schedule import constant_schedule

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
def problems(draw, field=False):
    """An Ising problem with random couplings and, half the time, self terms;
    with field=True, always at least one h_i != 0."""
    g = draw(graphs())
    h = np.array(draw(st.lists(weights, min_size=g.n, max_size=g.n)))
    if field:
        h[draw(st.integers(0, g.n - 1))] = draw(st.floats(0.1, 2.0))
    elif not draw(st.booleans()):
        h = np.zeros(g.n)
    return IsingProblem(n=g.n, i=g.i, j=g.j, jval=g.w.copy(), h=h)


couplings = st.one_of(st.just(sine()),
                      st.builds(smoothed_square, st.floats(0.5, 25.0)))


def edge_coupling_sum(p, coupling, phi):
    """sum_{j != i} J_ij g(phi_i - phi_j), one edge at a time."""
    total = np.zeros_like(phi)
    for a, b, jv in zip(p.i, p.j, p.jval):
        total[..., a] += jv * coupling.g(phi[..., a] - phi[..., b])
        total[..., b] += jv * coupling.g(phi[..., b] - phi[..., a])
    return total


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


@FEW
@given(problems(field=True), seeds, couplings,
       st.sampled_from([1, 3]), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_factorised_drift_matches_edge_sum(p, seed, coupling, bsz, K, Ks):
    """The kernel equals the explicit edge sum, and a 1-D call is bit-equal
    to the same row of a batched call."""
    rng = make_rng(seed)
    bank = OscillatorBank.gaussian_spread(p.n, 0.01, rng)
    phi = rng.uniform(-20.0, 20.0, size=(bsz, p.n))
    scale = np.abs(p.jval).sum()
    ref_sum = edge_coupling_sum(p, coupling, phi)
    assert np.abs(_coupling_sum(p, coupling, phi) - ref_sum).max() <= 1e-12 * scale
    ref = bank.omega * (-K * ref_sum - K * p.h * coupling.g(phi)
                        - Ks * coupling.g(2.0 * phi)) + (bank.omega - bank.omega_star)
    d = drift(p, coupling, bank, phi, K, Ks)
    tol = 1e-12 * (scale + np.abs(p.h).sum() + Ks + 1.0) * bank.omega.max()
    assert np.abs(d - ref).max() <= tol
    assert all(np.array_equal(drift(p, coupling, bank, row, K, Ks), drow)
               for row, drow in zip(phi, d))


@FEW
@given(problems(), seeds, couplings,
       st.sets(st.integers(1, 4)))
def test_integrate_rows_do_not_depend_on_chunking(p, seed, coupling, cuts):
    """Batched = one chunk at a time, bit for bit, records included."""
    rows = 5
    rng = make_rng(seed)
    omega = 1.0 + 0.01 * rng.standard_normal(p.n)
    phi0 = rng.uniform(0.0, np.pi, size=(rows, p.n))
    sched = constant_schedule(0.6, 0.7, 0.5, 0.3)

    def run(idx):
        rngs = [make_rng(trial_seed(seed, int(b))) for b in idx]
        return _integrate(p, coupling, omega, 1.0, sched, 0.05, 12,
                          phi0[idx], rngs, record_every=5)

    whole, whole_rec = run(np.arange(rows))
    parts = [run(idx) for idx in np.split(np.arange(rows), sorted(cuts))]
    assert np.array_equal(whole, np.concatenate([q[0] for q in parts]))
    assert np.array_equal(whole_rec, np.concatenate([q[1] for q in parts], axis=1))
