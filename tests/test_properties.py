"""Property tests of the physics quantities over random small problems."""
import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from helpers import all_spin_configs, recorder, scipy_csr
from oscising.coupling import sine, smoothed_square
from oscising.dynamics import (OscillatorBank, _block_diagonal, _coupling_sum,
                               _integrate, _Operands, _product_args, _sin_cos,
                               _step_drift, csr_matvecs, drift, make_rng)
from oscising.graphs import GraphFormatError, WeightedGraph
from oscising.harness import _run, simulate, trial_seed
from oscising.ising import (IsingProblem, _incidence, brute_force_ground_state,
                            cut_batch, cut_value, hamiltonian, hamiltonian_batch,
                            maxcut_to_ising)
from oscising.lyapunov import check_monotone, energy, energy_total_batch
from oscising.schedule import Schedule, constant_schedule

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


@st.composite
def edge_arrays(draw):
    """(n, i, j, w) arrays that are valid, or broken by any mix of reversed or
    repeated pairs, self pairs, indices outside [0, n) and non-finite weights."""
    n = draw(st.integers(0, 6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    anywhere = st.integers(-2, n + 1)
    edges += draw(st.lists(st.tuples(anywhere, anywhere), max_size=2))
    if edges and draw(st.booleans()):
        a, b = draw(st.sampled_from(edges))
        edges.append(draw(st.sampled_from([(a, b), (b, a)])))
    edges = draw(st.permutations(edges))
    w = draw(st.lists(weights, min_size=len(edges), max_size=len(edges)))
    if w and draw(st.booleans()):
        w[draw(st.integers(0, len(w) - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    i = np.array([a for a, _ in edges], dtype=dtype)
    j = np.array([b for _, b in edges], dtype=dtype)
    return n, i, j, np.array(w, dtype=np.float64)


def edges_accepted(n, i, j, w):
    """The edge-list invariant, one pair at a time against a set."""
    seen = set()
    for a, b, x in zip(i.tolist(), j.tolist(), w.tolist()):
        if not (0 <= a < b < n and np.isfinite(x)) or (a, b) in seen:
            return False
        seen.add((a, b))
    return True


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
@given(problems(), st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
@example(IsingProblem.from_couplings(0, {}), 2.5)     # no spins: H is the offset
def test_brute_force_h_is_the_hamiltonian_of_its_spins(p, offset):
    """The ground state's H is hamiltonian() of its spins bit for bit, and
    the least H of all 2^n spin rows, with and without h and an offset."""
    p = IsingProblem(n=p.n, i=p.i, j=p.j, jval=p.jval, h=p.h, constant_offset=offset)
    spins, h0 = brute_force_ground_state(p)
    assert hamiltonian(p, spins) == h0
    assert h0 == hamiltonian_batch(p, all_spin_configs(p.n)).min()


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
@given(problems())
@example(IsingProblem.from_couplings(1, {}))
@example(IsingProblem.from_couplings(3, {}))
@example(IsingProblem(n=3, i=np.array([1, 0, 0]), j=np.array([2, 2, 1]),
                      jval=np.array([0.5, -1.0, 2.0]), h=np.zeros(3)))
def test_csr_arrays_are_what_scipy_stores(p):
    """The incidence and the adjacency, built with numpy, hold exactly the
    shape, index dtype, indptr, indices and data of scipy's csr_matrix of
    the same entries: rows in order, each row's columns ascending, which
    the bit-identity of the coupling sums relies on, S's edge tiles
    (_incidence of a slice of the edges) included."""
    rows = np.concatenate([p.i, p.j])
    edges = np.arange(p.m)
    for matrix, cols, vals in (
            (p.incidence, np.concatenate([edges, edges]),
             np.concatenate([p.jval, -p.jval])),
            (p.adjacency, np.concatenate([p.j, p.i]),
             np.concatenate([p.jval, p.jval]))):
        ref = sparse.csr_matrix((vals, (rows, cols)), shape=matrix.shape)
        assert matrix.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(matrix, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)


@FEW
@given(problems(), seeds, st.sampled_from([1, 2, 65]))
@example(IsingProblem.from_couplings(3, {}), 0, 2)
def test_direct_product_is_bit_equal_to_scipy_matmul(p, seed, k):
    """The coupling sums call the csr_matvecs that dynamics loads from
    scipy's compiled _sparsetools file, through _product_args.  On adjacency
    and incidence, m = 0 included, it is bit-equal to scipy's `matrix @ x`,
    which runs csr_matvecs for k > 1 columns and csr_matvec for one; a
    change to either kernel fails here.  The sine sum's diag(J, J) times a
    (2, n, k) block is bit-equal to J @ s stacked on J @ c."""
    rng = make_rng(seed)
    for matrix in (p.adjacency, p.incidence):
        x = rng.uniform(-2.0, 2.0, size=(matrix.shape[1], k))
        y = np.zeros((matrix.shape[0], k))
        csr_matvecs(*_product_args(matrix, x, y))
        assert np.array_equal(y, scipy_csr(matrix) @ x)
    J, n = scipy_csr(p.adjacency), p.n
    x = rng.uniform(-2.0, 2.0, size=(2, n, k))
    y = np.zeros((2, n, k))
    csr_matvecs(*_product_args(_block_diagonal(p.adjacency), x.reshape(2 * n, k),
                               y.reshape(2 * n, k)))
    assert np.array_equal(y, np.stack([J @ x[0], J @ x[1]]))


def problem_with_m(m):
    """A 9-node problem with its first m pairs in lexicographic order."""
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9)][:m]
    return IsingProblem.from_couplings(9, {e: 0.25 * (k % 7) - 0.8
                                           for k, e in enumerate(pairs)})


@FEW
@given(problems(), seeds, st.sampled_from([1, 2, 3, 7, None]),
       st.sampled_from([1, 2, 65]))
@example(IsingProblem.from_couplings(3, {}), 0, 2, 2)
@example(IsingProblem.from_couplings(3, {}), 0, None, 2)
@example(problem_with_m(6), 0, 3, 2)           # m a multiple of the tile
@example(problem_with_m(13), 0, 3, 65)         # a remainder tile
@example(problem_with_m(36), 0, 7, 65)
def test_incidence_tiles_sum_to_the_whole_product(p, seed, width, k):
    """The smoothed-square sum adds the products of the incidence's column
    tiles in ascending order into one zeroed y, each tile the _incidence of
    a slice of width edges, as _Operands builds them (one empty tile when
    m = 0).  Each tile equals scipy's slice S[:, lo:hi] array for array, and
    the summed y is bit-equal to S @ x; a change to the CSR layout or to
    csr_matvecs fails here.  width None is m: one tile, the whole of S."""
    S = scipy_csr(p.incidence)
    width = max(p.m if width is None else width, 1)
    tiles = []
    for lo in range(0, max(p.m, 1), width):
        i, j, jval = (e[lo:lo + width] for e in (p.i, p.j, p.jval))
        tile = _incidence(p.n, i, j, jval)
        tiles.append((lo, lo + tile.shape[1], tile))
    assert [(lo, hi) for lo, hi, _ in tiles] == (
        [(lo, min(lo + width, p.m)) for lo in range(0, p.m, width)] or [(0, 0)])
    x = make_rng(seed).uniform(-2.0, 2.0, size=(p.m, k))
    y = np.zeros((p.n, k))
    for lo, hi, tile in tiles:
        ref = S[:, lo:hi]
        assert tile.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(tile, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        csr_matvecs(*_product_args(tile, x[lo:hi], y))
    assert np.array_equal(y, S @ x)


@FEW
@given(problems(field=True), seeds, couplings,
       st.sampled_from([1, 3]), st.floats(0.0, 2.0), st.floats(0.0, 2.0))
@example(IsingProblem(n=2, i=np.array([0]), j=np.array([1]),
                      jval=np.array([2.2250738585e-313]), h=np.array([1.0, 0.0])),
         0, sine(), 1, 0.0, 0.0)                # subnormal weights: sums 5e-324 apart
def test_factorised_drift_matches_edge_sum(p, seed, coupling, bsz, K, Ks):
    """The kernel equals the explicit edge sum, and a 1-D call is bit-equal
    to the same row of a batched call.  The sums' bound has an absolute
    floor of a few smallest-subnormal steps per edge: below the smallest
    normal an operation rounds by up to 2**-1075 absolute, not relative,
    so 1e-12 * sum |J| alone is 0 for all-subnormal weights."""
    rng = make_rng(seed)
    bank = OscillatorBank.gaussian_spread(p.n, 0.01, rng)
    phi = rng.uniform(-20.0, 20.0, size=(bsz, p.n))
    scale = np.abs(p.jval).sum()
    ref_sum = edge_coupling_sum(p, coupling, phi)
    ops = _Operands(p, coupling, bank.omega, 1.0, bsz)
    _sin_cos(phi.T, ops.s, ops.c, ops.tmp)
    floor = 4 * p.m * np.finfo(float).smallest_subnormal
    assert np.abs(_coupling_sum(ops, coupling, ops.sc).T - ref_sum).max() <= 1e-12 * scale + floor
    ref = bank.omega * (-K * ref_sum - K * p.h * coupling.g(phi)
                        - Ks * coupling.g(2.0 * phi)) + (bank.omega - 1.0)
    d = drift(p, coupling, bank, phi, K, Ks)
    tol = 1e-12 * (scale + np.abs(p.h).sum() + Ks + 1.0) * bank.omega.max()
    assert np.abs(d - ref).max() <= tol
    assert all(np.array_equal(drift(p, coupling, bank, row, K, Ks), drow)
               for row, drow in zip(phi, d))


@FEW
@given(problems(), seeds, couplings, st.booleans(),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0))
def test_drift_is_minus_half_omega_gradient(p, seed, coupling, uniform, K, Ks):
    """drift = -(w/2) grad E: central differences of E along random unit
    directions equal -(2/w) * drift projected on them."""
    rng = make_rng(seed)
    bank = (OscillatorBank.uniform(p.n) if uniform
            else OscillatorBank.gaussian_spread(p.n, 0.05, rng))
    phi = rng.uniform(-6.0, 6.0, size=(4, p.n))
    u = rng.standard_normal((4, p.n))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    eps = 1e-5
    fd = (energy_total_batch(p, coupling, bank, phi + eps * u, K, Ks)
          - energy_total_batch(p, coupling, bank, phi - eps * u, K, Ks)) / (2 * eps)
    grad = -2.0 / bank.omega * drift(p, coupling, bank, phi, K, Ks)
    scale = np.abs(p.jval).sum() + np.abs(p.h).sum() + Ks + 1.0
    assert np.abs((grad * u).sum(axis=1) - fd).max() <= 1e-6 * scale


@FEW
@given(problems(), seeds, couplings,
       st.sets(st.integers(1, 4)), st.booleans())
def test_integrate_rows_do_not_depend_on_chunking(p, seed, coupling, cuts, per_trial):
    """Batched = one chunk at a time, bit for bit, records included, with
    shared (n,) or per-trial (rows, n) frequencies."""
    rows = 5
    rng = make_rng(seed)
    omega = 1.0 + 0.01 * rng.standard_normal((rows, p.n) if per_trial else p.n)
    phi0 = rng.uniform(0.0, np.pi, size=(rows, p.n))
    sched = constant_schedule(0.6, 0.7, 0.5, 0.3)

    def run(idx):
        rngs = [make_rng(trial_seed(seed, int(b))) for b in idx]
        records, sink = recorder(12, 5, len(idx), p.n)
        final = _integrate(p, coupling, omega[idx] if per_trial else omega, 1.0,
                           sched, 0.05, 12, phi0[idx], rngs, every=5, sink=sink)
        return final, records

    whole, whole_rec = run(np.arange(rows))
    parts = [run(idx) for idx in np.split(np.arange(rows), sorted(cuts))]
    assert np.array_equal(whole, np.concatenate([q[0] for q in parts]))
    assert np.array_equal(whole_rec, np.concatenate([q[1] for q in parts], axis=1))


@st.composite
def schedules(draw):
    """Controls over [0, 1], each channel one to three control points at
    random times; Kn > 0 at every point, so noise always enters."""
    def channel(lo):
        ts = [0.0] + sorted(draw(st.sets(st.floats(0.01, 1.0), max_size=2)))
        return tuple((t, draw(st.floats(lo, 2.0))) for t in ts)
    return Schedule(1.0, channel(0.0), channel(0.0), channel(0.1))


def rescaled(schedule, c, kn_factor):
    """Times over c, K and Ks times c, Kn times kn_factor."""
    move = lambda pts, a: tuple((t / c, a * v) for t, v in pts)
    return Schedule(schedule.t_end / c, move(schedule.k_points, c),
                    move(schedule.ks_points, c), move(schedule.kn_points, kn_factor))


@FEW
@given(problems(), seeds, couplings, schedules(), st.sampled_from([0.25, 4.0]),
       st.integers(5, 40))
def test_time_rescaled_anneal_gives_bit_equal_finals(p, seed, coupling, sched, c, n_steps):
    """With unit frequencies the drift is linear in (K, Ks) and noise enters
    as Kn sqrt(dt), so (K, Ks, Kn, T, dt) -> (c K, c Ks, sqrt(c) Kn, T/c,
    dt/c), control points included, maps every Euler-Maruyama step to
    itself.  A power of four keeps c, sqrt(c) and sqrt(dt/c) exact, so the
    finals on the same keys are bit-equal; Kn scaled by c is told apart."""
    keys = [trial_seed(seed, k) for k in range(3)]
    run = lambda s, dt: _run(p, coupling, s, dt, n_steps, keys)
    base = run(sched, 1.0 / n_steps)
    assert np.array_equal(run(rescaled(sched, c, np.sqrt(c)), 1.0 / n_steps / c), base)
    assert not np.array_equal(run(rescaled(sched, c, c), 1.0 / n_steps / c), base)


@FEW
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
def test_half_angle_sin_cos_match_numpy(values):
    """The kernel's s and c, from one tan(phi / 2), are sin and cos."""
    phi = np.array(values)
    s, c, t = np.empty((3,) + phi.shape)
    _sin_cos(phi, s, c, t)
    assert np.abs(s - np.sin(phi)).max() <= 1e-15
    assert np.abs(c - np.cos(phi)).max() <= 1e-15


@FEW
@given(problems(), seeds, couplings, st.sampled_from([np.nan, np.inf, -np.inf]),
       st.floats(0.0, 2.0), st.floats(0.1, 2.0))
def test_nonfinite_phase_gives_nonfinite_drift(p, seed, coupling, bad, K, Ks):
    """A non-finite phase makes its own drift non-finite (the SHIL term reads
    it whatever the couplings) and leaves the other rows finite."""
    phi = make_rng(seed).uniform(-20.0, 20.0, size=(3, p.n))
    node = seed % p.n
    phi[1, node] = bad
    omega = np.ones(p.n)
    with np.errstate(invalid="ignore"):
        ops = _Operands(p, coupling, omega, 1.0, len(phi))
        ops.load(phi, 0)
        d = _step_drift(ops, ops.phi, -K, Ks).T
    assert not np.isfinite(d[1, node])
    assert np.isfinite(d[[0, 2]]).all()


@FEW
@given(problems(), seeds, couplings, st.booleans(),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_energy_never_rises_on_noiseless_constant_runs(p, seed, coupling, uniform,
                                                       K, Ks):
    """E never rises along a short noiseless run under constant controls, with
    steps well inside the explicit Euler stability limit."""
    bank = (OscillatorBank.uniform(p.n) if uniform
            else OscillatorBank.gaussian_spread(p.n, 0.01, make_rng(seed)))
    traj = simulate(p, coupling, bank, constant_schedule(0.2, K, Ks, 0.0),
                    dt=1e-3, seed=seed)
    report = check_monotone(traj, coupling, p, bank)
    assert report.passed, f"E rose at sample {report.first_violation}"


@settings(max_examples=200, deadline=None)
@given(edge_arrays())
def test_graph_and_problem_accept_exactly_the_valid_edge_lists(case):
    n, i, j, w = case
    builds = (lambda: WeightedGraph(n=n, i=i, j=j, w=w),
              lambda: IsingProblem(n=n, i=i, j=j, jval=w, h=np.zeros(n)))
    for build in builds:
        try:
            build()
            accepted = True
        except GraphFormatError:
            accepted = False
        assert accepted == edges_accepted(n, i, j, w)
