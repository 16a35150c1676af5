import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import recorder, same_bits, scipy_csr, uniform_random_graph
from oscising.coupling import sine, smoothed_square
from oscising.coloring import coloring_to_ising, us_states_instance
from oscising.dynamics import (EDGE_TILE, IntegrationError, OscillatorBank,
                               _coupling_sum, _integrate,
                               _Operands, _product_args, _sin_cos,
                               _spins_batch, _step_drift, binarisation_residual,
                               drift, make_rng, trajectory_to_csv)
from oscising.graphs import random_graph
from oscising import dynamics, harness
from oscising.harness import _run, simulate
from oscising.ising import IsingProblem, maxcut_to_ising
from oscising.schedule import Schedule, constant_schedule


def empty_problem(n):
    return IsingProblem.from_couplings(n, {})


def test_drift_single_oscillator_shil_equilibrium():
    p = empty_problem(1)
    bank = OscillatorBank.uniform(1)
    d = drift(p, sine(), bank, np.array([np.pi / 2]), K=1.0, Ks=1.0)
    assert d[0] == pytest.approx(-np.sin(np.pi), abs=1e-15)


def test_drift_two_oscillators_analytic():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank.uniform(2)
    d = drift(p, sine(), bank, np.array([0.0, np.pi / 2]), K=1.0, Ks=0.0)
    assert d == pytest.approx([1.0, -1.0])


def test_drift_two_pi_shift_equivariance():
    rng = np.random.default_rng(5)
    g = uniform_random_graph(8, 50, seed=9)
    p = maxcut_to_ising(g)
    bank = OscillatorBank.uniform(8)
    phi = rng.uniform(0, 2 * np.pi, 8)
    base = drift(p, smoothed_square(), bank, phi, 0.5, 1.0)
    for i in range(8):
        shifted = drift(p, smoothed_square(), bank, phi + 2 * np.pi * np.eye(8)[i],
                        0.5, 1.0)
        assert shifted == pytest.approx(base, abs=1e-9)


def test_drift_global_phase_shift_invariance():
    """With Ks = 0 and h = 0 only phase differences matter."""
    rng = np.random.default_rng(6)
    g = random_graph(8, 50, "pm_one", seed=10)
    p = maxcut_to_ising(g)
    bank = OscillatorBank.uniform(8)
    phi = rng.uniform(0, 2 * np.pi, 8)
    base = drift(p, sine(), bank, phi, 0.5, 0.0)
    shifted = drift(p, sine(), bank, phi + 1.234, 0.5, 0.0)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_drift_dimension_mismatch():
    p = empty_problem(3)
    with pytest.raises(ValueError):
        drift(p, sine(), OscillatorBank.uniform(3), np.zeros(2), 1.0, 0.0)


def test_drift_rejects_phases_without_a_node_axis():
    """A scalar phase on a 1-node problem used to raise a bare IndexError."""
    p = empty_problem(1)
    with pytest.raises(ValueError, match=r"phi of shape \(\) does not end in n=1"):
        drift(p, sine(), OscillatorBank.uniform(1), 0.3, 1.0, 0.5)


def test_drift_keeps_any_leading_batch_axes():
    """(..., n) phases give the drift of each (n,) row, bit for bit."""
    p = blocked_problem()
    bank = OscillatorBank(1.0 + 0.01 * make_rng(1).standard_normal(p.n))
    phi = make_rng(2).uniform(-3.0, 3.0, size=(2, 3, p.n))
    for coupling in (sine(), smoothed_square()):
        d = drift(p, coupling, bank, phi, 0.8, 0.4)
        assert d.shape == phi.shape
        assert all(np.array_equal(drift(p, coupling, bank, row, 0.8, 0.4), drow)
                   for row, drow in zip(phi.reshape(-1, p.n), d.reshape(-1, p.n)))


@pytest.mark.parametrize("shape", [(0,), (2, 0), (20_000, 0)])
def test_drift_of_no_spins_keeps_the_shape(shape):
    """A problem with no spins: (2, 0) phases used to fail in the reshape,
    and a block of 20,000 trials in the smoothed square's edge tiling,
    which made tiles of no edges."""
    p = empty_problem(0)
    for coupling in (sine(), smoothed_square()):
        assert drift(p, coupling, OscillatorBank.uniform(0), np.zeros(shape),
                     1.0, 0.5).shape == shape


def test_drift_rejects_wrong_sized_bank():
    """A one-frequency bank used to broadcast over three oscillators."""
    p = empty_problem(3)
    with pytest.raises(ValueError, match="bank size does not match problem size"):
        drift(p, sine(), OscillatorBank(np.array([1.5])), np.zeros(3), 1.0, 0.5)


def test_drift_rejects_nonfinite_phase():
    p = empty_problem(2)
    with pytest.raises(IntegrationError):
        drift(p, sine(), OscillatorBank.uniform(2),
              np.array([np.nan, 0.0]), 1.0, 0.0)


def test_step_noise_variance():
    """Var(phi' - phi) = Kn^2 * dt over many draws, through one simulate step."""
    dt = 0.04
    n = 100_000
    traj = simulate(empty_problem(n), sine(), OscillatorBank.uniform(n),
                    constant_schedule(dt, 0.0, 0.0, 1.0), dt=dt, seed=77)
    assert (traj.phi[-1] - traj.phi[0]).var() == pytest.approx(dt, rel=0.05)


def test_simulate_zero_field_keeps_phases():
    p = empty_problem(5)
    sched = constant_schedule(2.0, 1.0, 0.0, 0.0)
    traj = simulate(p, sine(), OscillatorBank.uniform(5), sched, dt=0.01,
                    seed=3, record_every=50)
    assert np.allclose(traj.phi, traj.phi[0], atol=0.0)


def test_simulate_deterministic_and_records_final():
    g = random_graph(6, 60, "pm_one", seed=2)
    p = maxcut_to_ising(g)
    sched = constant_schedule(1.0, 0.5, 1.0, 0.3)
    bank = OscillatorBank.uniform(6)
    t1 = simulate(p, sine(), bank, sched, dt=0.01, seed=42, record_every=7)
    t2 = simulate(p, sine(), bank, sched, dt=0.01, seed=42, record_every=7)
    assert np.array_equal(t1.phi, t2.phi)
    assert t1.t[-1] == pytest.approx(1.0)
    assert t1.t[0] == 0.0
    # steps 0, 7, ..., 98 and the last step, 100
    assert np.allclose(t1.t, np.append(np.arange(0, 100, 7), 100) * 0.01)


def test_simulate_rejects_bad_step_and_record_settings(monkeypatch):
    monkeypatch.setattr(harness, "_integrate", None)     # nothing may run
    p = empty_problem(2)
    args = (p, sine(), OscillatorBank.uniform(2), constant_schedule(1.0, 0.0, 0.0, 0.0))
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(*args, dt=dt, seed=0)
    with pytest.raises(ValueError, match="t_end must be at least dt"):
        simulate(*args, dt=2.0, seed=0)
    # 1.5 would step the record times by 1.5 while phases are recorded at
    # whole steps
    for record_every, message in ((0, "need record_every >= 1, got 0"),
                                  (1.5, "record_every must be an integer, got 1.5")):
        with pytest.raises(ValueError, match=message):
            simulate(*args, dt=0.1, seed=0, record_every=record_every)


def test_simulate_matches_manual_stepping():
    """simulate is the explicit Euler-Maruyama loop
    phi' = phi + drift*dt + Kn*sqrt(dt)*zeta on the same stream."""
    g = random_graph(5, 80, "unit", seed=6)
    p = maxcut_to_ising(g)
    bank = OscillatorBank.uniform(5)
    sched = constant_schedule(0.2, 0.7, 0.5, 0.4)
    traj = simulate(p, sine(), bank, sched, dt=0.05, seed=11)

    rng = make_rng(11)
    phi = rng.uniform(0, np.pi, 5)
    for k in range(4):
        d = drift(p, sine(), bank, phi, 0.7, 0.5)
        phi = phi + d * 0.05 + 0.4 * np.sqrt(0.05) * rng.standard_normal(5)
        assert np.array_equal(traj.phi[k + 1], phi)


@pytest.mark.parametrize("coupling", [sine(), smoothed_square(4.0)],
                         ids=["sine", "smoothed_square"])
def test_euler_error_halves_with_dt_against_reference_solver(coupling):
    """Noiseless constant-control runs at dt, dt/2 and dt/4 against DOP853
    at rtol 1e-10: each halving of dt halves the final-phase error, the
    first order of Euler's method."""
    g = random_graph(6, 60, "pm_one", seed=3)
    q = maxcut_to_ising(g)
    p = IsingProblem(n=6, i=q.i, j=q.j, jval=q.jval, h=make_rng(3).normal(size=6))
    bank = OscillatorBank.gaussian_spread(6, 0.05, make_rng(4))
    K, Ks = 0.8, 0.6
    errors = []
    for dt in (0.02, 0.01, 0.005):
        traj = simulate(p, coupling, bank, constant_schedule(1.0, K, Ks, 0.0),
                        dt=dt, seed=7, record_every=1000)
        ref = solve_ivp(lambda t, y: drift(p, coupling, bank, y, K, Ks),
                        (0.0, 1.0), traj.phi[0], method="DOP853",
                        rtol=1e-10, atol=1e-12)
        assert ref.success and traj.t[-1] == 1.0
        errors.append(np.abs(traj.phi[-1] - ref.y[:, -1]).max())
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert ((1.7 <= ratios) & (ratios <= 2.3)).all(), (errors, ratios)


class PathStream:
    """A stream exposing only standard_normal(out=), as _integrate uses
    it: step k gets the next row of normals, the fine path's normals summed
    over the step and divided by the square root of their count, so every
    dt samples one Brownian path."""

    def __init__(self, rows):
        self.rows, self.k = rows, 0

    def standard_normal(self, out):
        out[...] = self.rows[self.k]
        self.k += 1


def noisy_finals(p, coupling, phi0, fine, dt, times_sqrt_dt=False):
    """Finals of T = 1 at constant K = 1, Ks = Kn = 0.5 on the fine normals'
    (B, 4096, n) path, each coarse normal the scaled sum of its fine ones.
    times_sqrt_dt scales the normals by sqrt(dt), which turns the
    integrator's noise Kn sqrt(dt) into Kn dt."""
    B, steps, n = fine.shape
    m = round(dt * steps)
    rows = fine.reshape(B, steps // m, m, n).sum(axis=2) / np.sqrt(m)
    rows *= np.sqrt(dt) if times_sqrt_dt else 1.0
    return _integrate(p, coupling, np.ones(n), 1.0, constant_schedule(1.0, 1.0, 0.5, 0.5),
                      dt, steps // m, phi0.copy(), [PathStream(r) for r in rows])


def strong_order(p, coupling, phi0, fine, error, times_sqrt_dt=False):
    """Slope of log error(final - reference) against log dt over dt = 1/16
    to 1/256, against the dt = 1/4096 reference on the same path."""
    ref = noisy_finals(p, coupling, phi0, fine, 1 / 4096, times_sqrt_dt)
    dts = [1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256]
    errs = [error(noisy_finals(p, coupling, phi0, fine, dt, times_sqrt_dt) - ref)
            for dt in dts]
    return np.polyfit(np.log(dts), np.log(errs), 1)[0]


def test_noisy_euler_has_strong_order_one_on_a_shared_brownian_path():
    """Euler-Maruyama with additive noise converges with strong order 1:
    on a 12-node +-1 graph, 32 trials, the RMS error's slope is in
    [0.8, 1.2] for sine.  For the smoothed square a trial that switches
    basin dominates the RMS, so its slope uses the median over trials of
    each trial's RMS error; over seeds 0-3 of this set-up the median slopes
    spread over 0.98-1.04 and the RMS ones over 0.33-1.25.  A noise scale
    of Kn dt in place of Kn sqrt(dt) gives slopes near 0.5-0.7 for both
    and fails."""
    p = maxcut_to_ising(random_graph(12, 40, "pm_one", seed=5))
    rng = make_rng(0)
    phi0 = rng.uniform(0.0, np.pi, size=(32, p.n))
    fine = rng.standard_normal((32, 4096, p.n))
    rms = lambda e: np.sqrt((e ** 2).mean())
    median = lambda e: np.median(np.sqrt((e ** 2).mean(axis=1)))
    for coupling, error in ((sine(), rms), (smoothed_square(), median)):
        assert 0.8 <= strong_order(p, coupling, phi0, fine, error) <= 1.2
        assert strong_order(p, coupling, phi0, fine, error, times_sqrt_dt=True) < 0.8


def test_simulate_raises_on_nonfinite_phase():
    """omega = 1e308 with no coupling or noise: phase 1 overflows to inf at
    the fourth step (t = 2), whatever form the coupling kernel takes.  The
    run goes on to the end; the error names the first non-finite record."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank(np.array([1.0, 1e308]))
    with pytest.raises(IntegrationError, match=r"non-finite phase at index 1 \(t=2\)"):
        simulate(p, sine(), bank, constant_schedule(20.0, 0.0, 0.0, 0.0),
                 dt=0.5, seed=0)


def test_bank_rejects_bad_frequencies():
    for omega in ([1.0, 0.0], [1.0, -1.0], [1.0, np.nan], [[1.0, 1.0]]):
        with pytest.raises(ValueError):
            OscillatorBank(np.array(omega))


def test_nonfinite_row_stays_nonfinite_and_leaves_others_alone():
    """The integrator checks nothing while stepping: a row that starts at an
    infinite phase ends non-finite, and every other row is bit-equal to its
    run alone, because rows never mix."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    sched = constant_schedule(20.0, 1.0, 0.0, 0.0)   # Kn = 0
    one = np.ones(2)

    def run(rows):
        phi = np.array(rows, dtype=np.float64)
        rngs = [make_rng(k) for k in range(len(rows))]
        return _integrate(p, sine(), one, 1.0, sched, 0.5, 40, phi, rngs)

    both = run([[0.0, 0.0], [0.0, np.inf]])
    assert np.array_equal(both[0], run([[0.0, 0.0]])[0])
    assert np.isfinite(both[0]).all()
    assert not np.isfinite(both[1]).all()


def test_integrate_steps_a_copy_and_records_snapshots():
    """The integrator steps the workspace's node-major copy of the phases in
    place and writes the finals back into the (B, n) phases it was given;
    each record is a snapshot, not a view of the state or of the finals."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    phi0 = np.array([[0.3, 2.0]])
    kept = phi0.copy()
    records, sink = recorder(10, 5, 1, 2)
    final = _integrate(p, sine(), np.ones(2), 1.0, constant_schedule(1.0, 1.0, 0.5, 0.2),
                       0.1, 10, phi0, [make_rng(0)], every=5, sink=sink)
    assert final is phi0
    assert records.shape == (3, 1, 2)
    assert np.array_equal(records[0], kept)
    assert np.array_equal(records[-1], final)
    assert not np.array_equal(records[1], final)
    assert not np.shares_memory(records, final)


def blocked_problem():
    """A 30-node problem with self terms, m well above a block's width."""
    g = uniform_random_graph(30, 40, seed=3)
    h = np.linspace(-0.5, 0.5, 30)
    return IsingProblem(n=30, i=g.i, j=g.j, jval=-g.w, h=h)


def n_tiles(p, coupling=None):
    """Edge tiles of a smoothed-square workspace for p."""
    ops = _Operands(p, coupling or smoothed_square(), None, 1.0, 2)
    return len(ops.tiles)


def block_width(n, batch):
    """Trials per block of a workspace for n nodes and batch trials."""
    return _Operands(empty_problem(n), sine(), None, 1.0, batch).width


def three_blocks(monkeypatch, n):
    """Set STEP_BLOCK_BYTES so that 65 trials of n nodes step in three
    uneven blocks (22, 22, 21)."""
    monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 8 * n * 32)
    assert block_width(n, 65) == 22


# EDGE_TILE = 1 cuts the 30-node problems into tiles of n = 30 edges, the
# narrowest the workspace makes: several tiles and a remainder tile
TILE_SIZES = (EDGE_TILE, 1)


def test_smoothed_square_blocks_match_single_rows(monkeypatch):
    """B = 65 is three trial blocks (22, 22, 21), each in one or in six edge
    tiles: every row of the batch is bit-equal to its run alone, drift on
    one row is bit-equal to that row of the batched drift, and the runs at
    both tile sizes are bit-equal."""
    p = blocked_problem()
    three_blocks(monkeypatch, p.n)
    B = 65
    rng = make_rng(4)
    omega = 1.0 + 0.01 * rng.standard_normal(p.n)
    phi0 = rng.uniform(0.0, np.pi, size=(B, p.n))
    sched = constant_schedule(1.0, 0.8, 0.4, 0.3)
    bank = OscillatorBank(omega)

    def run(rows):
        rngs = [make_rng(100 + b) for b in rows]
        return _integrate(p, smoothed_square(), omega, 1.0, sched, 0.05, 8,
                          phi0[rows], rngs)     # phi0[rows] is a copy

    finals = []
    for edge_tile, tiles in zip(TILE_SIZES, (1, 6)):
        monkeypatch.setattr(dynamics, "EDGE_TILE", edge_tile)
        assert n_tiles(p) == tiles
        whole = run(list(range(B)))
        assert all(np.array_equal(whole[b], run([b])[0]) for b in range(B))
        d = drift(p, smoothed_square(), bank, whole, 0.8, 0.4)
        assert all(np.array_equal(drift(p, smoothed_square(), bank, row, 0.8, 0.4), drow)
                   for row, drow in zip(whole, d))
        finals.append(whole)
    assert np.array_equal(*finals)


@pytest.mark.parametrize("shape", [(3,), (4, 3)])
def test_edgeless_smoothed_square_drift(shape):
    """No edges: the coupling sum is zero and only the self and SHIL terms
    act, for one phase vector and a batch alike."""
    p = IsingProblem.from_couplings(3, {}, h=np.array([0.5, 0.0, -1.0]))
    cpl = smoothed_square()
    phi = make_rng(2).uniform(-3.0, 3.0, size=shape)
    d = drift(p, cpl, OscillatorBank.uniform(3), phi, 0.7, 0.3)
    ref = -0.7 * p.h * cpl.g(phi) - 0.3 * cpl.g(2.0 * phi)
    assert d == pytest.approx(ref, abs=1e-14)
    rows = np.atleast_2d(phi)
    final = _integrate(p, cpl, np.ones(3), 1.0, constant_schedule(1.0, 0.7, 0.3, 0.1),
                       0.1, 10, rows, [make_rng(b) for b in range(len(rows))])
    assert np.isfinite(final).all()


@pytest.mark.parametrize("kind", ["sine", "smoothed_square"])
def test_coupling_sum_rejects_a_block_other_than_its_own(kind):
    """The products are bound to ops.sc, so another block is an error, not
    a silent sum of ops.sc."""
    p = blocked_problem()
    coupling = sine() if kind == "sine" else smoothed_square()
    ops = _Operands(p, coupling, None, 1.0, 2)
    with pytest.raises(ValueError, match="ops.sc"):
        _coupling_sum(ops, coupling, ops.sc.copy())


def sum_twice(coupling, p):
    """Two coupling sums of p over one workspace on a 65-row batch, one
    block, which must agree, the second returned in ops.d; returns the
    second's tracemalloc peak and the (B, n) phases."""
    phi = make_rng(5).uniform(-3.0, 3.0, size=(65, p.n))
    ops = _Operands(p, coupling, None, 1.0, len(phi))
    _sin_cos(phi.T, ops.s, ops.c, ops.tmp)
    first = _coupling_sum(ops, coupling, ops.sc).copy()
    tracemalloc.start()
    try:
        again = _coupling_sum(ops, coupling, ops.sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ops.width == len(phi)
    assert np.array_equal(first, again)
    assert again is ops.d
    return peak, phi


def test_smoothed_square_sum_allocates_nothing_per_step(monkeypatch):
    """Once the workspace exists, a smoothed-square coupling sum allocates
    no edge or node array, and the sparse products write into it, in one
    edge tile or in several.  The gathers read the workspace's writable
    index copies: np.take copies a read-only index array on every call,
    which on the complete 30-node problem (m = 435) peaked at 4,168 B."""
    g = random_graph(30, 100, "unit", seed=0)
    complete = IsingProblem(n=30, i=g.i, j=g.j, jval=-g.w, h=blocked_problem().h)
    assert complete.m == 435
    for edge_tile, tiles in zip(TILE_SIZES, (1, 15)):
        monkeypatch.setattr(dynamics, "EDGE_TILE", edge_tile)
        assert n_tiles(complete) == tiles
        for p in (blocked_problem(), complete):
            peak, phi = sum_twice(smoothed_square(), p)
            assert peak <= 4096 < phi.nbytes


def test_tiled_smoothed_square_sum_is_the_untiled_product(monkeypatch):
    """The complete 80-node graph (m = 3,160) is four edge tiles at the
    default size, the last a remainder, and 40 tiles of n = 80 edges in a
    workspace of 22 trials.  In each of three trial blocks, the last
    narrower, the tiled sum is bit-equal to the block's columns of the
    whole incidence times f(s_i c_j - c_i s_j), all node-major (n, B)."""
    g = uniform_random_graph(80, 100, seed=6)
    p = IsingProblem(n=80, i=g.i, j=g.j, jval=g.w.copy(), h=np.zeros(80))
    cpl = smoothed_square(6.0)
    assert p.m == 3160 and n_tiles(p, cpl) == 4
    three_blocks(monkeypatch, p.n)
    phi = make_rng(9).uniform(-3.0, 3.0, size=(65, p.n))
    s, c, t = np.empty((3, p.n, len(phi)))
    _sin_cos(phi.T, s, c, t)
    x = s[p.i] * c[p.j] - c[p.i] * s[p.j]
    ref = scipy_csr(p.incidence) @ cpl.g_of_sin(x)
    ops = _Operands(p, cpl, None, 1.0, len(phi))
    assert len(ops.tiles) == 40
    blocks = []
    for lo in range(0, len(phi), ops.width):
        hi = ops.load(phi, lo)
        _sin_cos(ops.phi, ops.s, ops.c, ops.tmp)
        assert np.array_equal(_coupling_sum(ops, cpl, ops.sc), ref[:, lo:hi])
        blocks.append(hi - lo)
    assert blocks == [22, 22, 21]


def test_sine_sum_allocates_nothing_per_step():
    """Once the workspace exists, a sine coupling sum allocates no node
    array: diag(J, J) [s | c] is written into it and combined in place."""
    peak, phi = sum_twice(sine(), blocked_problem())
    assert peak <= 4096 < phi.nbytes


def test_integer_weighted_sine_sum_allocates_nothing_per_step():
    """Integer weights are stored as float64, so the sparse product does not
    convert a copy of J's 2m entries on every call."""
    g = random_graph(30, 100, "unit", seed=0)
    p = IsingProblem(n=30, i=g.i, j=g.j, jval=(-1) ** np.arange(g.m), h=np.zeros(30))
    assert p.m >= 257
    peak, _ = sum_twice(sine(), p)
    assert peak <= 4096 < 16 * p.m


def test_uint8_weights_do_not_wrap():
    """A uint8 weight of 1 used to reach S as [1, 255], so the second
    oscillator's drift read 252.07 instead of -0.989."""
    args = (2, np.array([0]), np.array([1]))
    p = IsingProblem(*args, jval=np.array([1], dtype=np.uint8), h=np.zeros(2))
    ref = IsingProblem(*args, jval=np.array([1.0]), h=np.zeros(2))
    assert p.incidence.data.tolist() == [1.0, -1.0]
    phi = np.array([0.3, 1.0])
    d = drift(p, smoothed_square(), OscillatorBank.uniform(2), phi, 1.0, 0.0)
    assert np.array_equal(d, drift(ref, smoothed_square(), OscillatorBank.uniform(2),
                                   phi, 1.0, 0.0))
    assert d == pytest.approx([0.989, -0.989], abs=5e-4)


def test_direct_product_needs_contiguous_operands():
    """The kernel writes through y's ravel, which a strided y would copy."""
    p = blocked_problem()
    x, y = np.zeros((2, p.n, 4))
    for a, b in ((x[:, ::2], y[:, :2]), (x[:, :2], y[:, ::2])):
        with pytest.raises(ValueError, match="C-contiguous"):
            _product_args(p.adjacency, a, b)


def test_recording_every_step_holds_the_sparser_records():
    """Samples are written in place: every 5th row of an every=1 run, plus
    its last, is bit-equal to an every=5 run, and both end on
    the same final phases."""
    p = blocked_problem()
    phi0 = make_rng(6).uniform(0.0, np.pi, size=(3, p.n))

    def run(every):
        records, sink = recorder(23, every, 3, p.n)
        final = _integrate(p, smoothed_square(), np.ones(p.n), 1.0,
                           constant_schedule(2.0, 0.8, 0.4, 0.3), 0.05, 23,
                           phi0.copy(), [make_rng(b) for b in range(3)],
                           every=every, sink=sink)
        return final, records

    final1, dense = run(1)
    final5, sparse = run(5)
    assert np.array_equal(np.concatenate([dense[::5], dense[-1:]]), sparse)
    assert np.array_equal(final1, final5)
    assert not np.shares_memory(final1, dense)


def reference_integrate(p, coupling, omega, sched, dt, n_steps, phi, rngs, every):
    """_integrate's Euler-Maruyama steps written plainly, trial-major (B, n),
    with scipy's `@` for the sparse products and the kernel's rounding order."""
    k_arr, ks_arr, kn_arr = sched.eval_arrays(np.arange(n_steps) * dt)
    noise = kn_arr * np.sqrt(dt)
    s, c, t = np.empty((3,) + phi.shape)
    B = len(phi)
    records = [phi]
    for k in range(n_steps):
        _sin_cos(phi, s, c, t)
        if coupling.kind == "sine":
            jsc = scipy_csr(p.adjacency) @ np.concatenate([s.T, c.T], axis=1)    # (n, 2B)
            total = s * jsc[:, B:].T - c * jsc[:, :B].T
        else:
            x = s[:, p.i] * c[:, p.j] - c[:, p.i] * s[:, p.j]
            total = (scipy_csr(p.incidence) @ coupling.g_of_sin(x).T).T
        d = total * -k_arr[k]
        if p.has_self_terms:
            d = d - coupling.g_of_sin(s) * p.h * k_arr[k]
        d = d - coupling.g_of_sin(s * c * 2.0) * ks_arr[k]
        d = d * omega + (omega - 1.0)
        zeta = np.stack([rng.standard_normal(p.n) for rng in rngs])
        phi = phi + d * dt + zeta * noise[k]
        if (k + 1) % every == 0 or k + 1 == n_steps:
            records.append(phi)
    return phi, np.stack(records)


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()], ids=["sine", "sqsmooth"])
@pytest.mark.parametrize("self_terms", [True, False])
@pytest.mark.parametrize("per_trial", [False, True])
def test_integrate_is_the_plain_trial_major_loop(monkeypatch, coupling, self_terms,
                                                 per_trial):
    """The node-major integrator, over three trial blocks (22, 22, 21), is
    bit-equal to the plain loop, finals and records, with shared or
    per-trial omega, spread or uniform (whose omega pass the kernel skips),
    on a schedule whose K and Kn ramp and whose Ks is 0 (skipped) for the
    first 3 steps."""
    p = blocked_problem()
    if not self_terms:
        p = IsingProblem(n=p.n, i=p.i, j=p.j, jval=p.jval, h=np.zeros(p.n))
    assert p.has_self_terms == self_terms
    three_blocks(monkeypatch, p.n)
    B = 65
    rng = make_rng(8)
    shape = (B, p.n) if per_trial else p.n
    spread = 1.0 + 0.02 * rng.standard_normal(shape)
    phi0 = rng.uniform(0.0, np.pi, size=(B, p.n))
    sched = Schedule(1.0, [(0.0, 0.8), (1.0, 0.6)], [(0.0, 0.0), (0.1, 0.0), (1.0, 0.4)],
                     [(0.0, 0.1), (1.0, 0.5)])
    for omega in (spread, np.ones(shape)):
        args = (p, coupling, omega, sched, 0.05, 7, phi0)
        records, sink = recorder(7, 3, B, p.n)
        final = _integrate(*args[:3], 1.0, *args[3:-1], phi0.copy(),
                           [make_rng(b) for b in range(B)], every=3, sink=sink)
        ref_final, ref_records = reference_integrate(
            *args, [make_rng(b) for b in range(B)], every=3)
        assert np.array_equal(final, ref_final)
        assert np.array_equal(records, ref_records)


def test_unit_frequencies_skip_only_a_zero_shift():
    """omega None skips the omega pass, which for omega = w* = 1 only turns
    -0.0 into +0.0; a given omega takes it: with omega = 1 and w* = 0.5 the
    drift gains wdelta = 0.5."""
    p = blocked_problem()
    phi = make_rng(4).uniform(-3.0, 3.0, size=(3, p.n))
    ones = np.ones(p.n)

    def drift_at(omega, w_star):
        ops = _Operands(p, sine(), omega, w_star, len(phi))
        ops.load(phi, 0)
        return _step_drift(ops, ops.phi, -0.7, 0.3).copy()

    assert np.array_equal(drift_at(None, 1.0), drift_at(ones, 1.0))
    assert np.array_equal(drift_at(ones, 0.5), drift_at(ones, 1.0) + 0.5)


class CountingRng:
    """A Generator whose standard_normal calls are counted, each checked to
    draw its twin stream's next standard_normal(n)."""

    def __init__(self, seed, n):
        self.gen, self.twin, self.n, self.calls = make_rng(seed), make_rng(seed), n, 0

    def standard_normal(self, *args, **kwargs):
        self.calls += 1
        out = self.gen.standard_normal(*args, **kwargs)
        assert np.array_equal(out, self.twin.standard_normal(self.n))
        return out


def test_each_stream_draws_one_standard_normal_per_step(monkeypatch):
    """In one block of 5 trials, in blocks (2, 2, 1) and in blocks of one,
    each trial calls standard_normal once per step, each call drawing its
    stream's next standard_normal(n), and its stream ends where those draws
    leave it: the next random() matches the twin's."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    phi0 = make_rng(9).uniform(0.0, np.pi, size=(5, 2))
    for width in (5, 2, 1):
        monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 8 * p.n * width)
        assert block_width(p.n, len(phi0)) == width
        rngs = [CountingRng(b, p.n) for b in range(len(phi0))]
        _integrate(p, sine(), np.ones(2), 1.0, constant_schedule(1.0, 0.5, 0.5, 1.0),
                   0.1, 7, phi0.copy(), rngs)
        for rng in rngs:
            assert rng.calls == 7
            assert rng.gen.random() == rng.twin.random()


def block_case(name):
    """(problem, coupling, sigma) of a blocked-run case: sine on a 40-node
    graph, the smoothed square with self terms on the US map, or per-trial
    omega (variability) with the smoothed square on the graph."""
    if name == "us_map":
        return coloring_to_ising(us_states_instance(4)), smoothed_square(), 0.0
    p = maxcut_to_ising(random_graph(40, 20, "pm_one", seed=5))
    if name == "sine":
        return p, sine(), 0.0
    return p, smoothed_square(), 0.05


@pytest.mark.parametrize("case", ["sine", "us_map", "variability"])
def test_blocked_runs_are_bit_equal(monkeypatch, case):
    """13 trials stepped in blocks of one, in three uneven blocks (5, 5, 3)
    and in one whole block, each on 1, 2 and 4 usable CPUs (so on up to 4
    threads), give bit-equal finals and records."""
    p, coupling, sigma = block_case(case)
    assert p.has_self_terms == (case == "us_map")
    B = 13
    sched = Schedule(1.0, [(0.0, 0.8), (1.0, 0.6)], [(0.0, 0.0), (0.1, 0.0), (1.0, 0.4)],
                     [(0.0, 0.1), (1.0, 0.5)])
    runs = []
    for cpus in (1, 2, 4):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        for blocks, width in ((B, 1), (3, 5), (1, B)):
            monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", -(-8 * p.n * B // blocks))
            assert block_width(p.n, B) == width
            records, sink = recorder(9, 4, B, p.n)
            final = _run(p, coupling, sched, 0.05, 9, list(range(100, 100 + B)),
                         sigma=sigma, every=4, sink=sink)
            runs.append((final, records))
    for final, records in runs[1:]:
        assert np.array_equal(final, runs[0][0])
        assert np.array_equal(records, runs[0][1])


def traced_peak(run):
    """tracemalloc's peak while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_step_allocates_only_the_transposed_noise_add(monkeypatch):
    """The module docstring's allocation statement, on the US map (self
    terms) with per-trial omega, 64 trials in blocks (22, 22, 20): within a
    block, the drift allocates no array (h, omega and wdelta are held as
    (n, w) blocks, so no operand is broadcast), and the rest of a step, the
    noise draws and the Euler update, peaks at the buffer numpy's iterator
    takes for the transposed noise, measured here on a bare add of the same
    shapes (8 min(n w, 8192) bytes on numpy 2.4), plus 2 kB for 0-d views
    and scalars.  The blocks step on one thread, since tracemalloc's
    counters are process-wide and would mix the steps of two threads."""
    p = coloring_to_ising(us_states_instance(4))
    B, steps = 64, 6
    monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 8 * p.n * 24)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 1)
    width = block_width(p.n, B)
    assert width == 22
    rng = make_rng(3)
    omega = 1.0 + 0.01 * rng.standard_normal((B, p.n))
    phi0 = rng.uniform(0.0, np.pi, size=(B, p.n))
    sched = constant_schedule(1.0, 0.7, 0.3, 0.2)
    state, zeta = np.zeros((p.n, width)), np.zeros((width, p.n))
    buffer = traced_peak(lambda: np.add(state, zeta.T, state))
    _integrate(p, smoothed_square(), omega, 1.0, sched, 0.01, 2, phi0.copy(),
               [make_rng(b) for b in range(B)])       # warms numpy's caches
    rngs = [make_rng(b) for b in range(B)]
    marks = []      # per drift: memory at entry, peak since the last drift, drift's peak
    real = dynamics._step_drift

    def step_drift(*args):
        entry, since = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        d = real(*args)
        marks.append((entry, since, tracemalloc.get_traced_memory()[1] - entry))
        tracemalloc.reset_peak()
        return d

    monkeypatch.setattr(dynamics, "_step_drift", step_drift)
    traced_peak(lambda: _integrate(p, smoothed_square(), omega, 1.0, sched, 0.01,
                                   steps, phi0, rngs))
    assert len(marks) == 3 * steps
    for block in range(3):
        own = marks[block * steps:(block + 1) * steps]
        assert max(m[2] for m in own) <= 1024
        for (entry, _, _), (_, since, _) in zip(own, own[1:]):
            assert since - entry <= buffer + 2048


def test_workspace_scales_with_the_block_not_the_batch(monkeypatch):
    """At a fixed block width of 4, on 2 usable CPUs, a record-free run of
    64 trials peaks within 2 kB of a run of 8: both step on two threads,
    each with an (n, 4) workspace and noise buffer, whatever B."""
    p = blocked_problem()
    monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 8 * p.n * 4)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    sched = constant_schedule(1.0, 0.8, 0.4, 0.3)

    def peak(B):
        assert block_width(p.n, B) == 4
        phi0 = make_rng(2).uniform(0.0, np.pi, size=(B, p.n))
        omega = 1.0 + 0.01 * make_rng(3).standard_normal((B, p.n))
        rngs = [make_rng(b) for b in range(B)]
        return traced_peak(lambda: _integrate(p, smoothed_square(), omega, 1.0, sched,
                                              0.05, 5, phi0, rngs))

    small, large = peak(8), peak(64)
    assert large - small <= 2048 < 8 * p.n * (64 - 8)


def test_schedule_memory_does_not_grow_with_the_steps(monkeypatch):
    """The controls are evaluated per chunk of steps: with chunks of 16, a
    record-free run of 5,000 steps peaks within 64 B per chunk plus 2 kB of
    a run of 200, where evaluating the schedule up front held about 56 B
    per step, 270 kB more.  The 64 B per chunk are the 3-tuples
    np.interp's dispatch leaves on CPython's tuple free list, which
    tracemalloc counts as live."""
    monkeypatch.setattr(dynamics, "STEP_CHUNK", 16)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    sched = Schedule(1.0, [(0.0, 0.2), (1.0, 0.6)], [(0.0, 0.0), (1.0, 0.4)],
                     [(0.0, 0.5), (1.0, 0.1)])

    def peak(steps):
        phi0 = np.array([[0.3, 2.0]])
        rngs = [make_rng(0)]
        return traced_peak(lambda: _integrate(p, sine(), np.ones(2), 1.0, sched,
                                              1.0 / steps, steps, phi0, rngs))

    peak(200)                       # warms numpy's and CPython's caches
    small = peak(200)
    assert peak(5_000) - small <= 64 * (5_000 // 16) + 2048


def test_sample_chunks_leave_records_and_finals_alone(monkeypatch):
    """Samples reach the sink in chunks no longer than the buffer.  Over
    three trial blocks, every 3rd of 40 steps, the records and finals of
    one whole chunk per block (14 rows) are bit-equal to those of buffers
    cut by STEP_CHUNK to 2 rows or to 1, the state itself, and by the
    default SAMPLE_BYTES to 3 rows or by 8 B to 1; the finals are those
    of a run without a sink."""
    p = blocked_problem()
    three_blocks(monkeypatch, p.n)
    B = 65
    phi0 = make_rng(3).uniform(0.0, np.pi, size=(B, p.n))
    sched = constant_schedule(2.0, 0.8, 0.4, 0.3)

    def run(chunk, nbytes, sampled=True):
        monkeypatch.setattr(dynamics, "STEP_CHUNK", chunk)
        monkeypatch.setattr(dynamics, "SAMPLE_BYTES", nbytes)
        records, sink = recorder(40, 3, B, p.n)
        sizes = []

        def sizing(steps, *args):
            sizes.append(len(steps))
            sink(steps, *args)

        final = _integrate(p, smoothed_square(), np.ones(p.n), 1.0, sched, 0.05, 40,
                           phi0.copy(), [make_rng(b) for b in range(B)], every=3,
                           sink=sizing if sampled else None)
        return final, records, max(sizes, default=0)

    chunk, nbytes = dynamics.STEP_CHUNK, dynamics.SAMPLE_BYTES
    final, records, rows = run(chunk, 1 << 30)
    assert rows == 14
    assert np.array_equal(final, run(chunk, nbytes, sampled=False)[0])
    for args, rows in (((8, 1 << 30), 2), ((4, 1 << 30), 1), ((chunk, nbytes), 3),
                       ((chunk, 8), 1)):
        again, again_records, longest = run(*args)
        assert longest == rows
        assert np.array_equal(again, final) and np.array_equal(again_records, records)


def test_sink_sees_only_checked_chunks(monkeypatch):
    """With chunks of two samples, phase 1 overflows at step 4 (t = 2): the
    sink has seen steps 0 to 2, all finite, and the error names index 1 and
    t = 2, as a run in one chunk does."""
    monkeypatch.setattr(dynamics, "STEP_CHUNK", 2)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    seen = []

    def sink(steps, rows, lo, hi):
        assert np.isfinite(rows).all()
        seen.extend(steps.tolist())

    with pytest.raises(IntegrationError, match=r"non-finite phase at index 1 \(t=2\)"):
        _integrate(p, sine(), np.array([1.0, 1e308]), 1.0, constant_schedule(20.0, 0.0, 0.0, 0.0),
                   0.5, 40, np.zeros((1, 2)), [make_rng(0)], sink=sink)
    assert seen == [0, 1, 2]


def one_trial_blocks(monkeypatch, cpus):
    """Blocks of one trial of the two-spin problem, on `cpus` usable CPUs."""
    monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 16)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)


def test_threaded_nonfinite_row_is_the_serial_one(monkeypatch):
    """Three one-trial blocks, the second starting at an infinite phase, on
    three threads: no warning escapes a thread (numpy's error state is per
    thread, and a RuntimeWarning fails the tests), and the finals are
    bit-equal to the serial run's, non-finite row and all."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    sched = constant_schedule(20.0, 1.0, 0.0, 0.0)   # Kn = 0

    def run(cpus):
        one_trial_blocks(monkeypatch, cpus)
        phi = np.array([[0.0, 0.0], [0.0, np.inf], [0.3, 1.0]])
        return _integrate(p, sine(), np.ones(2), 1.0, sched, 0.5, 40, phi,
                          [make_rng(k) for k in range(3)])

    serial = run(1)
    assert np.isfinite(serial[[0, 2]]).all() and not np.isfinite(serial[1]).all()
    assert same_bits(run(3), serial)


class MeetingRng:
    """A stream whose first draw waits at a barrier, so the threads of the
    blocks that share it run at once."""

    def __init__(self, seed, barrier):
        self.gen, self.barrier = make_rng(seed), barrier

    def standard_normal(self, out):
        if self.barrier is not None:
            self.barrier.wait(5.0)
            self.barrier = None
        return self.gen.standard_normal(out=out)


def test_threaded_sink_sees_only_checked_chunks(monkeypatch):
    """Three one-trial blocks on three threads, with chunks of two samples:
    the second block's phase 1 overflows at t = 180 and the third's phase 0
    at t = 2, sooner, the two blocks stepping at once (MeetingRng).  The
    error is the second block's, as in a serial run, which never starts the
    third; the sink sees only finite rows, and the first two blocks'
    samples are the serial run's."""
    monkeypatch.setattr(dynamics, "STEP_CHUNK", 2)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    omega = np.array([[1.0, 1.0], [1.0, 1e306], [1e308, 1.0]])

    def run(cpus):
        one_trial_blocks(monkeypatch, cpus)
        seen = {0: [], 1: [], 2: []}
        rngs = [make_rng(k) for k in range(3)]
        if cpus > 1:
            barrier = threading.Barrier(2)
            rngs[1:] = [MeetingRng(k, barrier) for k in (1, 2)]

        def sink(steps, rows, lo, hi):
            assert np.isfinite(rows).all()
            seen[lo].extend(steps.tolist())

        with pytest.raises(IntegrationError) as err:
            _integrate(p, sine(), omega, 1.0, constant_schedule(200.0, 0.0, 0.0, 0.0),
                       0.5, 400, np.zeros((3, 2)), rngs, sink=sink)
        return str(err.value), seen

    message, seen = run(1)
    assert message == "non-finite phase at index 1 (t=180)"
    assert seen[0] == list(range(401)) and seen[2] == []
    threaded, threaded_seen = run(3)
    assert threaded == message
    assert [threaded_seen[0], threaded_seen[1]] == [seen[0], seen[1]]


def test_threads_call_the_sink_one_at_a_time(monkeypatch):
    """Two one-trial blocks on two threads: the first sink call waits up
    to 0.2 s for a second one to begin, which the lock holds back until
    the first returns."""
    one_trial_blocks(monkeypatch, 2)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    inside, depths, second = [], [], threading.Event()

    def sink(steps, rows, lo, hi):
        inside.append(lo)
        depths.append(len(inside))
        if len(depths) == 1:
            second.wait(0.2)
        else:
            second.set()
        inside.remove(lo)

    _integrate(p, sine(), np.ones(2), 1.0, constant_schedule(1.0, 1.0, 0.5, 0.2), 0.1, 10,
               np.zeros((2, 2)), [make_rng(k) for k in range(2)], every=5, sink=sink)
    assert len(depths) == 4 and max(depths) == 1


def test_many_threads_step_each_block_once(monkeypatch):
    """24 one-trial blocks on 8 threads, more than the cores, switching
    every microsecond: each sample of each block reaches the sink once, a
    read-modify-write count in the sink loses no call, every thread is
    joined on return, and finals and records are the serial run's."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    B, sched = 24, constant_schedule(1.0, 1.0, 0.5, 0.2)
    phi0 = make_rng(6).uniform(0.0, np.pi, size=(B, 2))

    def run(cpus):
        one_trial_blocks(monkeypatch, cpus)
        records, record = recorder(20, 3, B, 2)
        calls = {"n": 0}

        def sink(*args):
            n = calls["n"]
            record(*args)
            calls["n"] = n + 1

        final = _integrate(p, sine(), np.ones(2), 1.0, sched, 0.05, 20, phi0.copy(),
                           [make_rng(b) for b in range(B)], every=3, sink=sink)
        assert calls["n"] == 2 * B      # step 0, then one chunk of samples
        return final, records

    serial = run(1)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run(8)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    assert not np.isnan(threaded[1]).any()
    assert np.array_equal(threaded[0], serial[0]) and np.array_equal(threaded[1], serial[1])


class InlineExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers and maps in
    this thread, so no thread starts."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


THREAD_CASES = [    # blocks, usable CPUs, threads started (None: inline), block ranges
    (1, 4, None, [(0,)]),
    (3, 1, None, [(0, 1, 2)]),
    (3, 2, 2, [(0, 1), (2,)]),          # the CPU count
    (2, 4, 2, [(0,), (1,)]),            # the block count
    (5, 4, 3, [(0, 1), (2, 3), (4,)]),  # fewer ranges than CPUs
]


@pytest.mark.parametrize("blocks, cpus, threads, ranges",
                         [pytest.param(*c, id="-".join(map(str, c[:3]))) for c in THREAD_CASES])
def test_threads_start_only_for_several_blocks_and_cpus(monkeypatch, blocks, cpus,
                                                        threads, ranges):
    """A one-block and a one-CPU run start no thread.  A run of b blocks on
    c usable CPUs starts one thread per contiguous range of ceil(b / c)
    blocks, each stepping its range in order on its own workspace, with its
    own nodes and edges buffers over the same edge tiles and constants;
    its finals are the inline run's."""
    p = blocked_problem()
    monkeypatch.setattr(dynamics, "STEP_BLOCK_BYTES", 8 * p.n * 2)
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", InlineExecutor)
    monkeypatch.setattr(InlineExecutor, "made", [])
    loads, load = [], dynamics._Operands.load

    def recording_load(ws, phi, lo):
        loads.append((ws, lo))
        return load(ws, phi, lo)

    monkeypatch.setattr(dynamics._Operands, "load", recording_load)
    B = 2 * blocks
    assert block_width(p.n, B) == 2
    phi0 = make_rng(4).uniform(0.0, np.pi, size=(B, p.n))
    omega = 1.0 + 0.01 * make_rng(5).standard_normal((B, p.n))
    sched = constant_schedule(1.0, 0.8, 0.4, 0.3)

    def run(cpus):
        monkeypatch.setattr(dynamics, "_usable_cpus", lambda: cpus)
        loads.clear()
        return _integrate(p, smoothed_square(), omega, 1.0, sched, 0.05, 5, phi0.copy(),
                          [make_rng(b) for b in range(B)])

    final = run(cpus)
    spaces = list({id(ws): ws for ws, _ in loads}.values())
    assert [(spaces.index(ws), lo // 2) for ws, lo in loads] == \
        [(a, block) for a, r in enumerate(ranges) for block in r]
    if threads is None:
        assert InlineExecutor.made == [] and len(spaces) == 1
        return
    (pool,) = InlineExecutor.made
    assert pool.max_workers == len(spaces) == threads
    for buffer in ("nodes", "edges"):
        assert len({id(getattr(ws, buffer)) for ws in spaces}) == threads
    assert all(ws.edge_tiles is spaces[0].edge_tiles and ws.rows is spaces[0].rows
               for ws in spaces)
    assert np.array_equal(final, run(1))


def test_read_spins_mapping():
    """The readout: +1 where cos(phi) >= 0 (ties at cos = 0 give +1), else -1."""
    s = _spins_batch(np.array([0.0, np.pi, np.pi / 2, 2 * np.pi, -np.pi]))
    assert s.tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]


def test_binarisation_residual_values():
    assert binarisation_residual(np.array([0.0, np.pi, 2 * np.pi])) == 0.0
    assert binarisation_residual(np.array([0.1])) == pytest.approx(0.1)
    assert binarisation_residual(np.array([np.pi / 2])) == pytest.approx(np.pi / 2)
    assert binarisation_residual(np.array([-0.2, np.pi + 0.05])) == pytest.approx(0.2)


def test_frequency_spread_bank():
    bank = OscillatorBank.gaussian_spread(1000, 0.01, make_rng(3))
    assert bank.omega.std() == pytest.approx(0.01, rel=0.15)
    assert not bank.is_uniform
    assert np.allclose(bank.detuning, (bank.omega - 1.0) / bank.omega)


def test_trajectory_csv_format(tmp_path):
    p = empty_problem(2)
    traj = simulate(p, sine(), OscillatorBank.uniform(2),
                    constant_schedule(0.3, 1.0, 2.0, 0.0), dt=0.1, seed=1)
    energy = -np.pi * (1.0 + np.arange(traj.n_samples))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, energy, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi_0,phi_1,K,Ks,Kn,E"
    assert len(lines) == 1 + traj.n_samples
    cells = lines[1].split(",")
    assert float(cells[3]) == 1.0 and float(cells[4]) == 2.0
    # phases and E round-trip exactly through the 17-significant-digit format
    assert float(cells[1]) == traj.phi[0, 0]
    assert [float(line.split(",")[-1]) for line in lines[1:]] == energy.tolist()
