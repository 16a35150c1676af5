import numpy as np
import pytest

from oscising.coupling import sine, smoothed_square
from oscising.dynamics import (IntegrationError, OscillatorBank, _integrate,
                               binarisation_residual, drift, make_rng,
                               read_spins, simulate, trajectory_to_csv)
from oscising.graphs import random_graph
from oscising.ising import IsingProblem, maxcut_to_ising
from oscising.schedule import constant_schedule


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
    g = random_graph(8, 50, "uniform_range", seed=9)
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


def test_simulate_rejects_bad_step_and_record_settings():
    p = empty_problem(2)
    args = (p, sine(), OscillatorBank.uniform(2), constant_schedule(1.0, 0.0, 0.0, 0.0))
    for dt in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simulate(*args, dt=dt, seed=0)
    with pytest.raises(ValueError, match="t_end must be at least dt"):
        simulate(*args, dt=2.0, seed=0)
    with pytest.raises(ValueError, match="record_every"):
        simulate(*args, dt=0.1, seed=0, record_every=0)


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


def test_simulate_raises_on_nonfinite_phase():
    """omega = 1e308 with no coupling or noise: the phase overflows to inf
    within four steps, whatever form the coupling kernel takes."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank(n=2, omega=np.array([1.0, 1e308]))
    with pytest.raises(IntegrationError, match="non-finite phase"):
        simulate(p, sine(), bank, constant_schedule(20.0, 0.0, 0.0, 0.0),
                 dt=0.5, seed=0)


def test_nonfinite_row_stays_nonfinite_and_leaves_others_alone():
    """Without fail_fast a row that starts at an infinite phase ends
    non-finite, and every other row is bit-equal to its run alone: rows
    never mix."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    sched = constant_schedule(20.0, 1.0, 0.0, 0.0)   # Kn = 0
    one = np.ones(2)

    def run(rows):
        phi = np.array(rows, dtype=np.float64)
        rngs = [make_rng(k) for k in range(len(rows))]
        return _integrate(p, sine(), one, 1.0, sched, 0.5, 40, phi, rngs)[0]

    both = run([[0.0, 0.0], [0.0, np.inf]])
    assert np.array_equal(both[0], run([[0.0, 0.0]])[0])
    assert np.isfinite(both[0]).all()
    assert not np.isfinite(both[1]).all()


def test_read_spins_mapping():
    s = read_spins(np.array([0.0, np.pi, np.pi / 2, 2 * np.pi, -np.pi]))
    assert s.s.tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]


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
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,phi_0,phi_1,K,Ks,Kn,E"
    assert len(lines) == 1 + traj.n_samples
    cells = lines[1].split(",")
    assert float(cells[3]) == 1.0 and float(cells[4]) == 2.0
    # phases round-trip exactly through the 17-significant-digit format
    assert float(cells[1]) == traj.phi[0, 0]
