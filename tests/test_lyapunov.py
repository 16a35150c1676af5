import numpy as np
import pytest

from oscising.coupling import sine, smoothed_square
from oscising.dynamics import OscillatorBank, Trajectory, drift, make_rng
from oscising.graphs import random_graph
from oscising.harness import simulate
from oscising.ising import IsingProblem, hamiltonian, maxcut_to_ising
from oscising.lyapunov import check_monotone, energy
from oscising.schedule import constant_schedule


def spread_bank(n, sigma=0.01, seed=8):
    return OscillatorBank.gaussian_spread(n, sigma, make_rng(seed))


def grad(p, coupling, bank, phi, K, Ks):
    """grad E = -(2/w) * drift, the identity the descent theory rests on."""
    return -2.0 / bank.omega * drift(p, coupling, bank, phi, K, Ks)


def random_problem(n=10, seed=3, with_h=False):
    g = random_graph(n, 40, "pm_one", seed=seed)
    p = maxcut_to_ising(g)
    if with_h:
        h = make_rng(seed + 1).normal(size=n)
        p = IsingProblem(n=n, i=p.i, j=p.j, jval=p.jval, h=h)
    return p


def test_energy_two_aligned_oscillators():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank.uniform(2)
    e = energy(p, sine(), bank, np.zeros(2), K=0.5, Ks=0.0)
    assert e.total == -1.0
    assert e.coupling_term == -1.0
    assert e.self_term == e.shil_term == e.tilt_term == 0.0


def test_energy_with_locking_term_offset():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank.uniform(2)
    e = energy(p, sine(), bank, np.zeros(2), K=0.5, Ks=1.0)
    assert e.total == -3.0          # H - n*Ks = -1 - 2


def test_uniform_bank_has_no_tilt():
    p = random_problem()
    e = energy(p, sine(), OscillatorBank.uniform(10),
               make_rng(1).uniform(0, 2 * np.pi, 10), 0.5, 1.0)
    assert e.tilt_term == 0.0


def test_total_is_ordered_sum_of_parts():
    p = random_problem(with_h=True)
    bank = spread_bank(10)
    e = energy(p, smoothed_square(), bank,
               make_rng(2).uniform(-3, 3, 10), 0.7, 0.4)
    assert e.total == e.coupling_term + e.self_term + e.shil_term + e.tilt_term


def test_grad_zero_at_binary_points_without_h():
    p = random_problem()
    bank = OscillatorBank.uniform(10)
    phi = np.pi * make_rng(4).integers(0, 2, size=10).astype(float)
    g = grad(p, sine(), bank, phi, K=0.5, Ks=0.0)
    assert np.abs(g).max() < 1e-12


def test_grad_single_oscillator_analytic():
    p = IsingProblem.from_couplings(1, {})
    g = grad(p, sine(), OscillatorBank.uniform(1),
             np.array([np.pi / 4]), K=1.0, Ks=1.0)
    assert g[0] == pytest.approx(2.0 * np.sin(np.pi / 2))


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()])
@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("with_h", [False, True])
def test_gradient_matches_finite_differences(coupling, uniform, with_h):
    """Central differences of E against -(2/w) * drift."""
    p = random_problem(with_h=with_h)
    bank = OscillatorBank.uniform(10) if uniform else spread_bank(10)
    rng = make_rng(9)
    h = 1e-5
    for K, Ks in ((0.6, 0.8), (0.8, 0.6)):
        for _ in range(5):
            phi = rng.uniform(-6, 6, 10)
            g = grad(p, coupling, bank, phi, K, Ks)
            for i in range(10):
                ei = np.eye(10)[i]
                fd = (energy(p, coupling, bank, phi + h * ei, K, Ks).total
                      - energy(p, coupling, bank, phi - h * ei, K, Ks).total) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()])
def test_gradient_is_minus_two_over_omega_drift(coupling):
    """Directional derivatives of E along random unit vectors, wide spread."""
    p = random_problem(with_h=True)
    bank = spread_bank(10, sigma=0.05)
    rng = make_rng(12)
    h = 1e-5
    for _ in range(20):
        phi = rng.uniform(-6, 6, 10)
        u = rng.standard_normal(10)
        u /= np.linalg.norm(u)
        fd = (energy(p, coupling, bank, phi + h * u, 0.9, 0.3).total
              - energy(p, coupling, bank, phi - h * u, 0.9, 0.3).total) / (2 * h)
        assert grad(p, coupling, bank, phi, 0.9, 0.3) @ u == pytest.approx(fd, abs=1e-5)


def test_binary_point_energy_equals_hamiltonian_shift():
    """At 0/pi phases with K = 1/2 the energy is H - n*Ks, exactly."""
    p = random_problem(n=8, seed=5)
    bank = OscillatorBank.uniform(8)
    rng = make_rng(13)
    for _ in range(30):
        s = 1.0 - 2.0 * rng.integers(0, 2, size=8)
        phi = np.where(s > 0, 0.0, np.pi)
        for ks in (0.0, 1.0, 3.0):
            e = energy(p, sine(), bank, phi, 0.5, ks).total
            assert e == pytest.approx(hamiltonian(p, s) - 8 * ks, abs=1e-12)


def test_locking_term_does_not_change_binary_differences():
    p = random_problem(n=8, seed=6)
    bank = OscillatorBank.uniform(8)
    rng = make_rng(14)
    s1 = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    s2 = 1.0 - 2.0 * rng.integers(0, 2, size=8)
    phi1 = np.where(s1 > 0, 0.0, np.pi)
    phi2 = np.where(s2 > 0, 0.0, np.pi)
    diffs = []
    for ks in (0.0, 1.0, 3.0):
        e1 = energy(p, sine(), bank, phi1, 0.5, ks).total
        e2 = energy(p, sine(), bank, phi2, 0.5, ks).total
        diffs.append(e1 - e2)
    assert diffs[0] == diffs[1] == diffs[2]


def test_descent_on_constant_phase_trajectory():
    p = IsingProblem.from_couplings(3, {})
    traj = simulate(p, sine(), OscillatorBank.uniform(3),
                    constant_schedule(1.0, 1.0, 0.0, 0.0), dt=0.01, seed=0,
                    record_every=10)
    rep = check_monotone(traj, sine(), p, OscillatorBank.uniform(3))
    assert rep.passed
    assert rep.max_increase <= 0.0


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()])
def test_descent_on_relaxing_network(coupling):
    g = random_graph(20, 10, "pm_one", seed=2024)
    p = maxcut_to_ising(g)
    bank = OscillatorBank.uniform(20)
    traj = simulate(p, coupling, bank, constant_schedule(20.0, 0.5, 1.0, 0.0),
                    dt=0.01, seed=7)
    rep = check_monotone(traj, coupling, p, bank)
    assert rep.passed, f"uphill step at {rep.first_violation}"


def test_descent_check_finds_planted_uphill_jump():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank.uniform(2)
    phi = np.array([[0.0, 0.1], [0.0, 1.5], [0.0, 3.0]])   # climbing apart
    traj = Trajectory(t=np.array([0.0, 1.0, 2.0]), phi=phi,
                      controls=np.tile([0.5, 0.0, 0.0], (3, 1)))
    rep = check_monotone(traj, sine(), p, bank)
    assert not rep.passed
    assert rep.first_violation == 0


def test_descent_check_rejects_noisy_or_varying_controls():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    bank = OscillatorBank.uniform(2)
    phi = np.zeros((2, 2))
    noisy = Trajectory(t=np.array([0.0, 1.0]), phi=phi,
                       controls=np.tile([0.5, 0.0, 0.1], (2, 1)))
    with pytest.raises(ValueError):
        check_monotone(noisy, sine(), p, bank)
    varying = Trajectory(t=np.array([0.0, 1.0]), phi=phi,
                         controls=np.array([[0.5, 0.0, 0.0], [0.6, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_monotone(varying, sine(), p, bank)
