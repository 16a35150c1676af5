"""The global descent function of the phase dynamics.

The normative definition: E is the potential with grad E = -(2/w) * drift,
with constants fixed so that for sine coupling and uniform frequencies

    E = -K sum_{i != j} J_ij cos(phi_i - phi_j)
        - Ks sum_i cos(2 phi_i)
        - 2K sum_i h_i cos(phi_i)
        - 2 sum_i ((w_i - 1)/w_i) phi_i,

with frequencies in units of the central frequency w* = 1.

General couplings replace cos by the pair kernel 1 - G with G the
antiderivative of g (G(0) = 0).  At binary phases (0/pi) with K = 1/2 the
sine-form E equals the Ising Hamiltonian minus n*Ks (and minus the
problem's constant offset), so descending E minimises H.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import CouplingFunction
from .dynamics import OscillatorBank, Trajectory, _check_sizes
from .ising import IsingProblem, _edge_sum, _row_sum

__all__ = ["energy_total_batch", "check_monotone", "DescentReport"]

DESCENT_REL_TOL = 1e-8      # allowed rise per record, relative to 1 + |E|


def _terms(problem: IsingProblem, coupling: CouplingFunction,
           bank: OscillatorBank, phi: np.ndarray, K, Ks):
    """E's coupling, self, SHIL and tilt terms, in that order, each of
    shape (...,) over rows of (..., n) phases; K and Ks broadcast there."""
    phi = np.asarray(phi, dtype=np.float64)
    _check_sizes(problem, bank, phi)
    zero = np.zeros(phi.shape[:-1])
    self_term = tilt_term = zero
    kern = lambda a, b: coupling.pair_kernel(np.subtract(a, b, out=a))
    coupling_term = -2.0 * K * _edge_sum(problem.i, problem.j, problem.jval, phi, kern)
    if problem.has_self_terms:
        self_term = -2.0 * K * _row_sum(coupling.pair_kernel(phi) * problem.h)
    shil_term = -Ks * _row_sum(coupling.pair_kernel(2.0 * phi))
    if not bank.is_uniform:
        tilt_term = -2.0 * _row_sum(phi * bank.detuning)
    return coupling_term, self_term, shil_term, tilt_term


def energy_total_batch(problem: IsingProblem, coupling: CouplingFunction,
                       bank: OscillatorBank, phi: np.ndarray, K, Ks) -> np.ndarray:
    """E over rows of (..., n) phases, the sum of _terms in their order:
    a float64 for (n,) phases, else shape (...,); K, Ks may be arrays (...,)."""
    return sum(_terms(problem, coupling, bank, phi, K, Ks))


@dataclass(frozen=True)
class DescentReport:
    """Energy along a trajectory with the largest per-step increase found."""

    energies: np.ndarray
    max_increase: float
    passed: bool
    first_violation: int | None


def check_monotone(trajectory: Trajectory, coupling: CouplingFunction,
                   problem: IsingProblem, bank: OscillatorBank) -> DescentReport:
    """Verify E never rises along a noiseless, constant-control trajectory.

    Each recorded increment must satisfy E_{k+1} - E_k <= DESCENT_REL_TOL*(1 + |E_k|);
    trajectories recorded with noise or time-varying controls are rejected
    because descent is not guaranteed there.
    """
    ctrl = trajectory.controls
    if np.any(ctrl[:, 2] != 0.0):
        raise ValueError("descent check needs a noiseless (Kn = 0) trajectory")
    if np.any(ctrl != ctrl[0]):
        raise ValueError("descent check needs constant controls")
    K, Ks = float(ctrl[0, 0]), float(ctrl[0, 1])
    e = energy_total_batch(problem, coupling, bank, trajectory.phi, K, Ks)
    inc = np.diff(e)
    tol = DESCENT_REL_TOL * (1.0 + np.abs(e[:-1]))
    bad = np.nonzero(inc > tol)[0]
    return DescentReport(
        energies=e,
        max_increase=float(inc.max()) if len(inc) else 0.0,
        passed=len(bad) == 0,
        first_violation=int(bad[0]) if len(bad) else None,
    )
