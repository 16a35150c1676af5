"""Phase dynamics of the coupled-oscillator network and its SDE integrator.

The drift of oscillator i is

    dphi_i/dt = (w_i - w*) + w_i * ( -K * sum_{j != i} J_ij g(phi_i - phi_j)
                                     -K * h_i * g(phi_i)
                                     -Ks * g(2 phi_i) )

with g the coupling function, which also shapes the second-harmonic locking
term.  With uniform unit frequencies and g = sin this is the sine-coupled
network with a sin(2 phi) locking term.

Every coupling has the form g(x) = f(sin x), so the coupling sum never
takes a sine per edge.  With s = sin phi and c = cos phi evaluated once per
oscillator, sin(phi_i - phi_j) = s_i c_j - c_i s_j.  For the sine kind
(f(s) = s) the sum is linear in the products:

    sum_j J_ij sin(phi_i - phi_j) = s_i (J c)_i - c_i (J s)_i,

one sparse product of the symmetric J with [s | c].  The smoothed square
applies its f to s_i c_j - c_i s_j per edge.

Noise enters as phi' = phi + drift*dt + Kn*sqrt(dt)*N(0, 1), one i.i.d.
draw per oscillator per step, from a Philox stream keyed by the seed.
Phases are kept unwrapped; wrapping happens only in the readout helpers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import CouplingFunction
from .ising import IsingProblem, SpinConfig
from .schedule import Schedule

__all__ = [
    "IntegrationError",
    "OscillatorBank",
    "Trajectory",
    "drift",
    "simulate",
    "read_spins",
    "binarisation_residual",
    "trajectory_to_csv",
]

class IntegrationError(RuntimeError):
    """A step produced a non-finite phase."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox stream; the only RNG used by the simulator."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class OscillatorBank:
    """Natural frequencies w_i and the network's central frequency w*."""

    n: int
    omega: np.ndarray
    omega_star: float = 1.0

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=np.float64)
        if w.shape != (self.n,):
            raise ValueError(f"omega must have shape ({self.n},), got {w.shape}")
        if not (w > 0).all() or self.omega_star <= 0:
            raise ValueError("frequencies must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "omega", w)

    @classmethod
    def uniform(cls, n: int, omega_star: float = 1.0) -> "OscillatorBank":
        return cls(n=n, omega=np.full(n, omega_star), omega_star=omega_star)

    @classmethod
    def gaussian_spread(cls, n: int, rel_std: float, rng: np.random.Generator,
                        omega_star: float = 1.0) -> "OscillatorBank":
        """w_i ~ Normal(w*, rel_std * w*), the variability model."""
        w = omega_star * (1.0 + rel_std * rng.standard_normal(n))
        return cls(n=n, omega=w, omega_star=omega_star)

    @cached_property
    def detuning(self) -> np.ndarray:
        """(w_i - w*) / w_i, the coefficient of the linear energy tilt."""
        return (self.omega - self.omega_star) / self.omega

    @cached_property
    def is_uniform(self) -> bool:
        return bool(np.all(self.omega == self.omega_star))


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples: strictly increasing times, phases and controls."""

    t: np.ndarray            # (S,)
    phi: np.ndarray          # (S, n)
    controls: np.ndarray     # (S, 3) columns K, Ks, Kn
    energy: np.ndarray | None = None   # (S,) optional

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.t)


def _coupling_sum(problem: IsingProblem, coupling: CouplingFunction,
                  phi: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j) for each i; phi is (n,) or (B, n).

    With s = sin phi and c = cos phi computed once per node, and g = f(sin):
      sine             f is linear: s_i (J c)_i - c_i (J s)_i, one product of
                       the symmetric J with the node-major [s | c] block;
      smoothed_square  f(s_i c_j - c_i s_j) per edge, summed by the signed
                       incidence S.
    A sparse product sums each column in the same order at every batch
    size, so a row's sum does not depend on the rows beside it.
    """
    if problem.m == 0:
        return np.zeros_like(phi)
    n = phi.shape[-1]
    sc = np.empty((2,) + phi.shape)
    np.sin(phi, sc[0])
    np.cos(phi, sc[1])
    node_major = np.ascontiguousarray(sc.reshape(-1, n).T)     # (n, 2B)
    if coupling.kind == "sine":
        jsc = (problem.adjacency @ node_major).T.reshape(sc.shape)
        prod = sc * jsc[::-1]       # [s (J c), c (J s)]
        return prod[0] - prod[1]
    bsz = node_major.shape[1] // 2
    sn, cs = node_major[:, :bsz], node_major[:, bsz:]
    # at most three (m, B) arrays live at once
    x = np.take(sn, problem.i, axis=0)
    y = np.take(cs, problem.j, axis=0)
    x *= y
    np.take(cs, problem.i, axis=0, out=y)
    y *= np.take(sn, problem.j, axis=0)
    x -= y
    del y
    coupling.g_of_sin(x, out=x)
    return np.ascontiguousarray((problem.incidence @ x).T).reshape(phi.shape)


def _drift(problem: IsingProblem, coupling: CouplingFunction,
           omega: np.ndarray, wdelta: np.ndarray, phi: np.ndarray,
           K: float, Ks: float) -> np.ndarray:
    """Unchecked drift of (n,) or (B, n) phases; wdelta is omega - omega_star."""
    pull = -K * _coupling_sum(problem, coupling, phi)
    if problem.has_self_terms:
        pull -= K * problem.h * coupling.g(phi)
    if Ks != 0.0:
        pull -= Ks * coupling.g(2.0 * phi)
    return wdelta + omega * pull


def drift(problem: IsingProblem, coupling: CouplingFunction,
          bank: OscillatorBank, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Deterministic phase velocity; accepts (n,) or batched (B, n) phases."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] != problem.n:
        raise ValueError(f"phi has {phi.shape[-1]} phases, problem has n={problem.n}")
    if not np.isfinite(phi).all():
        raise IntegrationError("non-finite phase passed to drift")
    return _drift(problem, coupling, bank.omega, bank.omega - bank.omega_star,
                  phi, K, Ks)


def _n_steps(t_end: float, dt: float) -> int:
    """Fixed steps covering [0, t_end]: floor(t_end / dt), for 0 < dt <= t_end."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    return int(np.floor(t_end / dt + 1e-9))


def _record_grid(n_steps: int, record_every: int) -> np.ndarray:
    """The record grid: steps 0, k, 2k, ... and always the last step."""
    steps = np.arange(0, n_steps + 1, record_every)
    return steps if steps[-1] == n_steps else np.append(steps, n_steps)


def _integrate(problem: IsingProblem, coupling: CouplingFunction,
               omega: np.ndarray, omega_star: float,
               schedule: Schedule, dt: float, n_steps: int,
               phi: np.ndarray, rngs: list[np.random.Generator],
               record_every: int = 0, fail_fast: bool = False):
    """Shared fixed-step core; phi is (B, n), one RNG stream per row.

    Returns (phi_final, records).  records is None when record_every is 0,
    else the (S, B, n) snapshots at _record_grid(n_steps, record_every).
    Row b consumes exactly one standard_normal(n) per step from rngs[b], so
    batched and one-at-a-time runs are bit-equal.  Rows never mix, and NaN
    and inf propagate through every term, so a row that goes non-finite
    stays non-finite to the end while the other rows step on unchanged;
    with fail_fast the first non-finite step raises IntegrationError.
    """
    bsz, n = phi.shape
    t_grid = np.arange(n_steps) * dt
    k_arr, ks_arr, kn_arr = schedule.eval_arrays(t_grid)
    wdelta = omega - omega_star
    sqdt = np.sqrt(dt)
    records = None
    want = set()
    if record_every:
        want = set(_record_grid(n_steps, record_every).tolist())
        records = [phi.copy()]
    zeta = np.empty_like(phi)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            d = _drift(problem, coupling, omega, wdelta, phi, k_arr[k], ks_arr[k])
            for b in range(bsz):
                zeta[b] = rngs[b].standard_normal(n)
            phi = phi + d * dt + (kn_arr[k] * sqdt) * zeta
            if fail_fast and not np.isfinite(phi).all():
                _, i_bad = np.argwhere(~np.isfinite(phi))[0]
                raise IntegrationError(f"non-finite phase at index {int(i_bad)} "
                                       f"(t={(k + 1) * dt:g})")
            if (k + 1) in want:
                records.append(phi.copy())
    return phi, None if records is None else np.stack(records)


def simulate(problem: IsingProblem, coupling: CouplingFunction,
             bank: OscillatorBank, schedule: Schedule, *, dt: float, seed: int,
             record_every: int = 1) -> Trajectory:
    """Fixed-step Euler-Maruyama run over the schedule's horizon.

    Runs floor(schedule.t_end / dt) steps (dt <= t_end) from phases drawn
    uniformly on [0, pi) by the Philox stream `seed`, which then supplies
    the step noise.  Controls are evaluated at the start of each step.
    Samples are recorded at step 0, every record_every steps, and always at
    the final step.  A non-finite phase raises IntegrationError.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if bank.n != problem.n:
        raise ValueError("bank size does not match problem size")
    n_steps = _n_steps(schedule.t_end, dt)
    rng = make_rng(seed)
    phi0 = rng.uniform(0.0, np.pi, size=problem.n)
    _, records = _integrate(
        problem, coupling, bank.omega, bank.omega_star, schedule,
        dt, n_steps, phi0[None, :], [rng],
        record_every=record_every, fail_fast=True)
    ts = _record_grid(n_steps, record_every) * dt
    ctrl = np.stack(schedule.eval_arrays(np.minimum(ts, schedule.t_end)), axis=1)
    return Trajectory(t=ts.astype(np.float64), phi=records[:, 0, :], controls=ctrl)


def _spins_batch(phi: np.ndarray) -> np.ndarray:
    return np.where(np.cos(phi) >= 0.0, 1.0, -1.0)


def read_spins(phi: np.ndarray) -> SpinConfig:
    """s_i = +1 where cos(phi_i) >= 0 else -1 (ties at cos = 0 give +1)."""
    phi = np.asarray(phi, dtype=np.float64)
    if not np.isfinite(phi).all():
        raise ValueError("phases must be finite")
    return SpinConfig(_spins_batch(phi))


def binarisation_residual(phi: np.ndarray) -> float:
    """Largest angular distance of any phase from the lattice {0, pi}."""
    phi = np.asarray(phi, dtype=np.float64)
    if not np.isfinite(phi).all():
        raise ValueError("phases must be finite")
    if phi.size == 0:
        return 0.0
    frac = np.mod(phi, np.pi)
    return float(np.minimum(frac, np.pi - frac).max())


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """CSV columns: t, phi_0..phi_{n-1}, K, Ks, Kn, E (17 significant digits)."""
    n = traj.n
    header = ",".join(["t"] + [f"phi_{k}" for k in range(n)] + ["K", "Ks", "Kn", "E"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for k in range(traj.n_samples):
            cells = [traj.t[k], *traj.phi[k], *traj.controls[k]]
            row = ",".join(f"{c:.17g}" for c in cells)
            row += "," + ("" if traj.energy is None else f"{traj.energy[k]:.17g}")
            f.write(row + "\n")

