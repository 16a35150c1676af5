"""Phase dynamics of the coupled-oscillator network and its SDE integrator.

The drift of oscillator i is

    dphi_i/dt = (w_i - w*) + w_i * ( -K * sum_{j != i} J_ij g(phi_i - phi_j)
                                     -K * h_i * g(phi_i)
                                     -Ks * g(2 phi_i) )

with g the coupling function, which also shapes the second-harmonic locking
term.  With uniform unit frequencies and g = sin this is the sine-coupled
network with a sin(2 phi) locking term.

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
    "SimConfig",
    "Trajectory",
    "drift",
    "simulate",
    "read_spins",
    "binarisation_residual",
    "trajectory_to_csv",
]

INIT_MODES = ("uniform_0_pi", "uniform_0_2pi", "given")


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
class SimConfig:
    dt: float = 0.01
    t_end: float = 20.0
    seed: int = 0
    record_every: int = 1
    init_mode: str = "uniform_0_pi"
    phi0: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.init_mode not in INIT_MODES:
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.init_mode == "given" and self.phi0 is None:
            raise ValueError("init_mode 'given' needs phi0")

    @property
    def n_steps(self) -> int:
        return max(1, int(np.floor(self.t_end / self.dt + 1e-9)))


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
    """sum_{j != i} J_ij g(phi_i - phi_j) for each i; phi is (n,) or (B, n)."""
    if problem.m == 0:
        return np.zeros_like(phi)
    diffs = phi[..., problem.i] - phi[..., problem.j]
    ge = coupling.g(diffs)
    s = problem.incidence
    if phi.ndim == 1:
        return s @ ge
    return (s @ ge.T).T


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


def initial_phases(config: SimConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if config.init_mode == "given":
        phi0 = np.asarray(config.phi0, dtype=np.float64)
        if phi0.shape != (n,):
            raise ValueError(f"phi0 must have shape ({n},)")
        return phi0.copy()
    high = np.pi if config.init_mode == "uniform_0_pi" else 2.0 * np.pi
    return rng.uniform(0.0, high, size=n)


def _integrate(problem: IsingProblem, coupling: CouplingFunction,
               omega: np.ndarray, omega_star: float,
               schedule: Schedule, dt: float, n_steps: int,
               phi: np.ndarray, rngs: list[np.random.Generator],
               record_steps: np.ndarray | None = None,
               check_every: int = 25, fail_fast: bool = False):
    """Shared fixed-step core; phi is (B, n), one RNG stream per row.

    Returns (phi_final, records) where records is a (<=S, B, n) array of the
    requested step snapshots.  Row b consumes exactly one standard_normal(n)
    per step from rngs[b], so batched and one-at-a-time runs are bit-equal.
    Non-finite rows either raise (fail_fast) or are poisoned with NaN so the
    remaining rows keep stepping.
    """
    bsz, n = phi.shape
    t_grid = np.arange(n_steps) * dt
    k_arr, ks_arr, kn_arr = schedule.eval_arrays(t_grid)
    wdelta = omega - omega_star
    sqdt = np.sqrt(dt)
    rec = {}
    want: set[int] = set()
    if record_steps is not None:
        want = set(int(s) for s in record_steps)
        if 0 in want:
            rec[0] = phi.copy()
    zeta = np.empty_like(phi)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            d = _drift(problem, coupling, omega, wdelta, phi, k_arr[k], ks_arr[k])
            for b in range(bsz):
                zeta[b] = rngs[b].standard_normal(n)
            phi = phi + d * dt + (kn_arr[k] * sqdt) * zeta
            if k % check_every == check_every - 1:
                finite = np.isfinite(phi)
                if not finite.all():
                    if fail_fast:
                        _, i_bad = np.argwhere(~finite)[0]
                        raise IntegrationError(
                            f"non-finite phase at index {int(i_bad)} "
                            f"(t={(k + 1) * dt:g})")
                    phi = np.where(finite.all(axis=1, keepdims=True), phi, np.nan)
            if (k + 1) in want:
                rec[k + 1] = phi.copy()
    records = None
    if record_steps is not None:
        records = np.stack([rec[int(s)] for s in record_steps])
    return phi, records


def simulate(problem: IsingProblem, coupling: CouplingFunction,
             bank: OscillatorBank, schedule: Schedule, config: SimConfig) -> Trajectory:
    """Fixed-step Euler-Maruyama run under the given annealing schedule.

    Controls are evaluated at the start of each step.  Samples are recorded
    at step 0, every record_every steps, and always at the final step.
    """
    if schedule.t_end < config.t_end - 1e-12:
        raise ValueError("schedule horizon shorter than config.t_end")
    if bank.n != problem.n:
        raise ValueError("bank size does not match problem size")
    n_steps = config.n_steps
    rng = make_rng(config.seed)
    phi0 = initial_phases(config, problem.n, rng)
    steps = list(range(0, n_steps + 1, config.record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    record_steps = np.asarray(steps)
    _, records = _integrate(
        problem, coupling, bank.omega, bank.omega_star, schedule,
        config.dt, n_steps, phi0[None, :], [rng],
        record_steps=record_steps,
        check_every=1, fail_fast=True)
    ts = record_steps * config.dt
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

