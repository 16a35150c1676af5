"""Phase dynamics of the coupled-oscillator network and its SDE integrator.

The drift of oscillator i is

    dphi_i/dt = (w_i - 1) + w_i * ( -K * sum_{j != i} J_ij g(phi_i - phi_j)
                                    -K * h_i * g(phi_i)
                                    -Ks * g(2 phi_i) )

with g the coupling function, which also shapes the second-harmonic locking
term.  Frequencies w_i are in units of the network's central frequency
w* = 1, and time in units of 1/w*.  With uniform unit frequencies and
g = sin this is the sine-coupled network with a sin(2 phi) locking term.

Every coupling has the form g(x) = f(sin x), so a step needs only
s = sin phi and c = cos phi, once per oscillator.  They come from one
half-angle tangent, which numpy evaluates vectorised where sin and cos are
scalar loops:

    t = tan(phi / 2),  u = 2 / (1 + t^2),  s = t u,  c = u - 1.

The same s and c then serve every term:
  coupling sum  sin(phi_i - phi_j) = s_i c_j - c_i s_j.  For the sine kind
                (f(s) = s) the sum is linear in the products,

                    sum_j J_ij sin(phi_i - phi_j) = s_i (J c)_i - c_i (J s)_i,

                one sparse product of the symmetric J with [s | c]; the
                smoothed square applies its f to s_i c_j - c_i s_j per edge;
  self term     g(phi_i) = f(s_i);
  SHIL term     g(2 phi_i) = f(2 s_i c_i).

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
    """A run produced a non-finite phase."""


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based Philox stream; the only RNG used by the simulator."""
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class OscillatorBank:
    """Natural frequencies w_i, in units of the central frequency w* = 1."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=np.float64)
        if w.ndim != 1:
            raise ValueError(f"omega must be one-dimensional, got shape {w.shape}")
        if not (w > 0).all():
            raise ValueError("frequencies must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "omega", w)

    @classmethod
    def uniform(cls, n: int) -> "OscillatorBank":
        return cls(np.ones(n))

    @classmethod
    def gaussian_spread(cls, n: int, rel_std: float,
                        rng: np.random.Generator) -> "OscillatorBank":
        """w_i ~ Normal(1, rel_std), the variability model."""
        return cls(1.0 + rel_std * rng.standard_normal(n))

    @cached_property
    def detuning(self) -> np.ndarray:
        """(w_i - 1) / w_i, the coefficient of the linear energy tilt."""
        return (self.omega - 1.0) / self.omega

    @cached_property
    def is_uniform(self) -> bool:
        return bool(np.all(self.omega == 1.0))


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples: strictly increasing times, phases and controls."""

    t: np.ndarray            # (S,)
    phi: np.ndarray          # (S, n)
    controls: np.ndarray     # (S, 3) columns K, Ks, Kn

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    @property
    def n_samples(self) -> int:
        return len(self.t)


# 0-d arrays: a Python float operand is converted on every ufunc call, which
# dominates a step on a few nodes.
_HALF, _ONE, _TWO = np.array(0.5), np.array(1.0), np.array(2.0)


def _sin_cos(phi: np.ndarray, s: np.ndarray, c: np.ndarray,
             t: np.ndarray) -> None:
    """Write s = sin phi and c = cos phi through t = tan(phi / 2).

    With u = 2 / (1 + t^2), sin phi = t u and cos phi = u - 1: one
    vectorised tan per node where sin and cos would each take a scalar
    evaluation.  |t| stays below about 1.6e16 for finite phi, so t^2 does
    not overflow; NaN and inf give NaN.  t is scratch shaped like phi.
    """
    np.multiply(phi, _HALF, out=t)
    np.tan(t, out=t)
    np.multiply(t, t, out=c)
    np.add(c, _ONE, out=c)
    np.divide(_TWO, c, out=c)
    np.multiply(t, c, out=s)
    np.subtract(c, _ONE, out=c)


def _coupling_sum(problem: IsingProblem, coupling: CouplingFunction,
                  sc: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j) for each i, from the [s | c] block
    sc = [sin phi, cos phi] of (n,) or (B, n) phases, shaped (2,) + phi.shape.

    _drift fills sc once per step from the half-angle tangent t = tan(phi/2):
    s = 2t / (1 + t^2), c = (1 - t^2) / (1 + t^2).  The same block then
    gives the self term f(s) and the SHIL term f(2 s c) there.

    With g = f(sin):
      sine             f is linear: s_i (J c)_i - c_i (J s)_i, one product of
                       the symmetric J with the node-major [s | c] block;
      smoothed_square  f(s_i c_j - c_i s_j) per edge, summed by the signed
                       incidence S.
    A sparse product sums each column in the same order at every batch
    size, so a row's sum does not depend on the rows beside it.
    """
    shape = sc.shape[1:]
    n = shape[-1]
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
    return np.ascontiguousarray((problem.incidence @ x).T).reshape(shape)


def _buffers(shape: tuple) -> tuple:
    """The drift kernel's arrays for phases of this shape: the [s | c] block
    with its two halves, the drift and a scratch array."""
    sc = np.empty((2,) + shape)
    return sc, sc[0], sc[1], np.empty(shape), np.empty(shape)


def _drift(problem: IsingProblem, coupling: CouplingFunction,
           omega: np.ndarray, wdelta: np.ndarray, phi: np.ndarray,
           K: float, Ks: float, buffers: tuple) -> np.ndarray:
    """Unchecked drift of (n,) or (B, n) phases; wdelta is omega - 1.

    buffers is _buffers(phi.shape); the drift is written to its fourth
    array and returned.  s and c from the one half-angle evaluation feed the
    coupling sum, the self term f(s) and the SHIL term f(sin 2 phi) =
    f(2 s c).
    """
    sc, s, c, d, tmp = buffers
    _sin_cos(phi, s, c, tmp)
    np.multiply(_coupling_sum(problem, coupling, sc), -K, out=d)
    if problem.has_self_terms:
        coupling.g_of_sin(s, out=tmp)
        np.multiply(tmp, problem.h, out=tmp)
        np.multiply(tmp, K, out=tmp)
        np.subtract(d, tmp, out=d)
    if Ks != 0.0:
        np.multiply(s, c, out=tmp)
        np.add(tmp, tmp, out=tmp)
        coupling.g_of_sin(tmp, out=tmp)
        np.multiply(tmp, Ks, out=tmp)
        np.subtract(d, tmp, out=d)
    np.multiply(d, omega, out=d)
    np.add(d, wdelta, out=d)
    return d


def drift(problem: IsingProblem, coupling: CouplingFunction,
          bank: OscillatorBank, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Deterministic phase velocity; accepts (n,) or batched (B, n) phases."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape[-1] != problem.n:
        raise ValueError(f"phi has {phi.shape[-1]} phases, problem has n={problem.n}")
    if not np.isfinite(phi).all():
        raise IntegrationError("non-finite phase passed to drift")
    return _drift(problem, coupling, bank.omega, bank.omega - 1.0,
                  phi, K, Ks, _buffers(phi.shape))


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
               record_every: int = 0):
    """Shared fixed-step core; phi is (B, n), one RNG stream per row.

    Returns (phi_final, records).  records is None when record_every is 0,
    else the (S, B, n) snapshots at _record_grid(n_steps, record_every).
    The input phi is left as it is; the state, the drift kernel's buffers,
    the noise and the records are allocated once and updated in place.
    Row b consumes exactly one standard_normal(n) per step from rngs[b], so
    batched and one-at-a-time runs are bit-equal.

    One failure rule: nothing is checked while stepping.  Rows never mix and
    NaN and inf propagate, so a non-finite row stays so to the end while the
    others step on unchanged.  Without records the caller reads failure from
    the final phases; with them, IntegrationError names the first non-finite
    record in (S, B, n) order after the run.  omega_star is 1.0 at every
    caller; it stays because perfbench/layertrace.py wraps this signature.
    """
    t_grid = np.arange(n_steps) * dt
    k_arr, ks_arr, kn_arr = schedule.eval_arrays(t_grid)
    wdelta = omega - omega_star
    dt_0d = np.array(dt)
    noise = kn_arr * np.sqrt(dt)
    phi = phi.copy()
    buffers = _buffers(phi.shape)
    zeta = np.empty_like(phi)
    zeta_rows = list(zeta)
    records = None
    slots = {}                      # step -> row of records
    if record_every:
        grid = _record_grid(n_steps, record_every)
        slots = {int(k): r for r, k in enumerate(grid)}
        records = np.empty((len(grid),) + phi.shape)
        records[0] = phi
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            d = _drift(problem, coupling, omega, wdelta, phi, k_arr[k], ks_arr[k],
                       buffers)
            for rng, row in zip(rngs, zeta_rows):
                rng.standard_normal(out=row)
            # phi + d*dt + (Kn*sqrt(dt))*zeta, in place, rounded the same way
            np.multiply(d, dt_0d, out=d)
            np.add(phi, d, out=phi)
            np.multiply(zeta, noise[k], out=zeta)
            np.add(phi, zeta, out=phi)
            if (k + 1) in slots:
                records[slots[k + 1]] = phi
    bad = np.argwhere(~np.isfinite(records)) if record_every else ()
    if len(bad):
        r, _, i = bad[0]
        raise IntegrationError(f"non-finite phase at index {i} (t={grid[r] * dt:g})")
    return phi, records


def simulate(problem: IsingProblem, coupling: CouplingFunction,
             bank: OscillatorBank, schedule: Schedule, *, dt: float, seed: int,
             record_every: int = 1) -> Trajectory:
    """Fixed-step Euler-Maruyama run over the schedule's horizon.

    Runs floor(schedule.t_end / dt) steps (dt <= t_end) from phases drawn
    uniformly on [0, pi) by the Philox stream `seed`, which then supplies
    the step noise.  Controls are evaluated at the start of each step.
    Samples are recorded at step 0, every record_every steps, and always at
    the final step.  A non-finite record raises IntegrationError after the run.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if len(bank.omega) != problem.n:
        raise ValueError("bank size does not match problem size")
    n_steps = _n_steps(schedule.t_end, dt)
    rng = make_rng(seed)
    phi0 = rng.uniform(0.0, np.pi, size=problem.n)
    _, records = _integrate(problem, coupling, bank.omega, 1.0, schedule,
                            dt, n_steps, phi0[None, :], [rng],
                            record_every=record_every)
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


def trajectory_to_csv(traj: Trajectory, energy: np.ndarray, path) -> None:
    """CSV columns: t, phi_0..phi_{n-1}, K, Ks, Kn and E = energy (17 digits)."""
    n = traj.n
    header = ",".join(["t"] + [f"phi_{k}" for k in range(n)] + ["K", "Ks", "Kn", "E"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for k in range(traj.n_samples):
            cells = [traj.t[k], *traj.phi[k], *traj.controls[k], energy[k]]
            f.write(",".join(f"{c:.17g}" for c in cells) + "\n")

