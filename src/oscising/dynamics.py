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

Neither coupling kind allocates per step: each _integrate or drift call
makes one workspace (_Operands), and both sparse products call scipy's
csr_matvecs, the kernel `matrix @ x` runs, straight into it; `@` would
allocate its result and, on a few nodes, spend longer in dispatch than in
the kernel.  _integrate writes each recorded step into its record row.

Noise enters as phi' = phi + drift*dt + Kn*sqrt(dt)*N(0, 1); every run
starts in harness._run, which states what each stream supplies.  Phases
are kept unwrapped; wrapping happens only in the readout helpers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse._sparsetools import csr_matvecs

from .coupling import CouplingFunction
from .ising import IsingProblem, SpinConfig
from .schedule import Schedule

__all__ = [
    "IntegrationError",
    "OscillatorBank",
    "Trajectory",
    "drift",
    "read_spins",
    "binarisation_residual",
    "trajectory_to_csv",
]

COUPLING_BLOCK = 32     # trials per block of the smoothed-square coupling sum


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


def _product_args(matrix, x: np.ndarray, y: np.ndarray) -> tuple:
    """csr_matvecs's arguments for y += matrix @ x, the call `matrix @ x`
    makes for an (N, k > 1) x (for k = 1 it calls csr_matvec, which sums in
    the same order); x and y must be C-contiguous, so their ravels are views."""
    if not (x.flags.c_contiguous and y.flags.c_contiguous):
        raise ValueError("csr_matvecs needs C-contiguous x and y")
    return (*matrix.shape, x.shape[1], matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), y.ravel())


class _Operands:
    """The coupling sum's operands for one run: the problem and the
    workspace that _coupling_sum describes, sized for phases of one shape,
    with every view and csr_matvecs argument tuple made here once.

    It lives as long as one _integrate or drift call; kept on the module, a
    problem or a coupling, it would be shared by two runs.  It is
    _coupling_sum's first argument, and exposes .incidence, because
    perfbench/layertrace.py wraps _coupling_sum by its three-argument
    signature and reads that argument's incidence for its bytes model.
    """

    def __init__(self, problem: IsingProblem, coupling: CouplingFunction,
                 shape: tuple):
        self.problem = problem
        n, m = problem.n, problem.m
        self.bsz = math.prod(shape[:-1])
        self.out = np.empty(shape)
        self.blocks = []
        if coupling.kind == "sine":
            node_in, self.node_out = np.empty((2, n, 2 * self.bsz))
            self.sc_in = node_in.T.reshape((2,) + shape)
            self.jcs = self.node_out.T.reshape((2,) + shape)[::-1]
            self.prod = node_in.reshape((2,) + shape)   # the spent input
            self.terms = tuple(self.prod)
            self.args = _product_args(problem.adjacency, node_in, self.node_out)
            return
        rows = self.out.reshape(self.bsz, n)
        width = min(self.bsz, COUPLING_BLOCK)
        nodes = np.empty(2 * n * width)
        edges = np.empty((3, m * width))
        summed = np.empty(n * width)
        for lo in range(0, self.bsz, COUPLING_BLOCK):
            w = min(COUPLING_BLOCK, self.bsz - lo)
            sn, cs = nodes[:2 * n * w].reshape(2, n, w)
            x, y, z = (e[:m * w].reshape(m, w) for e in edges)
            sx = summed[:n * w].reshape(n, w)
            self.blocks.append((slice(lo, lo + w), sn, cs, rows[lo:lo + w], x, y, z,
                                sx, _product_args(problem.incidence, x, sx)))

    @property
    def incidence(self):
        return self.problem.incidence


def _coupling_sum(ops: _Operands, coupling: CouplingFunction,
                  sc: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j) for each i, from the [s | c] block
    sc = [sin phi, cos phi] of (n,) or (B, n) phases, shaped (2,) + phi.shape.

    _drift fills sc once per step from the half-angle tangent t = tan(phi/2):
    s = 2t / (1 + t^2), c = (1 - t^2) / (1 + t^2).  The same block then
    gives the self term f(s) and the SHIL term f(2 s c) there.

    With g = f(sin), in the workspace ops, allocating nothing; ops.out is
    returned:
      sine             f is linear: s_i (J c)_i - c_i (J s)_i.  csr_matvecs
                       adds J [s | c], node-major (n, 2B), into a zeroed
                       output; [J c, J s] is copied back trial-major over
                       the spent input, where two ufuncs form the sum (a
                       ufunc over mixed layouts would buffer);
      smoothed_square  f(s_i c_j - c_i s_j) per edge, summed by the signed
                       incidence S.  Per block of at most COUPLING_BLOCK
                       trials, np.copyto fills a node-major s and c slab,
                       np.take gathers them into three (m, block) edge
                       arrays, f is applied in place, csr_matvecs adds S x
                       into the zeroed (n, block) product and its transpose
                       fills the block's rows.  The gathers pass mode="clip"
                       as numpy buffers out= under mode="raise"; _check_edges
                       keeps every index in [0, n), so nothing is clipped.
    The kernel is the one `matrix @ x` runs (_product_args).  It sums each
    column in the same order at every batch size, so a row's sum does not
    depend on the rows beside it or on the block it falls in.
    """
    if coupling.kind == "sine":
        ops.sc_in[...] = sc
        ops.node_out.fill(0.0)
        csr_matvecs(*ops.args)
        ops.prod[...] = ops.jcs
        np.multiply(sc, ops.prod, out=ops.prod)
        return np.subtract(*ops.terms, out=ops.out)
    s_rows, c_rows = sc.reshape(2, ops.bsz, ops.problem.n)
    i, j = ops.problem.i, ops.problem.j
    for rows, sn, cs, out, x, y, z, sx, args in ops.blocks:
        np.copyto(sn, s_rows[rows].T)
        np.copyto(cs, c_rows[rows].T)
        np.take(sn, i, axis=0, out=x, mode="clip")
        np.take(cs, j, axis=0, out=y, mode="clip")
        x *= y
        np.take(cs, i, axis=0, out=y, mode="clip")
        np.take(sn, j, axis=0, out=z, mode="clip")
        y *= z
        x -= y
        coupling.g_of_sin(x, out=x)
        sx.fill(0.0)
        csr_matvecs(*args)
        np.copyto(out, sx.T)
    return ops.out


def _buffers(problem: IsingProblem, coupling: CouplingFunction,
             shape: tuple) -> tuple:
    """The drift kernel's operands and arrays for phases of this shape: the
    coupling sum's _Operands, the [s | c] block with its two halves, the
    drift and a scratch array."""
    sc = np.empty((2,) + shape)
    return (_Operands(problem, coupling, shape), sc, sc[0], sc[1],
            np.empty(shape), np.empty(shape))


def _drift(problem: IsingProblem, coupling: CouplingFunction,
           omega: np.ndarray, wdelta: np.ndarray, phi: np.ndarray,
           K: float, Ks: float, buffers: tuple) -> np.ndarray:
    """Unchecked drift of (n,) or (B, n) phases; wdelta is omega - 1.

    buffers is _buffers(problem, coupling, phi.shape); the drift is written
    to its fifth array and returned.  s and c from the one half-angle evaluation feed the
    coupling sum, the self term f(s) and the SHIL term f(sin 2 phi) =
    f(2 s c).
    """
    ops, sc, s, c, d, tmp = buffers
    _sin_cos(phi, s, c, tmp)
    np.multiply(_coupling_sum(ops, coupling, sc), -K, out=d)
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
                  phi, K, Ks, _buffers(problem, coupling, phi.shape))


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
    the noise and the records are allocated once and updated in place: a
    recorded step writes its update straight into its record row, which
    the next step reads, so recording copies nothing per step.
    Row b draws its noise from rngs[b] alone, so batched and one-at-a-time
    runs are bit-equal.

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
    state = phi = phi.copy()
    buffers = _buffers(problem, coupling, phi.shape)
    zeta = np.empty_like(phi)
    zeta_rows = list(zeta)
    records = None
    rows = {}                       # recorded step -> its row of records
    if record_every:
        grid = _record_grid(n_steps, record_every)
        records = np.empty((len(grid),) + phi.shape)
        records[0] = phi
        rows = dict(zip(grid.tolist(), records))
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            d = _drift(problem, coupling, omega, wdelta, phi, k_arr[k], ks_arr[k],
                       buffers)
            for rng, row in zip(rngs, zeta_rows):
                rng.standard_normal(out=row)
            # phi + d*dt + (Kn*sqrt(dt))*zeta, rounded the same way, into
            nxt = rows.get(k + 1, state)    # step k + 1's record row or the state
            np.multiply(d, dt_0d, out=d)
            np.add(phi, d, out=nxt)
            np.multiply(zeta, noise[k], out=zeta)
            np.add(nxt, zeta, out=nxt)
            phi = nxt
    if phi is not state:
        state[...] = phi
    bad = np.argwhere(~np.isfinite(records)) if record_every else ()
    if len(bad):
        r, _, i = bad[0]
        raise IntegrationError(f"non-finite phase at index {i} (t={grid[r] * dt:g})")
    return state, records


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

