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
makes one workspace (_Operands) that owns its kernel state, and both sparse
products call csr_matvecs, the kernel `matrix @ x` runs, straight into it;
`@` would allocate its result and, on a few nodes, spend longer in dispatch
than in the kernel.  _integrate writes each recorded step into its record row.

The smoothed square's edge pipeline (gathers, f and the incidence product)
runs per block of COUPLING_BLOCK trials and, within a block, per tile of
EDGE_TILE edges (or n, if more), so that a tile's edge arrays stay in L2
between passes where whole (m, block) arrays would stream from L3.
csr_matvecs adds a row's entries into its output one by one in stored
column order, so the column tiles' products, added in ascending order into
one zeroed output, make exactly the additions of the whole product: the
results are bit-identical to the untiled sum.

Noise enters as phi' = phi + drift*dt + Kn*sqrt(dt)*N(0, 1); every run
starts in harness._run, which states what each stream supplies.  Phases
are kept unwrapped; wrapping happens only in the readout helpers.
"""
from __future__ import annotations

import math
from collections import namedtuple
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
EDGE_TILE = 1024        # edges per tile of a block: its three edge arrays fit L2


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


# a CSR column slice, in the attributes _product_args reads
_Tile = namedtuple("_Tile", "shape indptr indices data")


def _column_tiles(matrix, width: int) -> list:
    """[(lo, hi, tile)]: the CSR column slices tile = matrix[:, lo:hi] of at
    most width columns, lo = 0, width, ..., in ascending order.

    A matrix of at most width columns is its own one tile.  Otherwise one
    stable sort of the stored entries by tile splits the arrays at once,
    where m / width scipy slices would cost milliseconds at G1 size.  The
    sort keeps each row's entries in stored order; with sorted column
    indices, csr_matvecs over the tiles in ascending order, into one zeroed
    y, adds each row's entries in the order `matrix @ x` does.
    """
    n, m = matrix.shape
    if m <= width:
        return [(0, m, matrix)]
    if not matrix.has_sorted_indices:
        raise ValueError("column tiles need sorted column indices")
    k = -(-m // width)
    tile = matrix.indices // width
    order = np.argsort(tile, kind="stable")
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    count = np.bincount(tile.astype(np.intp) * n + rows, minlength=k * n).reshape(k, n)
    indptr = np.zeros((k, n + 1), dtype=matrix.indptr.dtype)
    indptr[:, 1:] = count.cumsum(axis=1)
    indices = (matrix.indices % width)[order].astype(matrix.indices.dtype, copy=False)
    data = matrix.data[order]
    cuts = indptr[:-1, -1].cumsum()
    return [(lo, min(lo + width, m), _Tile((n, min(width, m - lo)), p, i, d))
            for lo, p, i, d in zip(range(0, m, width), indptr,
                                   np.split(indices, cuts), np.split(data, cuts))]


class _Operands:
    """One run's drift-kernel workspace for phases of one shape: the problem,
    the coupling, omega and wdelta = omega - w*, the [s | c] block sc with
    its halves s and c, the drift d, scratch tmp and the coupling sum's
    arrays, views and csr_matvecs argument tuples, all made here once.

    For the smoothed square, blocks holds per trial block its rows, the
    shared node-major s and c slabs, its output rows, its zeroed (n, block)
    sum and its edge tiles.  Each tile holds views of writable copies of
    the edge indices (np.take copies a read-only index array on every call,
    150 kB a gather at G1 size), three (tile, block) views of one shared
    edge buffer and the csr_matvecs arguments of its column slice of the
    incidence S (_column_tiles), which add into the block's one sum.  It
    lives for one _integrate or drift call, so no two runs share it.  It is
    _coupling_sum's first argument and exposes .incidence:
    perfbench/layertrace.py wraps _coupling_sum by its three-argument
    signature and reads that incidence for its bytes model.
    """

    def __init__(self, problem: IsingProblem, coupling: CouplingFunction,
                 omega: np.ndarray, wdelta: np.ndarray, shape: tuple):
        self.problem = problem
        self.coupling = coupling
        self.omega = omega
        self.wdelta = wdelta
        self.sc = np.empty((2,) + shape)
        self.s, self.c = self.sc
        self.d, self.tmp = np.empty((2,) + shape)
        n = problem.n
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
        i, j = problem.i.copy(), problem.j.copy()
        # a tile of at least n edges holds more entries than row pointers
        tiles = _column_tiles(problem.incidence, max(EDGE_TILE, n))
        rows = self.out.reshape(self.bsz, n)
        width = min(self.bsz, COUPLING_BLOCK)
        nodes = np.empty(2 * n * width)
        edges = np.empty((3, tiles[0][1] * width))      # the first tile is the widest
        summed = np.empty(n * width)
        for lo in range(0, self.bsz, COUPLING_BLOCK):
            w = min(COUPLING_BLOCK, self.bsz - lo)
            sn, cs = nodes[:2 * n * w].reshape(2, n, w)
            sx = summed[:n * w].reshape(n, w)
            block_tiles = []
            for a, b, tile in tiles:
                x, y, z = (e[:(b - a) * w].reshape(b - a, w) for e in edges)
                block_tiles.append((i[a:b], j[a:b], x, y, z, _product_args(tile, x, sx)))
            self.blocks.append((slice(lo, lo + w), sn, cs, rows[lo:lo + w], sx, block_tiles))

    @property
    def incidence(self):
        return self.problem.incidence


def _coupling_sum(ops: _Operands, coupling: CouplingFunction,
                  sc: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j) for each i, from the [s | c] block
    sc = [sin phi, cos phi] of (n,) or (B, n) phases, shaped (2,) + phi.shape.

    With g = f(sin), in the workspace ops, allocating nothing; ops.out is
    returned:
      sine             f is linear: s_i (J c)_i - c_i (J s)_i.  csr_matvecs
                       adds J [s | c], node-major (n, 2B), into a zeroed
                       output; [J c, J s] is copied back trial-major over
                       the spent input, where two ufuncs form the sum (a
                       ufunc over mixed layouts would buffer);
      smoothed_square  f(s_i c_j - c_i s_j) per edge, summed by the signed
                       incidence S.  Per block of at most COUPLING_BLOCK
                       trials, np.copyto fills node-major s and c slabs and
                       the block's (n, block) sum is zeroed.  Per edge tile,
                       in ascending edge order, np.take gathers the slabs
                       into three (tile, block) edge arrays, f is applied in
                       place and csr_matvecs adds the tile's columns of S
                       times x into that sum, which makes the additions of
                       the whole S x (_column_tiles); its transpose fills
                       the block's rows.  The gathers pass mode="clip"
                       (numpy buffers out= under "raise"); _check_edges
                       keeps indices in [0, n).
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
    for rows, sn, cs, out, sx, tiles in ops.blocks:
        np.copyto(sn, s_rows[rows].T)
        np.copyto(cs, c_rows[rows].T)
        sx.fill(0.0)
        for i, j, x, y, z, args in tiles:
            np.take(sn, i, axis=0, out=x, mode="clip")
            np.take(cs, j, axis=0, out=y, mode="clip")
            x *= y
            np.take(cs, i, axis=0, out=y, mode="clip")
            np.take(sn, j, axis=0, out=z, mode="clip")
            y *= z
            x -= y
            coupling.g_of_sin(x, out=x)
            csr_matvecs(*args)
        np.copyto(out, sx.T)
    return ops.out


def _drift(ops: _Operands, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Unchecked drift of phases of the shape ops was made for, written to
    ops.d and returned.  s and c from the one half-angle evaluation feed the
    coupling sum, the self term f(s) and the SHIL term f(2 s c)."""
    coupling, s, c, d, tmp = ops.coupling, ops.s, ops.c, ops.d, ops.tmp
    _sin_cos(phi, s, c, tmp)
    np.multiply(_coupling_sum(ops, coupling, ops.sc), -K, out=d)
    if ops.problem.has_self_terms:
        coupling.g_of_sin(s, out=tmp)
        np.multiply(tmp, ops.problem.h, out=tmp)
        np.multiply(tmp, K, out=tmp)
        np.subtract(d, tmp, out=d)
    if Ks != 0.0:
        np.multiply(s, c, out=tmp)
        np.add(tmp, tmp, out=tmp)
        coupling.g_of_sin(tmp, out=tmp)
        np.multiply(tmp, Ks, out=tmp)
        np.subtract(d, tmp, out=d)
    np.multiply(d, ops.omega, out=d)
    np.add(d, ops.wdelta, out=d)
    return d


def _check_sizes(problem: IsingProblem, bank: OscillatorBank,
                 phi: np.ndarray | None = None) -> None:
    """ValueError unless the bank and phi's last axis (if given) hold n."""
    if phi is not None and phi.shape[-1] != problem.n:
        raise ValueError(f"phi has {phi.shape[-1]} phases, problem has n={problem.n}")
    if len(bank.omega) != problem.n:
        raise ValueError("bank size does not match problem size")


def drift(problem: IsingProblem, coupling: CouplingFunction,
          bank: OscillatorBank, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Deterministic phase velocity; accepts (n,) or batched (B, n) phases."""
    phi = np.asarray(phi, dtype=np.float64)
    _check_sizes(problem, bank, phi)
    if not np.isfinite(phi).all():
        raise IntegrationError("non-finite phase passed to drift")
    ops = _Operands(problem, coupling, bank.omega, bank.omega - 1.0, phi.shape)
    return _drift(ops, phi, K, Ks)


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
    The input phi is left as it is; the state, the drift kernel's workspace
    (_Operands), the noise and the records are allocated once and updated
    in place: a recorded step writes its update straight into its record
    row, which the next step reads, so recording copies nothing per step.
    Row b draws its noise from rngs[b] alone, so batched and one-at-a-time
    runs are bit-equal.

    One failure rule: nothing is checked while stepping.  Rows never mix and
    NaN and inf propagate, so a non-finite row stays so to the end while the
    others step on unchanged.  Without records the caller reads failure from
    the final phases; with them, IntegrationError names the first non-finite
    record in (S, B, n) order after the run.  omega_star (1.0 at every
    caller) sets wdelta; it stays as perfbench/layertrace.py wraps it.
    """
    t_grid = np.arange(n_steps) * dt
    k_arr, ks_arr, kn_arr = schedule.eval_arrays(t_grid)
    dt_0d = np.array(dt)
    noise = kn_arr * np.sqrt(dt)
    state = phi = phi.copy()
    ops = _Operands(problem, coupling, omega, omega - omega_star, phi.shape)
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
            d = _drift(ops, phi, k_arr[k], ks_arr[k])
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

