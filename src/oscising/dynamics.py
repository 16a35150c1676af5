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

                one sparse product of diag(J, J) with [s | c]; the smoothed
                square applies its f to s_i c_j - c_i s_j per edge;
  self term     g(phi_i) = f(s_i);
  SHIL term     g(2 phi_i) = f(2 s_i c_i).

The kernel holds B trials node-major, (n, B), the layout of the sparse
products' operands: s and c are the contiguous halves of one (2, n, B)
block, which the sine sum multiplies, seen as (2n, B), by diag(J, J), so a
step makes no layout copy; _integrate and drift transpose at their
boundaries.  Each call makes one workspace (_Operands) that owns the kernel
state, so no step allocates, and both sparse products call csr_matvecs, the
kernel scipy's `matrix @ x` runs, loaded alone (_load_csr_matvecs), straight
into it (`@` would allocate its result and, on a few nodes, spend longer in
dispatch than in the kernel).  The
smoothed square's edge work runs per block of COUPLING_BLOCK trials and per
tile of EDGE_TILE edges (or n, if more), so a tile's edge arrays stay in L2;
the tiled sum is bit-identical to the untiled one (_column_tiles).

Noise enters as phi' = phi + drift*dt + Kn*sqrt(dt)*N(0, 1); every run
starts in harness._run, which states what each stream supplies.  Phases
are kept unwrapped; wrapping happens only in the readout helpers.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import CouplingFunction
from .ising import CSR, EDGE_TILE, IsingProblem, SpinConfig
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


def _load_csr_matvecs():
    """scipy's csr_matvecs, from its compiled _sparsetools file alone:
    importing scipy.sparse would cost about 20 MiB of RSS.  The module is
    not left in sys.modules; ImportError if scipy or the file is missing."""
    scipy = importlib.util.find_spec("scipy")       # imports nothing
    if scipy is None:
        raise ImportError("csr_matvecs comes from scipy, which is not installed")
    name = "scipy.sparse._sparsetools"
    base = os.path.join(scipy.submodule_search_locations[0], "sparse", "_sparsetools")
    for path in (base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            loaded = name in sys.modules    # a single-phase extension registers itself
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if not loaded:
                sys.modules.pop(name, None)
            return module.csr_matvecs
    raise ImportError(f"no compiled scipy extension at {base}.*")


csr_matvecs = _load_csr_matvecs()


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
# dominates a step on a few nodes.  For the same reason the per-step kernels
# pass out by position: the keyword costs about 40 ns a call.
_HALF, _ONE, _TWO = np.array(0.5), np.array(1.0), np.array(2.0)


def _sin_cos(phi: np.ndarray, s: np.ndarray, c: np.ndarray,
             t: np.ndarray) -> None:
    """Write s = sin phi and c = cos phi through t = tan(phi / 2), as the
    module docstring derives.  |t| stays below about 1.6e16 for finite phi,
    so t^2 does not overflow; NaN and inf give NaN.  t is scratch like phi.
    """
    np.multiply(phi, _HALF, t)
    np.tan(t, t)
    np.multiply(t, t, c)
    np.add(c, _ONE, c)
    np.divide(_TWO, c, c)
    np.multiply(t, c, s)
    np.subtract(c, _ONE, c)


def _product_args(matrix, x: np.ndarray, y: np.ndarray) -> tuple:
    """csr_matvecs's arguments for y += matrix @ x, the call `matrix @ x`
    makes for an (N, k > 1) x (for k = 1 it calls csr_matvec, which sums in
    the same order); x and y must be C-contiguous, so their ravels are views."""
    if not (x.flags.c_contiguous and y.flags.c_contiguous):
        raise ValueError("csr_matvecs needs C-contiguous x and y")
    return (*matrix.shape, x.shape[1], matrix.indptr, matrix.indices,
            matrix.data, x.ravel(), y.ravel())


def _column_tiles(matrix: CSR, width: int) -> list:
    """[(lo, hi, tile)]: the CSR column slices tile = matrix[:, lo:hi] of at
    most width columns, lo = 0, width, ..., in ascending order.

    A matrix of at most width columns is its own one tile.  Otherwise one
    stable sort of the stored entries by tile splits the arrays at once,
    where m / width scipy slices would cost milliseconds at G1 size.  The
    sort keeps each row's entries in stored order; as ising._csr sorts each
    row's columns, csr_matvecs over the tiles in ascending order, into one
    zeroed y, adds each row's entries in the order `matrix @ x` does.
    """
    n, m = matrix.shape
    if m <= width:
        return [(0, m, matrix)]
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
    return [(lo, min(lo + width, m), CSR((n, min(width, m - lo)), p, i, d))
            for lo, p, i, d in zip(range(0, m, width), indptr,
                                   np.split(indices, cuts), np.split(data, cuts))]


def _block_diagonal(matrix: CSR) -> CSR:
    """diag(matrix, matrix) of a square CSR matrix: row i + n holds row i's
    entries in stored order, columns shifted by n, so each output entry of
    its product makes the additions of matrix @ x on its own half."""
    n, p, i, d = matrix.shape[0], matrix.indptr, matrix.indices, matrix.data
    return CSR((2 * n, 2 * n), np.concatenate([p, p[1:] + p[-1]]),
               np.concatenate([i, i + n]), np.concatenate([d, d]))


class _Operands:
    """One run's drift-kernel workspace for B trials held node-major, made
    once: the problem, the coupling, omega and wdelta = omega - w* (given
    (n,) or (B, n), held (n, 1) or (n, B); both None when every omega = w* =
    1, a pass that would only turn -0.0 into +0.0), h as a column, the (2, n, B)
    block sc = [s | c], the drift d, scratch tmp, the (n, B) sum out, and
    the coupling sum's arrays, views and csr_matvecs argument tuples.

    Sine: diag(J, J) (_block_diagonal) times sc, seen as (2n, B), goes into
    jsc = [js | jc].  Smoothed square: blocks holds per block of at most
    COUPLING_BLOCK trials its columns, its (n, block) s and c slabs, its
    sum and its edge tiles.  A tile holds views of writable copies of the
    edge indices (np.take copies a read-only index array on every call),
    three (tile, block) views of one edge buffer and the csr_matvecs
    arguments of its column slice of the incidence (_column_tiles).  J, S
    and the slices are ising.CSR arrays.  It lives for one _integrate or
    drift call; the CSR arrays of its .incidence, S, feed
    perfbench/layertrace.py's bytes model.
    """

    def __init__(self, problem: IsingProblem, coupling: CouplingFunction,
                 omega: np.ndarray, wdelta: np.ndarray, batch: int):
        n = problem.n
        self.problem, self.coupling = problem, coupling
        self.omega = self.wdelta = None
        if np.any(omega != 1.0) or np.any(wdelta != 0.0):
            self.omega, self.wdelta = (np.ascontiguousarray(np.atleast_2d(w).T)
                                       for w in (omega, wdelta))
        self.h = problem.h[:, None]
        self.s, self.c = self.sc = np.empty((2, n, batch))
        self.d, self.tmp, self.out = np.empty((3, n, batch))
        self.blocks = []
        if coupling.kind == "sine":
            self.js, self.jc = self.jsc = np.empty((2, n, batch))
            self.args = _product_args(_block_diagonal(problem.adjacency), *(
                a.reshape(2 * n, batch) for a in (self.sc, self.jsc)))
            return
        i, j = problem.i.copy(), problem.j.copy()
        # a tile of at least n edges holds more entries than row pointers
        tiles = _column_tiles(problem.incidence, max(EDGE_TILE, n))
        width = min(batch, COUPLING_BLOCK)
        nodes = np.empty(2 * n * width)
        edges = np.empty((3, tiles[0][1] * width))      # the first tile is the widest
        summed = np.empty(n * width)
        for lo in range(0, batch, COUPLING_BLOCK):
            w = min(COUPLING_BLOCK, batch - lo)
            sn, cs = nodes[:2 * n * w].reshape(2, n, w)
            sx = summed[:n * w].reshape(n, w)
            block_tiles = []
            for a, b, tile in tiles:
                x, y, z = (e[:(b - a) * w].reshape(b - a, w) for e in edges)
                block_tiles.append((i[a:b], j[a:b], x, y, z, _product_args(tile, x, sx)))
            self.blocks.append((slice(lo, lo + w), sn, cs, sx, block_tiles))

    @property
    def incidence(self):
        return self.problem.incidence


def _coupling_sum(ops: _Operands, coupling: CouplingFunction,
                  sc: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j) per node and trial, with g = f(sin),
    into ops.out, which is returned, allocating nothing.  sc is ops.sc =
    [sin phi, cos phi] of (n, B) phases, the memory the products are bound
    to; it stays an argument for perfbench/layertrace.py, and any other
    block raises ValueError.
      sine             f is linear: s_i (J c)_i - c_i (J s)_i.  csr_matvecs
                       adds diag(J, J) sc into the zeroed [js | jc]; two
                       multiplies in place and a subtract form the sum;
      smoothed_square  f(s_i c_j - c_i s_j) per edge, summed by the signed
                       incidence S.  Per trial block the (n, block) slabs
                       are copied from s and c and the sum zeroed; per edge
                       tile, in ascending order, np.take gathers the slabs
                       into three (tile, block) edge arrays (mode="clip": numpy buffers
                       out= under "raise", and _check_edges keeps indices in
                       [0, n)), f applies in place and csr_matvecs adds the
                       tile's columns of S times x into the sum, making the
                       additions of the whole S x (_column_tiles), which
                       is copied into the block's columns of out.
    The kernel is the one `matrix @ x` runs (_product_args).  It sums each
    column in the same order at every batch size, so a trial's sum does not
    depend on the trials beside it or on the block it falls in.
    """
    if sc is not ops.sc:
        raise ValueError("sc must be ops.sc, the block the products are bound to")
    if coupling.kind == "sine":
        ops.jsc.fill(0.0)
        csr_matvecs(*ops.args)
        np.multiply(ops.s, ops.jc, ops.jc)
        np.multiply(ops.c, ops.js, ops.js)
        return np.subtract(ops.jc, ops.js, ops.out)
    for cols, sn, cs, sx, tiles in ops.blocks:
        np.copyto(sn, ops.s[:, cols])
        np.copyto(cs, ops.c[:, cols])
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
        np.copyto(ops.out[:, cols], sx)
    return ops.out


def _drift(ops: _Operands, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Unchecked drift of (n, B) phases into ops.d, which is returned: s and c
    from one half-angle evaluation feed the coupling sum, the self term f(s)
    and the SHIL term f(2 s c)."""
    return _step_drift(ops, phi, -K, Ks if Ks != 0.0 else None)


def _step_drift(ops: _Operands, phi: np.ndarray, neg_K, Ks) -> np.ndarray:
    """_drift given -K, and None for Ks = 0, so _integrate can pass 0-d views
    of its per-step arrays.  Adding (-K) h f(s) rounds as subtracting K h f(s)
    does: x (-K) is -(x K) and a + (-b) is a - b in IEEE arithmetic."""
    coupling, s, c, d, tmp = ops.coupling, ops.s, ops.c, ops.d, ops.tmp
    _sin_cos(phi, s, c, tmp)
    np.multiply(_coupling_sum(ops, coupling, ops.sc), neg_K, d)
    if ops.problem.has_self_terms:
        coupling.g_of_sin(s, out=tmp)
        np.multiply(tmp, ops.h, tmp)
        np.multiply(tmp, neg_K, tmp)
        np.add(d, tmp, d)
    if Ks is not None:
        np.multiply(s, c, tmp)
        np.add(tmp, tmp, tmp)
        coupling.g_of_sin(tmp, out=tmp)
        np.multiply(tmp, Ks, tmp)
        np.subtract(d, tmp, d)
    if ops.omega is not None:
        np.multiply(d, ops.omega, d)
        np.add(d, ops.wdelta, d)
    return d


def _check_sizes(problem: IsingProblem, bank: OscillatorBank,
                 phi: np.ndarray | None = None) -> None:
    """ValueError unless the bank and phi's last axis (if given) hold n."""
    if phi is not None and phi.shape[-1:] != (problem.n,):
        raise ValueError(f"phi of shape {phi.shape} does not end in n={problem.n}")
    if len(bank.omega) != problem.n:
        raise ValueError("bank size does not match problem size")


def drift(problem: IsingProblem, coupling: CouplingFunction,
          bank: OscillatorBank, phi: np.ndarray, K: float, Ks: float) -> np.ndarray:
    """Deterministic phase velocity; accepts (n,) or batched (..., n) phases."""
    phi = np.asarray(phi, dtype=np.float64)
    _check_sizes(problem, bank, phi)
    if not np.isfinite(phi).all():
        raise IntegrationError("non-finite phase passed to drift")
    rows = phi.reshape(-1, problem.n)
    ops = _Operands(problem, coupling, bank.omega, bank.omega - 1.0, len(rows))
    return np.ascontiguousarray(_drift(ops, rows.T, K, Ks).T).reshape(phi.shape)


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
    """Shared fixed-step core; phi is (B, n), omega (n,) or per-trial (B, n),
    one RNG stream per row.

    Returns (phi_final, records): the (B, n) finals and, if record_every > 0,
    the (S, B, n) snapshots at _record_grid(n_steps, record_every) as a view
    of (S, n, B) storage, else None.  The state is a node-major copy of phi;
    it, the drift kernel's workspace (_Operands), the noise and the records
    are allocated once and updated in place, a recorded step writing its
    update straight into its record row; the finals overwrite the (B, n)
    noise buffer.  Row b draws its noise from rngs[b]
    alone, into row b of a (B, n) buffer whose transpose the update adds, so
    batched and one-at-a-time runs are bit-equal.  A step's -K, Ks and
    Kn sqrt(dt) enter as 0-d views of per-run arrays (see _HALF).

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
    neg_k, ks_on = -k_arr, (ks_arr != 0.0).tolist()
    zeta = np.empty(phi.shape)
    zeta_rows, zeta_t = list(zeta), zeta.T
    state = phi = phi.T.copy()
    ops = _Operands(problem, coupling, omega, omega - omega_star, len(zeta))
    records = None
    rows = {}                       # recorded step -> its row of records
    if record_every:
        grid = _record_grid(n_steps, record_every)
        records = np.empty((len(grid),) + phi.shape)
        records[0] = phi
        rows = dict(zip(grid.tolist(), records))
        records = records.transpose(0, 2, 1)
    with np.errstate(invalid="ignore", over="ignore"):
        for k in range(n_steps):
            ks = ks_arr[k, ...] if ks_on[k] else None
            d = _step_drift(ops, phi, neg_k[k, ...], ks)
            for rng, row in zip(rngs, zeta_rows):
                rng.standard_normal(out=row)
            # phi + d*dt + (Kn*sqrt(dt))*zeta, rounded the same way, into
            nxt = rows.get(k + 1, state)    # step k + 1's record row or the state
            np.multiply(d, dt_0d, d)
            np.add(phi, d, nxt)
            np.multiply(zeta, noise[k, ...], zeta)
            np.add(nxt, zeta_t, nxt)
            phi = nxt
    np.copyto(zeta, phi.T)
    bad = np.argwhere(~np.isfinite(records)) if record_every else ()
    if len(bad):
        r, _, i = bad[0]
        raise IntegrationError(f"non-finite phase at index {i} (t={grid[r] * dt:g})")
    return zeta, records


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

