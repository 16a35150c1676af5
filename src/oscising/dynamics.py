"""Phase dynamics of the coupled-oscillator network and its SDE integrator.

The drift of oscillator i is

    dphi_i/dt = (w_i - 1) + w_i * ( -K * sum_{j != i} J_ij g(phi_i - phi_j)
                                    -K * h_i * g(phi_i)
                                    -Ks * g(2 phi_i) )

with g = f(sin) the coupling function, which also shapes the locking term;
frequencies are in units of w* = 1 and time in units of 1/w*.  A step needs
only s = sin phi and c = cos phi, from one half-angle tangent:

    t = tan(phi / 2),  u = 2 / (1 + t^2),  s = t u,  c = u - 1,

so sin(phi_i - phi_j) = s_i c_j - c_i s_j, g(phi_i) = f(s_i) and
g(2 phi_i) = f(2 s_i c_i).  For sine the coupling sum is s_i (J c)_i -
c_i (J s)_i, one sparse product of diag(J, J) with [s | c].

The trials step in blocks of w whose (n, w) float64 arrays fit
STEP_BLOCK_BYTES, each on a node-major workspace (_Operands); within a
block a step allocates one array, numpy's iterator buffer for the add of
the transposed noise, besides 0-d views and the schedule of STEP_CHUNK
steps.  A run of several blocks on c usable CPUs splits them into
contiguous ranges of ceil(blocks / c) blocks, each stepped in order on its
own thread and workspace over the run's shared read-only operands, so its
workspace memory is one block per range; with one range no thread starts.
Noise enters as phi' = phi + drift*dt + Kn*sqrt(dt)*N(0, 1), on the
streams harness._run states.  Samples leave a run through one seam:
_integrate writes sampled steps into a block's bounded buffer and hands
them, checked finite, to a sink, which is called under a lock.  Phases are
kept unwrapped.
"""
from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coupling import CouplingFunction
from .ising import CSR, EDGE_TILE, IsingProblem, _incidence
from .schedule import Schedule

__all__ = [
    "IntegrationError",
    "OscillatorBank",
    "Trajectory",
    "drift",
    "trajectory_to_csv",
]

STEP_BLOCK_BYTES = 256 * 1024   # bytes of one (n, w) array of a block of w trials
STEP_CHUNK = 1024               # steps per evaluation of the schedule
SAMPLE_BYTES = 16 * 1024        # bytes of a block's sample buffer past its first row


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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else os.cpu_count(), else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
        if not np.isfinite(w).all():
            raise ValueError("frequencies must be finite")
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


def _block_diagonal(matrix: CSR) -> CSR:
    """diag(matrix, matrix) of a square CSR matrix: row i + n holds row i's
    entries in stored order, columns shifted by n, so each output entry of
    its product makes the additions of matrix @ x on its own half."""
    n, p, i, d = matrix.shape[0], matrix.indptr, matrix.indices, matrix.data
    return CSR((2 * n, 2 * n), np.concatenate([p, p[1:] + p[-1]]),
               np.concatenate([i, i + n]), np.concatenate([d, d]))


class _Operands:
    """One run's drift-kernel workspace for blocks of w trials: (n, w)
    layers of one flat buffer, phi (the block's phases), d (the drift, into
    which the coupling sum is written), tmp (also the (w, n) noise), sc =
    [s | c], jsc = [js | jc] (sine), then the constants h (self terms),
    omega and wdelta = omega - omega_star, bound to each block by load;
    workspace() gives another, for each further thread's range of blocks,
    over the same read-only operands.  A given omega, (n,) or (B, n), takes
    the omega pass; omega None means every omega = w* = 1, and the drift
    skips the pass, which would only turn -0.0 into +0.0.  Sine: csr_matvecs
    adds diag(J, J) sc, seen as (2n, w), into jsc.  Smoothed square: tiles
    holds per edge tile writable copies of its edge indices (np.take copies
    a read-only index array on every call), three (tile, w) views of one
    edge buffer and the csr_matvecs arguments of the tile's columns of S,
    built from its slice of the edge arrays by ising._incidence.
    perfbench/layertrace.py's bytes model reads the whole S as .incidence.
    """

    def __init__(self, problem: IsingProblem, coupling: CouplingFunction,
                 omega: np.ndarray | None, omega_star: float, batch: int):
        n = problem.n
        self.problem, self.coupling = problem, coupling
        # the fewest equal blocks whose (n, w) float64 arrays fit STEP_BLOCK_BYTES
        self.width = -(-batch // (-(-8 * n * batch // STEP_BLOCK_BYTES) or 1)) or 1
        self.sine, self.has_h = coupling.kind == "sine", problem.has_self_terms
        self.has_omega = omega is not None
        consts = [problem.h] * self.has_h + ([omega, omega - omega_star]
                                             if self.has_omega else [])
        # (B, k, n): the k constants of each trial, copied into each block
        self.rows = np.broadcast_to(np.stack(np.broadcast_arrays(*consts), -2)
                                    if consts else np.empty((0, n)), (batch, len(consts), n))
        self.layers = 5 + 2 * self.sine + len(consts)
        self.nodes = np.empty(self.layers * n * self.width)
        if self.sine:
            self.matrix = _block_diagonal(problem.adjacency)
        else:
            # tiles of at least n edges (more entries than row pointers) and one,
            # whose three (tile, w) edge arrays fit STEP_BLOCK_BYTES; the first is the widest
            edges = max(n, 1, min(EDGE_TILE, STEP_BLOCK_BYTES // (24 * self.width)))
            self.edge_tiles = []
            for a in range(0, max(problem.m, 1), edges):    # one empty tile when m = 0
                i, j, jval = (e[a:a + edges] for e in (problem.i, problem.j, problem.jval))
                self.edge_tiles.append((i.copy(), j.copy(), _incidence(n, i, j, jval)))
            self.edges = np.empty((3, len(self.edge_tiles[0][0]) * self.width))
        self._bind(self.width)

    def workspace(self) -> "_Operands":
        """Another workspace of this run: its own nodes and edges buffers
        over the same read-only operands (matrix, edge tiles, rows)."""
        other = copy.copy(self)
        other.nodes = np.empty_like(self.nodes)
        if not self.sine:
            other.edges = np.empty_like(self.edges)
        other._bind(self.width)
        return other

    def _bind(self, w: int) -> None:
        """Views of w trials at the start of each buffer."""
        n = self.problem.n
        layer = self.nodes[:self.layers * n * w].reshape(self.layers, n, w)
        self.phi, self.d, self.tmp = layer[:3]
        self.noise = self.tmp.reshape(w, n)     # drawn after the drift is done
        self.s, self.c = self.sc = layer[3:5]
        self.consts = layer[5 + 2 * self.sine:]
        self.h = self.consts[0] if self.has_h else None
        self.omega, self.wdelta = self.consts[-2:] if self.has_omega else (None, None)
        if self.sine:
            self.js, self.jc = self.jsc = layer[5:7]
            self.args = _product_args(self.matrix, self.sc.reshape(2 * n, w),
                                      self.jsc.reshape(2 * n, w))
        else:
            self.tiles = []
            for i, j, tile in self.edge_tiles:
                x, y, z = (e[:len(i) * w].reshape(len(i), w) for e in self.edges)
                self.tiles.append((i, j, x, y, z, _product_args(tile, x, self.d)))

    def load(self, phi: np.ndarray, lo: int) -> int:
        """Bind the workspace to the block of rows lo:hi of the (B, n)
        phases phi, loading its phases and constants; returns hi."""
        hi = min(lo + self.width, len(phi))
        if hi - lo != self.phi.shape[1]:
            self._bind(hi - lo)
        np.copyto(self.consts, self.rows[lo:hi].transpose(1, 2, 0))
        np.copyto(self.phi, phi[lo:hi].T)
        return hi

    @property
    def incidence(self):
        return self.problem.incidence


def _coupling_sum(ops: _Operands, coupling: CouplingFunction,
                  sc: np.ndarray) -> np.ndarray:
    """sum_{j != i} J_ij g(phi_i - phi_j), g = f(sin), per node and trial of
    a block, into ops.d, which is returned, allocating nothing.  sc must be
    ops.sc = [sin phi, cos phi], the memory the products are bound to (an
    argument for perfbench/layertrace.py).  Sine: f is linear, so the sum is
    s_i (J c)_i - c_i (J s)_i, from jsc by two multiplies in place and a
    subtract.  Smoothed square: per edge tile, in ascending order, np.take
    gathers s_i c_j - c_i s_j (mode="clip": numpy buffers out= under "raise",
    and _check_edges keeps indices in [0, n)), f applies in place and
    csr_matvecs adds S's tile columns times it into the zeroed d: a tile
    holds each row's entries columns ascending, as S does, so the ascending
    tiles make the additions of S x.  The kernel, the one `matrix @ x` runs
    (_product_args), sums each column in the same order at every width, so
    a trial's sum depends neither on the trials beside it nor on its block.
    """
    if sc is not ops.sc:
        raise ValueError("sc must be ops.sc, the block the products are bound to")
    if coupling.kind == "sine":
        ops.jsc.fill(0.0)
        csr_matvecs(*ops.args)
        np.multiply(ops.s, ops.jc, ops.jc)
        np.multiply(ops.c, ops.js, ops.js)
        return np.subtract(ops.jc, ops.js, ops.d)
    ops.d.fill(0.0)
    for i, j, x, y, z, args in ops.tiles:
        np.take(ops.s, i, axis=0, out=x, mode="clip")
        np.take(ops.c, j, axis=0, out=y, mode="clip")
        x *= y
        np.take(ops.c, i, axis=0, out=y, mode="clip")
        np.take(ops.s, j, axis=0, out=z, mode="clip")
        y *= z
        x -= y
        coupling.g_of_sin(x, out=x)
        csr_matvecs(*args)
    return ops.d


def _step_drift(ops: _Operands, phi: np.ndarray, neg_K, Ks) -> np.ndarray:
    """Unchecked drift of a block's (n, w) phases into ops.d, which is
    returned, given -K and Ks (None for Ks = 0) as _integrate's 0-d views: s
    and c from one half-angle evaluation feed the coupling sum, the self
    term f(s) and the SHIL term f(2 s c).  Adding (-K) h f(s) rounds as
    subtracting K h f(s): x (-K) is -(x K) and a + (-b) is a - b in IEEE."""
    coupling, s, c, d, tmp = ops.coupling, ops.s, ops.c, ops.d, ops.tmp
    _sin_cos(phi, s, c, tmp)
    np.multiply(_coupling_sum(ops, coupling, ops.sc), neg_K, d)
    if ops.h is not None:
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
    rows = phi.reshape(math.prod(phi.shape[:-1]), problem.n)
    ops = _Operands(problem, coupling, None if bank.is_uniform else bank.omega, 1.0,
                    len(rows))
    out = np.empty(rows.shape)
    for lo in range(0, len(rows), ops.width):
        hi = ops.load(rows, lo)
        out[lo:hi] = _step_drift(ops, ops.phi, -K, Ks if Ks != 0.0 else None).T
    return out.reshape(phi.shape)


def _n_steps(t_end: float, dt: float) -> int:
    """Fixed steps covering [0, t_end]: floor(t_end / dt), for 0 < dt <= t_end."""
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if t_end < dt:
        raise ValueError("t_end must be at least dt")
    return int(np.floor(t_end / dt + 1e-9))


def _flush(sink, lock, steps: np.ndarray, rows: np.ndarray, dt: float,
           lo: int, hi: int) -> None:
    """Hand a block's (k, n, w) sample rows and their steps to the sink,
    under lock, as read-only views (broadcast_to makes them so), or raise
    IntegrationError naming the first non-finite row in (k, w, n) order."""
    if not np.isfinite(rows).all():
        r, _, i = np.argwhere(~np.isfinite(rows.transpose(0, 2, 1)))[0]
        raise IntegrationError(f"non-finite phase at index {i} (t={steps[r] * dt:g})")
    with lock:
        sink(np.broadcast_to(steps, steps.shape), np.broadcast_to(rows, rows.shape), lo, hi)


def _integrate(problem: IsingProblem, coupling: CouplingFunction,
               omega: np.ndarray | None, omega_star: float,
               schedule: Schedule, dt: float, n_steps: int,
               phi: np.ndarray, rngs: list[np.random.Generator],
               every: int = 1, sink=None, threads: int | None = None) -> np.ndarray:
    """Shared fixed-step core; phi is (B, n) float64, omega (n,),
    per-trial (B, n) or None (uniform), one RNG stream per row.  Returns
    phi, overwritten with the finals.

    Per block of rows (_Operands.load), a step runs the drift of the
    block's (n, w) phases, then one standard_normal(n) per row b from
    rngs[b] alone into row b of the (w, n) noise buffer, then the Euler
    update, which adds the buffer's transpose.  Rows never mix, so batched,
    blocked, threaded and one-at-a-time runs are bit-equal.  A step's -K,
    Ks and Kn sqrt(dt) are 0-d views (see _HALF) of arrays evaluated per
    chunk of STEP_CHUNK steps.

    The thread rule: with k = ceil(blocks / threads), threads defaulting
    to _usable_cpus(), each of ceil(blocks / k) threads steps one
    contiguous range of k blocks, in order, on its own workspace
    (_Operands.workspace, made in the calling thread), so the workspace
    memory is one block per thread; with one range, the blocks step inline
    and no thread starts.  The ranges are consumed in order, so the error
    raised is the first failing block's, once every block before it has
    run, as in a serial run.  Every thread is joined before _integrate
    returns or raises.

    The sample seam: with a sink, steps 0, every, 2 every, ... and the last
    are sampled, a sampled step's update writing into the next row of the
    block's buffer of at most STEP_CHUNK // every rows and SAMPLE_BYTES
    (one row is the state itself).  Step 0, each full buffer and the last
    rows go to sink(steps, rows, lo, hi), rows (k, n, w), as read-only
    views valid during the call, once checked finite, one call at a time
    under a lock: IntegrationError names the first non-finite row's index
    and t, in the first block with one.  So memory does not grow with
    n_steps.  Without a sink nothing is checked: a non-finite row stays
    so, and the caller reads the finals.  omega_star (1.0 at every caller)
    sets wdelta; it stays as perfbench/layertrace.py wraps it.
    """
    ops = _Operands(problem, coupling, omega, omega_star, len(phi))
    starts = range(0, len(phi), ops.width)
    span = -(-len(starts) // (_usable_cpus() if threads is None else threads)) or 1
    ranges = [starts[a:a + span] for a in range(0, len(starts), span)]
    dt_0d, sqrt_dt, lock = np.array(dt), np.sqrt(dt), threading.Lock()
    # rows of a block's sample buffer, past step 0
    cap = max(1, min(-(-n_steps // every), STEP_CHUNK // every,
                     SAMPLE_BYTES // max(ops.phi.nbytes, 1)))

    def step_block(ops, lo):
        with np.errstate(invalid="ignore", over="ignore"):   # numpy's is per thread
            hi = ops.load(phi, lo)
            noise, noise_t, streams = ops.noise, ops.noise.T, list(zip(rngs[lo:hi], ops.noise))
            state = cur = ops.phi
            if sink:
                buf = state[None] if cap == 1 else np.empty((cap, *state.shape))
                steps, r = np.zeros(cap, np.int64), 0
                _flush(sink, lock, steps[:1], state[None], dt, lo, hi)
            for first in range(0, n_steps, STEP_CHUNK):
                k_arr, ks_arr, kn_arr = schedule.eval_arrays(
                    np.arange(first, min(first + STEP_CHUNK, n_steps)) * dt)
                neg_k, scale = -k_arr, kn_arr * sqrt_dt
                for k, ks_on in enumerate((ks_arr != 0.0).tolist()):
                    d = _step_drift(ops, cur, neg_k[k, ...], ks_arr[k, ...] if ks_on else None)
                    for rng, row in streams:
                        rng.standard_normal(out=row)
                    # cur + d*dt + (Kn*sqrt(dt))*noise into the state or a sample row
                    step = first + k + 1
                    sampled = sink and (step % every == 0 or step == n_steps)
                    nxt = buf[r] if sampled else state
                    np.multiply(d, dt_0d, d)
                    np.add(cur, d, nxt)
                    np.multiply(noise, scale[k, ...], noise)
                    np.add(nxt, noise_t, nxt)
                    cur = nxt
                    if sampled:
                        steps[r], r = step, r + 1
                        if r == cap or step == n_steps:
                            _flush(sink, lock, steps[:r], buf[:r], dt, lo, hi)
                            r = 0
            phi[lo:hi] = cur.T

    def step_range(ops, blocks):
        for lo in blocks:
            step_block(ops, lo)

    if len(ranges) <= 1:
        step_range(ops, starts)
    else:
        spaces = [ops] + [ops.workspace() for _ in ranges[1:]]
        with ThreadPoolExecutor(len(ranges)) as pool:
            list(pool.map(step_range, spaces, ranges))
    return phi


def _spins_batch(phi: np.ndarray) -> np.ndarray:
    return np.where(np.cos(phi) >= 0.0, 1.0, -1.0)


def trajectory_to_csv(traj: Trajectory, energy: np.ndarray, path) -> None:
    """CSV columns: t, phi_0..phi_{n-1}, K, Ks, Kn and E = energy (17 digits)."""
    n = traj.n
    header = ",".join(["t"] + [f"phi_{k}" for k in range(n)] + ["K", "Ks", "Kn", "E"])
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for k in range(traj.n_samples):
            cells = [traj.t[k], *traj.phi[k], *traj.controls[k], energy[k]]
            f.write(",".join(f"{c:.17g}" for c in cells) + "\n")

