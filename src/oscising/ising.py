"""Ising problems: H = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i + offset.

Couplings are sparse and symmetric, stored once per pair with i < j in the
canonical form that the one edge-list validator, graphs._check_edges, returns.
The constant offset carries terms dropped by problem encoders so that
encoded Hamiltonians are exact, not merely equal up to a constant.

The per-edge sums over rows of spins or phases (the readout's H and cut,
the Lyapunov coupling term) run through _edge_sum, tile by tile in edge
order: no (rows, m) array is built, and a row's sum does not depend on the
tile size or on the rows beside it.  The coupling matrices J and S, and
the column tiles of S that the smoothed-square step reads (_incidence of a
slice of the edges), are plain CSR arrays from one numpy builder, _csr; no
scipy.sparse object is made.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import WeightedGraph, _canonical_edges, _check_edges

__all__ = [
    "IsingProblem",
    "SpinConfig",
    "maxcut_to_ising",
    "hamiltonian",
    "cut_value",
    "cut_batch",
    "brute_force_ground_state",
]

BRUTE_FORCE_MAX_N = 24
BRUTE_FORCE_CHUNK = 1 << 10     # configurations scored per pass: 16 KiB of _edge_sum per edge
EDGE_TILE = 1024                # edges per tile of an edge sum or coupling block: fits L2
CSR_TAGGED_MIN = 512            # entries from which _csr's tagged sort beats one lexsort

# a sparse matrix in compressed sparse row arrays, the ones csr_matvecs reads
CSR = namedtuple("CSR", "shape indptr indices data")


def _csr(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
         vals: np.ndarray) -> CSR:
    """The entries vals at int64 (rows, cols), no position twice, stored as
    scipy's csr_matrix((vals, (rows, cols)), shape): rows in order, each
    row's columns ascending, and int32 indices unless a size reaches 2**31.

    That order is the one of the unique keys row * ncols + col, and
    np.lexsort of (cols, rows) gives it.  From CSR_TAGGED_MIN entries up,
    sorting the position-tagged keys key << b | position, with
    2**b > len(vals), gives it faster: it sorts the keys and carries each
    position in the low b bits, and numpy sorts int64 values faster than it
    argsorts or lexsorts them (about 0.3 against 0.66 and 1.5 ms at G1's
    38,212 entries, numpy 2.4 on an AVX-512 Xeon).  Below that, or when a
    tagged key could pass 2**63 - 1 (n * ncols << b > 2**63), the one
    lexsort call is used."""
    n, k = shape
    size = len(vals)
    idx = np.int32 if max(n, k, size) < 2 ** 31 else np.int64
    b = size.bit_length()
    if size >= CSR_TAGGED_MIN and n * k << b <= 2 ** 63:
        order = rows * k        # in place from here: one array of keys
        order += cols
        order <<= b
        order |= np.arange(size)
        order.sort()
        order &= (1 << b) - 1
    else:
        order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=idx)
    indptr[1:] = np.bincount(rows, minlength=n).cumsum()
    return CSR(shape, indptr, cols[order].astype(idx), vals[order])


def _incidence(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> CSR:
    """The n x len(i) signed incidence of the edges (i_e, j_e) of weights
    w_e: +w_e at (i_e, e), -w_e at (j_e, e).  Over the slice [a, b) of a
    problem's edge arrays it is the column slice S[:, a:b] of its incidence,
    stored as scipy stores that slice."""
    edges = np.arange(len(i))
    return _csr((n, len(i)), np.concatenate([i, j]), np.concatenate([edges, edges]),
                np.concatenate([w, -w]))


@dataclass(frozen=True)
class SpinConfig:
    """A vector of spins, each exactly -1 or +1."""

    s: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"spins must be a vector, got shape {s.shape}")
        if not np.isin(s, (-1.0, 1.0)).all():
            raise ValueError("spin values must be exactly -1 or +1")
        s.setflags(write=False)
        object.__setattr__(self, "s", s)

    @property
    def n(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class IsingProblem:
    """Spin count, sparse symmetric couplings (i < j), self terms, offset."""

    n: int
    i: np.ndarray
    j: np.ndarray
    jval: np.ndarray
    h: np.ndarray
    constant_offset: float = 0.0
    name: str = ""

    def __post_init__(self):
        for name, value in zip(("n", "i", "j", "jval"),
                               _check_edges(self.n, self.i, self.j, self.jval, "jval")):
            object.__setattr__(self, name, value)
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must have length n={self.n}, got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("h must be finite")
        if not np.isfinite(self.constant_offset):
            raise ValueError("constant_offset must be finite")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_couplings(cls, n: int, couplings: dict[tuple[int, int], float],
                       h=None, constant_offset: float = 0.0,
                       name: str = "") -> "IsingProblem":
        """Build from a {(i, j): J} map; (i, j) and (j, i) refer to the same pair."""
        ii, jj, vv = _canonical_edges((a, b, v) for (a, b), v in couplings.items())
        order = np.lexsort((jj, ii))
        hv = np.zeros(n) if h is None else np.asarray(h, dtype=np.float64)
        return cls(n=n, i=ii[order], j=jj[order], jval=vv[order], h=hv,
                   constant_offset=constant_offset, name=name)

    @property
    def m(self) -> int:
        return len(self.i)

    @cached_property
    def incidence(self) -> CSR:
        """Signed coupling incidence S (n x m): S[i_e, e] = +J_e, S[j_e, e] = -J_e.

        For an odd coupling g, (S @ g(phi[i_e] - phi[j_e]))_k equals
        sum_{l != k} J_kl g(phi_k - phi_l).  The smoothed-square coupling
        sum reads it, with g(phi_i - phi_j) formed per edge as
        f(s_i c_j - c_i s_j) from per-node s = sin phi, c = cos phi.
        """
        return _incidence(self.n, self.i, self.j, self.jval)

    @cached_property
    def adjacency(self) -> CSR:
        """The symmetric coupling matrix J (n x n), both triangles stored.

        The sine coupling sum reads it: sum_l J_kl sin(phi_k - phi_l)
        = sin(phi_k) (J cos phi)_k - cos(phi_k) (J sin phi)_k.
        """
        return _csr((self.n, self.n), np.concatenate([self.i, self.j]),
                    np.concatenate([self.j, self.i]),
                    np.concatenate([self.jval, self.jval]))

    @cached_property
    def has_self_terms(self) -> bool:
        return bool(np.any(self.h != 0.0))


def maxcut_to_ising(graph: WeightedGraph) -> IsingProblem:
    """MAX-CUT encoding: J_ij = -w_ij, no self terms, no offset."""
    return IsingProblem(n=graph.n, i=graph.i, j=graph.j, jval=-graph.w,
                        h=np.zeros(graph.n), name=graph.name)


def _spin_vector(spins, n: int) -> np.ndarray:
    s = spins.s if isinstance(spins, SpinConfig) else np.asarray(spins, dtype=np.float64)
    if s.shape[-1] != n:
        raise ValueError(f"spin vector has length {s.shape[-1]}, problem has n={n}")
    return s


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order, one addition per element.
    numpy's sum and matmul group the additions by array shape, so a row
    alone and in a batch could differ; _edge_sum makes these same additions
    over edge terms without building them all."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def _edge_sum(i: np.ndarray, j: np.ndarray, w: np.ndarray, x: np.ndarray,
              term) -> np.ndarray:
    """sum_e w_e term(x_i, x_j) over the edges e = (i_e, j_e), per row of
    (..., n) x: bit for bit _row_sum(term(x[..., i], x[..., j]) * w), without
    its (rows, m) arrays.  term(a, b) gets (tile, rows) endpoint values,
    may overwrite them and returns the terms.

    Per tile of EDGE_TILE edges of a node-major copy of x: two np.take
    gathers into reused buffers (mode="clip", as in dynamics), the weighted
    terms, the previous tile's last row (the carry) added into the first,
    and cumsum down the tile.  Each row is a column summed alone in edge
    order, so neither the tile nor the batch size changes its sum.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = x.shape[:-1]
    xt = np.ascontiguousarray(x.reshape(math.prod(rows), x.shape[-1]).T)
    m = len(i)
    carry = np.zeros(xt.shape[1])
    a, b = np.empty((2, min(EDGE_TILE, m), xt.shape[1]))
    for lo in range(0, m, EDGE_TILE):
        hi = min(lo + EDGE_TILE, m)
        ta, tb = a[:hi - lo], b[:hi - lo]
        np.take(xt, i[lo:hi], axis=0, out=ta, mode="clip")
        np.take(xt, j[lo:hi], axis=0, out=tb, mode="clip")
        np.multiply(term(ta, tb), w[lo:hi, None], out=ta)
        if lo:      # the first row opens the sum: 0 + (-0.0) would lose its sign
            ta[0] += carry
        np.cumsum(ta, axis=0, out=ta)
        carry[...] = ta[-1]
    return carry.reshape(rows)


def _spin_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.multiply(a, b, out=a)


def _crossing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1.0 where the spins differ, else 0.0, as the bool s_i s_j < 0 weighs."""
    return np.less(np.multiply(a, b, out=a), 0.0, out=a)


def hamiltonian(problem: IsingProblem, spins) -> float:
    """Evaluate H = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i + constant_offset."""
    return float(hamiltonian_batch(problem, spins))


def hamiltonian_batch(problem: IsingProblem, spins) -> np.ndarray:
    """hamiltonian() over rows of an (batch, n) array of spins."""
    s = _spin_vector(spins, problem.n)
    pair = _edge_sum(problem.i, problem.j, problem.jval, s, _spin_product)
    return -pair - _row_sum(s * problem.h) + problem.constant_offset


def cut_value(graph: WeightedGraph, spins) -> float:
    """Total weight of edges whose endpoints carry opposite spins.

    Satisfies 2*cut + H = total_weight for H of the MAX-CUT encoding.
    """
    return float(cut_batch(graph, spins))


def cut_batch(graph: WeightedGraph, spins) -> np.ndarray:
    """cut_value() over rows of an (batch, n) array of spins."""
    s = _spin_vector(spins, graph.n)
    return _edge_sum(graph.i, graph.j, graph.w, s, _crossing)


def brute_force_ground_state(problem: IsingProblem) -> tuple[SpinConfig, float]:
    """Exhaustive minimum of H over all 2^n spin configurations, scored in
    chunks by hamiltonian_batch, so the returned H is hamiltonian() of the
    returned spins, bit for bit.

    When h = 0 the spin-flip symmetry H(s) = H(-s) is exploited by fixing
    s_0 = +1, halving the search.  Refuses n > 24.
    """
    n = problem.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    # bit k of a code is 1 where s_k = -1; with h = 0 the codes are even: s_0 = +1
    fixed = int(not problem.has_self_terms)
    total = 1 << max(n - fixed, 0)
    best_h, best = np.inf, np.ones(n)
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        codes = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total)) << fixed
        spins = 1.0 - 2.0 * ((codes[:, None] >> np.arange(n)) & 1)
        energy = hamiltonian_batch(problem, spins)
        idx = int(np.argmin(energy))
        if energy[idx] < best_h:
            best_h, best = float(energy[idx]), spins[idx].copy()
    return SpinConfig(best), best_h
