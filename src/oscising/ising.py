"""Ising problems: H = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i + offset.

Couplings are sparse and symmetric, stored once per pair with i < j.
The constant offset carries terms dropped by problem encoders so that
encoded Hamiltonians are exact, not merely equal up to a constant.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .graphs import WeightedGraph

__all__ = [
    "IsingProblem",
    "SpinConfig",
    "maxcut_to_ising",
    "hamiltonian",
    "cut_value",
    "cut_batch",
    "brute_force_ground_state",
    "problem_to_json",
    "problem_from_json",
]

BRUTE_FORCE_MAX_N = 24
BRUTE_FORCE_CHUNK = 1 << 18     # spin configurations scored per pass


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
        h = np.asarray(self.h, dtype=np.float64)
        if h.shape != (self.n,):
            raise ValueError(f"h must have length n={self.n}, got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("h must be finite")
        if not np.isfinite(self.constant_offset):
            raise ValueError("constant_offset must be finite")
        if len(self.i) and not (self.i < self.j).all():
            raise ValueError("couplings must be stored with i < j")
        if len(self.i) != len(set(zip(self.i.tolist(), self.j.tolist()))):
            raise ValueError("duplicate coupling pair")
        for a in (self.i, self.j, self.jval, h):
            a.setflags(write=False)
        object.__setattr__(self, "h", h)

    @classmethod
    def from_couplings(cls, n: int, couplings: dict[tuple[int, int], float],
                       h=None, constant_offset: float = 0.0,
                       name: str = "") -> "IsingProblem":
        """Build from a {(i, j): J} map; (i, j) and (j, i) refer to the same pair."""
        canon: dict[tuple[int, int], float] = {}
        for (a, b), v in couplings.items():
            if a == b:
                raise ValueError(f"diagonal coupling at {a}")
            key = (a, b) if a < b else (b, a)
            if key in canon:
                raise ValueError(f"pair {key} given twice")
            canon[key] = float(v)
        keys = sorted(canon)
        ii = np.array([k[0] for k in keys], dtype=np.int64)
        jj = np.array([k[1] for k in keys], dtype=np.int64)
        vv = np.array([canon[k] for k in keys], dtype=np.float64)
        hv = np.zeros(n) if h is None else np.asarray(h, dtype=np.float64)
        return cls(n=n, i=ii, j=jj, jval=vv, h=hv,
                   constant_offset=constant_offset, name=name)

    @property
    def m(self) -> int:
        return len(self.i)

    def coupling_dict(self) -> dict[tuple[int, int], float]:
        return dict(zip(zip(self.i.tolist(), self.j.tolist()), self.jval.tolist()))

    @cached_property
    def incidence(self) -> sparse.csr_matrix:
        """Signed coupling incidence S (n x m): S[i_e, e] = +J_e, S[j_e, e] = -J_e.

        For an odd coupling g, (S @ g(phi[i_e] - phi[j_e]))_k equals
        sum_{l != k} J_kl g(phi_k - phi_l).
        """
        m = self.m
        rows = np.concatenate([self.i, self.j])
        cols = np.concatenate([np.arange(m), np.arange(m)])
        vals = np.concatenate([self.jval, -self.jval])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, m))

    @cached_property
    def has_self_terms(self) -> bool:
        return bool(np.any(self.h != 0.0))


def maxcut_to_ising(graph: WeightedGraph) -> IsingProblem:
    """MAX-CUT encoding: J_ij = -w_ij, no self terms, no offset."""
    return IsingProblem(n=graph.n, i=graph.i, j=graph.j,
                        jval=(-graph.w).copy(), h=np.zeros(graph.n),
                        constant_offset=0.0, name=graph.name)


def _spin_vector(spins, n: int) -> np.ndarray:
    s = spins.s if isinstance(spins, SpinConfig) else np.asarray(spins, dtype=np.float64)
    if s.shape[-1] != n:
        raise ValueError(f"spin vector has length {s.shape[-1]}, problem has n={n}")
    return s


def _row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis in index order.  numpy's sum and matmul group the
    additions by array shape, so a row alone and in a batch could differ."""
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1]


def hamiltonian(problem: IsingProblem, spins) -> float:
    """Evaluate H = -sum_{i<j} J_ij s_i s_j - sum_i h_i s_i + constant_offset."""
    return float(hamiltonian_batch(problem, spins))


def hamiltonian_batch(problem: IsingProblem, spins) -> np.ndarray:
    """hamiltonian() over rows of an (batch, n) array of spins."""
    s = _spin_vector(spins, problem.n)
    pair = _row_sum(s[..., problem.i] * s[..., problem.j] * problem.jval)
    return -pair - _row_sum(s * problem.h) + problem.constant_offset


def cut_value(graph: WeightedGraph, spins) -> float:
    """Total weight of edges whose endpoints carry opposite spins.

    Satisfies 2*cut + H = total_weight for H of the MAX-CUT encoding.
    """
    return float(cut_batch(graph, spins))


def cut_batch(graph: WeightedGraph, spins) -> np.ndarray:
    """cut_value() over rows of an (batch, n) array of spins."""
    s = _spin_vector(spins, graph.n)
    crossing = s[..., graph.i] * s[..., graph.j] < 0
    return _row_sum(crossing * graph.w)


def brute_force_ground_state(problem: IsingProblem) -> tuple[SpinConfig, float]:
    """Exhaustive minimum of H over all 2^n spin configurations.

    When h = 0 the spin-flip symmetry H(s) = H(-s) is exploited by fixing
    s_0 = +1, halving the search.  Refuses n > 24.
    """
    n = problem.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 0:
        return SpinConfig(np.zeros(0)), problem.constant_offset
    fix_first = not problem.has_self_terms
    nbits = n - 1 if fix_first else n
    total = 1 << nbits
    best_h = np.inf
    best_code = 0
    for start in range(0, total, BRUTE_FORCE_CHUNK):
        codes = np.arange(start, min(start + BRUTE_FORCE_CHUNK, total),
                          dtype=np.uint64)
        energy = np.full(len(codes), problem.constant_offset)
        # bit b of the code holds spin (b + 1) when s_0 is pinned to +1
        off = 1 if fix_first else 0
        for e in range(problem.m):
            a, b, jv = int(problem.i[e]), int(problem.j[e]), problem.jval[e]
            xa = np.zeros(len(codes), dtype=np.uint64) if (fix_first and a == 0) \
                else (codes >> np.uint64(a - off))
            xb = codes >> np.uint64(b - off)
            prod = 1.0 - 2.0 * ((xa ^ xb) & np.uint64(1)).astype(np.float64)
            energy -= jv * prod
        if problem.has_self_terms:
            for k in range(n):
                bit = ((codes >> np.uint64(k)) & np.uint64(1)).astype(np.float64)
                energy -= problem.h[k] * (1.0 - 2.0 * bit)
        idx = int(np.argmin(energy))
        if energy[idx] < best_h:
            best_h = float(energy[idx])
            best_code = int(codes[idx])
    bits = [(best_code >> b) & 1 for b in range(nbits)]
    if fix_first:
        bits = [0] + bits
    s = 1.0 - 2.0 * np.array(bits, dtype=np.float64)
    return SpinConfig(s), best_h


def problem_to_json(problem: IsingProblem) -> str:
    """JSON schema: {"n", "name", "constant_offset", "h", "couplings": [[i, j, J]]}."""
    doc = {
        "n": problem.n,
        "name": problem.name,
        "constant_offset": problem.constant_offset,
        "h": problem.h.tolist(),
        "couplings": [[int(a), int(b), float(v)] for a, b, v
                      in zip(problem.i, problem.j, problem.jval)],
    }
    return json.dumps(doc)


def problem_from_json(text: str) -> IsingProblem:
    doc = json.loads(text)
    couplings = {(int(a), int(b)): float(v) for a, b, v in doc["couplings"]}
    return IsingProblem.from_couplings(
        n=int(doc["n"]), couplings=couplings, h=np.asarray(doc["h"], dtype=np.float64),
        constant_offset=float(doc.get("constant_offset", 0.0)),
        name=doc.get("name", ""))
