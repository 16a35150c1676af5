"""Weighted graphs, G-set file I/O and seeded random instances.

Graphs are immutable: edges are stored canonically as parallel numpy
arrays (i, j, w) with i < j, no self loops and no duplicate pairs.
_check_edges is the one validator of that edge list; ising.IsingProblem
stores its couplings the same way and calls it too.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "GraphFormatError",
    "WeightedGraph",
    "parse_gset",
    "serialize_gset",
    "load_gset",
    "random_graph",
]

WEIGHT_MODES = ("unit", "pm_one", "uniform_range")


class GraphFormatError(ValueError):
    """Raised for malformed graph files or inconsistent edge lists."""


def _check_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray,
                 label: str) -> None:
    """Raise GraphFormatError unless i and j are one-dimensional integer
    numpy arrays and the weights w (called label in messages) an integer or
    float one, of equal lengths, w is finite, every index lies in [0, n),
    i < j and no pair appears twice; then make the three arrays read-only."""
    for name, a, kinds, what in (("i", i, "iu", "an integer"),
                                 ("j", j, "iu", "an integer"), (label, w, "iuf", "a real")):
        if not (isinstance(a, np.ndarray) and a.dtype.kind in kinds):
            got = getattr(a, "dtype", type(a).__name__)
            raise GraphFormatError(f"{name} must be {what} array, got {got}")
        if a.ndim != 1:
            raise GraphFormatError(f"{name} must be one-dimensional, got shape {a.shape}")
    if not len(i) == len(j) == len(w):
        raise GraphFormatError(f"i, j and {label} must have equal lengths, got "
                               f"{len(i)}, {len(j)} and {len(w)}")
    if not np.isfinite(w).all():
        raise GraphFormatError(f"{label} must be finite")
    for name, idx in (("i", i), ("j", j)):
        if len(idx) and (idx.min() < 0 or idx.max() >= n):
            raise GraphFormatError(f"{name} holds an index outside [0, n={n})")
    if not (i < j).all():
        raise GraphFormatError("edges must be stored with i < j")
    # int64 keys: in int32, i * n + j wraps once n exceeds 46,340
    key = np.sort(i.astype(np.int64) * n + j)
    dup = key[1:][key[1:] == key[:-1]]
    if len(dup):
        a, b = divmod(int(dup[0]), n)
        raise GraphFormatError(f"duplicate pair ({a}, {b})")
    for a in (i, j, w):
        a.setflags(write=False)


def _canonical_edges(edges: Iterable[tuple[int, int, float]]) -> tuple:
    """(a, b, w) triples as int64 i, int64 j and float64 w arrays with i < j,
    in the order given; a self loop raises GraphFormatError."""
    ii, jj, ww = [], [], []
    for a, b, wt in edges:
        if a == b:
            raise GraphFormatError(f"self loop at vertex {a}")
        ii.append(min(a, b))
        jj.append(max(a, b))
        ww.append(float(wt))
    return (np.asarray(ii, dtype=np.int64), np.asarray(jj, dtype=np.int64),
            np.asarray(ww, dtype=np.float64))


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph with canonical edge storage (i < j)."""

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.n < 0:
            raise GraphFormatError(f"negative vertex count {self.n}")
        _check_edges(self.n, self.i, self.j, self.w, "w")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                   name: str = "") -> "WeightedGraph":
        """Build a graph from (i, j, w) triples, canonicalizing i < j."""
        ii, jj, ww = _canonical_edges(edges)
        return cls(n=n, i=ii, j=jj, w=ww, name=name)

    @property
    def m(self) -> int:
        return len(self.i)

    @cached_property
    def total_weight(self) -> float:
        """Sum of all edge weights."""
        return float(self.w.sum())

    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.i.tolist(), self.j.tolist(), self.w.tolist()))

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.i, 1)
        np.add.at(deg, self.j, 1)
        return deg


def parse_gset(text: str, name: str = "") -> WeightedGraph:
    """Parse the plain-text benchmark format: "n m" header then m lines "i j w".

    Vertex indices in the file are 1-based; they are converted to 0-based
    and edges are canonicalized to i < j.  LF and CRLF are both accepted.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("missing 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError(f"bad header values n={n} m={m}")
    body = tokens[2:]
    if len(body) != 3 * m:
        raise GraphFormatError(
            f"expected {m} edges ({3 * m} fields), found {len(body)} fields")
    seen: set[tuple[int, int]] = set()
    ii = np.empty(m, dtype=np.int64)
    jj = np.empty(m, dtype=np.int64)
    ww = np.empty(m, dtype=np.float64)
    for e in range(m):
        a_s, b_s, w_s = body[3 * e:3 * e + 3]
        try:
            a, b, wt = int(a_s), int(b_s), float(w_s)
        except ValueError as exc:
            raise GraphFormatError(f"bad edge line {e + 1}: {exc}") from exc
        if a == b:
            raise GraphFormatError(f"self loop at vertex {a} (edge {e + 1})")
        if not (1 <= a <= n and 1 <= b <= n):
            raise GraphFormatError(
                f"vertex index out of [1, {n}] in edge {e + 1}: ({a}, {b})")
        lo, hi = (a - 1, b - 1) if a < b else (b - 1, a - 1)
        if (lo, hi) in seen:
            raise GraphFormatError(f"duplicate edge ({a}, {b})")
        seen.add((lo, hi))
        ii[e], jj[e], ww[e] = lo, hi, wt
    return WeightedGraph(n=n, i=ii, j=jj, w=ww, name=name)


def serialize_gset(graph: WeightedGraph) -> str:
    """Inverse of parse_gset on canonical graphs (1-based indices, LF)."""
    lines = [f"{graph.n} {graph.m}"]
    for a, b, wt in graph.edges():
        wtf = int(wt) if float(wt).is_integer() else wt
        lines.append(f"{a + 1} {b + 1} {wtf}")
    return "\n".join(lines) + "\n"


def load_gset(path) -> WeightedGraph:
    from pathlib import Path
    p = Path(path)
    return parse_gset(p.read_text(encoding="utf-8"), name=p.stem)


def cubic_ring_graph(n: int = 8, weight: float = 1.0) -> WeightedGraph:
    """Ring of n vertices plus opposite-vertex chords: every degree is 3.

    The unit-weight size-8 instance is the standard small MAX-CUT example
    (best cut 10; the even/odd split only reaches 8).
    """
    if n < 4 or n % 2:
        raise ValueError("need an even n >= 4")
    edges = [(k, (k + 1) % n, weight) for k in range(n)]
    edges += [(k, k + n // 2, weight) for k in range(n // 2)]
    return WeightedGraph.from_edges(n, edges, name=f"cubic_ring_{n}")


def random_graph(n: int, density_percent: float, weight_mode: str = "unit",
                 seed: int = 0, name: str = "") -> WeightedGraph:
    """Seeded Erdos-Renyi graph: each of the n(n-1)/2 pairs is kept with
    probability density_percent/100.

    Deterministic for a fixed seed (Philox counter-based generator).
    Weights: "unit" -> 1, "pm_one" -> random sign, "uniform_range" ->
    uniform over [-1, 1).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 < density_percent <= 100:
        raise ValueError(f"density_percent must be in (0, 100], got {density_percent}")
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    iu, ju = np.triu_indices(n, k=1)
    p = density_percent / 100.0
    keep = np.ones(len(iu), dtype=bool) if p >= 1.0 else rng.random(len(iu)) < p
    ii, jj = iu[keep], ju[keep]
    m = len(ii)
    if weight_mode == "unit":
        ww = np.ones(m)
    elif weight_mode == "pm_one":
        ww = rng.integers(0, 2, size=m) * 2.0 - 1.0
    else:
        ww = rng.uniform(-1.0, 1.0, size=m)
    if not name:
        name = f"random_n{n}_d{density_percent:g}_{weight_mode}_s{seed}"
    return WeightedGraph(n=n, i=ii.astype(np.int64), j=jj.astype(np.int64),
                         w=ww.astype(np.float64), name=name)
