"""Weighted graphs, G-set file I/O and seeded random instances.

Graphs are immutable.  _check_edges holds the edge-list rules of WeightedGraph
and ising.IsingProblem and returns the form both store: an integer n, read-only
int64 i < j in the order given, no pair twice (reported 0-based, as "duplicate
pair (i, j)") and read-only float64 weights; readers and encoders build arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "GraphFormatError",
    "WeightedGraph",
    "parse_gset",
    "load_gset",
    "random_graph",
]

WEIGHT_MODES = ("unit", "pm_one")
PAIR_BLOCK = 1 << 16    # random_graph draws per block of pairs


class GraphFormatError(ValueError):
    """Raised for malformed graph files or inconsistent edge lists."""


def _check_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray,
                 label: str) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Return (n, i, j, w) in canonical form, or raise GraphFormatError
    unless n is a non-negative integer, i and j one-dimensional integer
    numpy arrays and the weights w (called label in messages) an integer or
    float one, of equal lengths, w is finite, every index lies in [0, n),
    i < j and no pair appears twice."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise GraphFormatError(f"n must be a non-negative integer, got {n!r}")
    n = int(n)
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
    # negated uint8 weights wrap (-1 is 255), int32 keys i * n + j past n = 46,340
    i = i.astype(np.int64, copy=False)
    j = j.astype(np.int64, copy=False)
    w = w.astype(np.float64, copy=False)
    key = np.sort(i * n + j)
    dup = key[1:][key[1:] == key[:-1]]
    if len(dup):
        a, b = divmod(int(dup[0]), n)
        raise GraphFormatError(f"duplicate pair ({a}, {b})")
    for a in (i, j, w):
        a.setflags(write=False)
    return n, i, j, w


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
        for name, value in zip(("n", "i", "j", "w"),
                               _check_edges(self.n, self.i, self.j, self.w, "w")):
            object.__setattr__(self, name, value)

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
        return np.bincount(np.concatenate([self.i, self.j]), minlength=self.n)


def parse_gset(text: str, name: str = "") -> WeightedGraph:
    """Parse the plain-text benchmark format: "n m" header then m lines "i j w".

    Vertex indices in the file are 1-based; they are converted to 0-based
    and each pair to i < j, in the file's order.  LF and CRLF are both
    accepted.  The file's own rules (header, field count, number syntax,
    1-based range, self loops) name the edge line; the rest are WeightedGraph's.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise GraphFormatError("missing 'n m' header")
    try:
        n, m = np.array(tokens[:2], dtype=np.int64).tolist()
    except (ValueError, OverflowError) as exc:
        raise GraphFormatError(f"bad header: {exc}") from exc
    if n < 0 or m < 0:
        raise GraphFormatError(f"bad header values n={n} m={m}")
    body = tokens[2:]
    if len(body) != 3 * m:
        raise GraphFormatError(
            f"expected {m} edges ({3 * m} fields), found {len(body)} fields")
    try:
        a = np.array(body[0::3], dtype=np.int64)
        b = np.array(body[1::3], dtype=np.int64)
        w = np.array(body[2::3], dtype=np.float64)
    except (ValueError, OverflowError):
        for e in range(m):      # the first bad line, for the message
            try:
                np.array(body[3 * e:3 * e + 2], dtype=np.int64)
                float(body[3 * e + 2])
            except (ValueError, OverflowError) as exc:
                raise GraphFormatError(f"bad edge line {e + 1}: {exc}") from exc
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    bad = np.flatnonzero((lo == hi) | (lo < 1) | (hi > n))
    if len(bad):
        e = int(bad[0])
        if a[e] == b[e]:
            raise GraphFormatError(f"self loop at vertex {a[e]} (edge {e + 1})")
        raise GraphFormatError(
            f"vertex index out of [1, {n}] in edge {e + 1}: ({a[e]}, {b[e]})")
    return WeightedGraph(n=n, i=lo - 1, j=hi - 1, w=w, name=name)


def load_gset(path) -> WeightedGraph:
    from pathlib import Path
    p = Path(path)
    return parse_gset(p.read_text(encoding="utf-8"), name=p.stem)


def _kept_pairs(n: int, p: float, rng: np.random.Generator) -> tuple:
    """(i, j) of the pairs i < j, in row-major order, whose draw
    rng.random() is below p (all pairs, and no draws, when p >= 1).

    The draws are compared as raw words.  rng.random() is (w >> 11) * 2**-53
    of the bit generator's next 64-bit word w, and scaling by a power of two
    is exact, so the draw is below p iff the integer w >> 11 is below
    p * 2**53, iff it is below q = ceil(p * 2**53), iff w < q << 11.  As
    p < 1, q <= 2**53 - 1 and the bound fits in a uint64.  random_raw takes
    one word per pair as random() does, so the stream, and every draw after
    it, is the same.  The words come PAIR_BLOCK at a time; chunked draws
    continue one stream, so the pairs are those of one draw over all
    n(n-1)/2, without an array of every pair."""
    length = np.arange(n - 1, 0, -1)        # row r holds (r, r+1), ..., (r, n-1)
    end = np.cumsum(length)
    pairs = n * (n - 1) // 2
    if p >= 1.0:
        kept = np.arange(pairs)
    else:
        bound = np.uint64(math.ceil(p * 2.0 ** 53) << 11)
        raw = rng.bit_generator.random_raw
        kept = np.concatenate([
            np.flatnonzero(raw(min(PAIR_BLOCK, pairs - lo)) < bound) + lo
            for lo in range(0, pairs, PAIR_BLOCK)])
    row = np.searchsorted(end, kept, side="right")
    return row, kept - (end[row] - length[row]) + row + 1


def _need_int(name: str, value, lo: int) -> None:
    """Raise ValueError naming `name` unless value is an integer >= lo."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"need {name} >= {lo}, got {value}")


def random_graph(n: int, density_percent: float, weight_mode: str = "unit",
                 seed: int = 0, name: str = "") -> WeightedGraph:
    """Seeded Erdos-Renyi graph: each of the n(n-1)/2 pairs is kept with
    probability density_percent/100.

    Deterministic for a fixed seed (Philox counter-based generator).
    Weights: "unit" -> 1, "pm_one" -> random sign.
    """
    _need_int("n", n, 2)
    _need_int("seed", seed, 0)
    if not 0 < density_percent <= 100:
        raise ValueError(f"density_percent must be in (0, 100], got {density_percent}")
    if weight_mode not in WEIGHT_MODES:
        raise ValueError(f"unknown weight_mode {weight_mode!r}; expected one of {WEIGHT_MODES}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    ii, jj = _kept_pairs(n, density_percent / 100.0, rng)
    m = len(ii)
    if weight_mode == "unit":
        ww = np.ones(m)
    else:
        ww = rng.integers(0, 2, size=m) * 2.0 - 1.0
    if not name:
        name = f"random_n{n}_d{density_percent:g}_{weight_mode}_s{seed}"
    return WeightedGraph(n=n, i=ii, j=jj, w=ww, name=name)
