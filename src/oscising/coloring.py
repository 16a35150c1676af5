"""Graph colouring as an Ising problem over one-hot colour spins.

A vertex v with k colours gets spins spin(v, c) = v*k + c.  The penalty

    H = sum_v ((k - 2) + sum_c s_vc)^2
      + sum_{(u,v) edge} sum_c (1 + s_uc)(1 + s_vc)

is zero exactly when every vertex has one +1 colour spin and no edge joins
equal colours.  Expanding with s^2 = 1 gives the pair couplings, self terms
and constant offset stored on the returned IsingProblem.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .graphs import GraphFormatError, WeightedGraph
from .ising import IsingProblem, SpinConfig

__all__ = [
    "ColoringInstance",
    "ColorAssignment",
    "coloring_to_ising",
    "decode_coloring",
    "parse_adjacency_pairs",
    "us_states_instance",
]


@dataclass(frozen=True)
class ColoringInstance:
    """A graph (weights ignored) plus the number of colours."""

    graph: WeightedGraph
    n_colors: int = 4
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n_colors < 2:
            raise ValueError(f"need at least 2 colors, got {self.n_colors}")
        if self.labels and len(self.labels) != self.graph.n:
            raise ValueError("label count does not match vertex count")

    @property
    def n_spins(self) -> int:
        return self.graph.n * self.n_colors


@dataclass(frozen=True)
class ColorAssignment:
    """Decoded colours; -1 marks vertices without a unique +1 spin."""

    colors: np.ndarray
    valid: bool
    bad_vertices: tuple[int, ...] = ()
    conflict_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        c = np.asarray(self.colors, dtype=np.int64)
        c.setflags(write=False)
        object.__setattr__(self, "colors", c)

    def to_json_dict(self) -> dict:
        return {
            "colors": self.colors.tolist(),
            "valid": self.valid,
            "bad_vertices": list(self.bad_vertices),
            "conflict_edges": [list(e) for e in self.conflict_edges],
        }


def coloring_to_ising(instance: ColoringInstance) -> IsingProblem:
    """Expand the colouring penalty into J, h and constant_offset.

    Per vertex: J = -2 between every colour pair, h -= 2(k-2) on each spin,
    offset += (k-2)^2 + k.  Per edge and colour c: J(spin(u,c), spin(v,c))
    -= 1, h -= 1 on both spins, offset += 1.
    """
    g = instance.graph
    k = instance.n_colors
    n_spins = instance.n_spins
    h = np.zeros(n_spins)
    offset = 0.0
    couplings: dict[tuple[int, int], float] = {}

    for v in range(g.n):
        base = v * k
        for c1 in range(k):
            for c2 in range(c1 + 1, k):
                couplings[(base + c1, base + c2)] = couplings.get(
                    (base + c1, base + c2), 0.0) - 2.0
        h[base:base + k] -= 2.0 * (k - 2)
        offset += float((k - 2) ** 2 + k)

    for u, v, _w in zip(g.i.tolist(), g.j.tolist(), g.w.tolist()):
        for c in range(k):
            a, b = u * k + c, v * k + c
            key = (a, b) if a < b else (b, a)
            couplings[key] = couplings.get(key, 0.0) - 1.0
            h[a] -= 1.0
            h[b] -= 1.0
        offset += float(k)

    name = f"{g.name or 'graph'}_coloring{k}"
    return IsingProblem.from_couplings(n_spins, couplings, h=h,
                                       constant_offset=offset, name=name)


def decode_coloring(instance: ColoringInstance, spins) -> ColorAssignment:
    """Assign colour c to vertex v iff spin(v, c) is the unique +1 spin.

    valid is True iff every vertex decodes unambiguously and no edge joins
    equal colours; this coincides with the encoded Hamiltonian being 0.
    """
    s = spins.s if isinstance(spins, SpinConfig) else np.asarray(spins, dtype=np.float64)
    if len(s) != instance.n_spins:
        raise ValueError(f"expected {instance.n_spins} spins, got {len(s)}")
    k = instance.n_colors
    per_vertex = s.reshape(instance.graph.n, k)
    up = per_vertex > 0
    counts = up.sum(axis=1)
    colors = np.where(counts == 1, np.argmax(up, axis=1), -1)
    bad = tuple(int(v) for v in np.nonzero(counts != 1)[0])
    conflicts = []
    for u, v in zip(instance.graph.i.tolist(), instance.graph.j.tolist()):
        if colors[u] >= 0 and colors[u] == colors[v]:
            conflicts.append((u, v))
    valid = not bad and not conflicts
    return ColorAssignment(colors=colors, valid=valid, bad_vertices=bad,
                           conflict_edges=tuple(conflicts))


def parse_adjacency_pairs(text: str, name: str = "") -> tuple[WeightedGraph, tuple[str, ...]]:
    """Parse a labelled adjacency list, one "A B" pair per line.

    Lines may list each adjacency in both directions; duplicates collapse
    to a single undirected unit-weight edge.  '#' starts a comment.
    Returns the graph and the label order (first-appearance).
    """
    labels: dict[str, int] = {}
    pairs: set[tuple[int, int]] = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two labels per line, got {raw!r}")
        a, b = parts
        if a == b:
            raise GraphFormatError(f"self adjacency for {a!r}")
        for lab in (a, b):
            if lab not in labels:
                labels[lab] = len(labels)
        lo, hi = sorted((labels[a], labels[b]))
        pairs.add((lo, hi))
    edges = [(a, b, 1.0) for a, b in sorted(pairs)]
    graph = WeightedGraph.from_edges(len(labels), edges, name=name)
    return graph, tuple(labels)


def us_states_instance(n_colors: int = 4) -> ColoringInstance:
    """The packaged US map: 50 states plus DC, with AK and HI adjacent.

    220 adjacency entries (each border in both directions) collapse to 110
    undirected edges on 51 vertices.
    """
    text = resources.files("oscising.data").joinpath(
        "us_states_adjacency.txt").read_text(encoding="utf-8")
    graph, labels = parse_adjacency_pairs(text, name="us_states")
    return ColoringInstance(graph=graph, n_colors=n_colors, labels=labels)
