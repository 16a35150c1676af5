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
        if not isinstance(self.n_colors, (int, np.integer)) or self.n_colors < 2:
            raise ValueError(f"n_colors must be an integer >= 2, got {self.n_colors!r}")
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
    -= 1, h -= 1 on both spins, offset += 1.  Nothing accumulates and nothing
    is swapped: a vertex's pairs lie inside it and an edge's join u < v, so no
    pair gets two terms.  Spin (v, c) gets h = -2(k-2) - degree(v), and the
    pairs are sorted as from_couplings sorts them.
    """
    g = instance.graph
    k = instance.n_colors
    c1, c2 = np.triu_indices(k, k=1)
    colors = np.arange(k)
    base = np.arange(g.n)[:, None] * k
    ii = np.concatenate([(base + c1).ravel(), (g.i[:, None] * k + colors).ravel()])
    jj = np.concatenate([(base + c2).ravel(), (g.j[:, None] * k + colors).ravel()])
    jval = np.repeat([-2.0, -1.0], [g.n * len(c1), g.m * k])
    order = np.lexsort((jj, ii))
    h = np.repeat(-2 * (k - 2) - g.degrees(), k).astype(np.float64)
    offset = float(g.n * ((k - 2) ** 2 + k) + g.m * k)
    return IsingProblem(n=instance.n_spins, i=ii[order], j=jj[order],
                        jval=jval[order], h=h, constant_offset=offset,
                        name=f"{g.name or 'graph'}_coloring{k}")


def decode_coloring(instance: ColoringInstance, spins) -> ColorAssignment:
    """Assign colour c to vertex v iff spin(v, c) is the unique +1 spin.

    valid is True iff every vertex decodes unambiguously and no edge joins
    equal colours; this coincides with the encoded Hamiltonian being 0.
    """
    s = spins.s if isinstance(spins, SpinConfig) else np.asarray(spins, dtype=np.float64)
    if len(s) != instance.n_spins:
        raise ValueError(f"expected {instance.n_spins} spins, got {len(s)}")
    g = instance.graph
    up = s.reshape(g.n, instance.n_colors) > 0
    counts = up.sum(axis=1)
    colors = np.where(counts == 1, np.argmax(up, axis=1), -1)
    bad = tuple(int(v) for v in np.nonzero(counts != 1)[0])
    clash = (colors[g.i] >= 0) & (colors[g.i] == colors[g.j])
    conflicts = tuple(zip(g.i[clash].tolist(), g.j[clash].tolist()))
    return ColorAssignment(colors=colors, valid=not bad and not conflicts,
                           bad_vertices=bad, conflict_edges=conflicts)


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
