import itertools

import numpy as np
import pytest

from oscising.coloring import (ColoringInstance, coloring_to_ising,
                               decode_coloring, parse_adjacency_pairs,
                               us_states_instance)
from helpers import coupling_dict
from oscising.graphs import WeightedGraph, random_graph
from oscising.ising import IsingProblem, brute_force_ground_state, hamiltonian


def direct_penalty(instance, s):
    """The sum-of-squares penalty evaluated without any expansion."""
    k = instance.n_colors
    g = instance.graph
    tot = 0.0
    for v in range(g.n):
        tot += (float(k - 2) + s[v * k:(v + 1) * k].sum()) ** 2
    for u, v, _ in zip(g.i, g.j, g.w):
        for c in range(k):
            tot += (1 + s[u * k + c]) * (1 + s[v * k + c])
    return tot


def all_configs(nbits):
    codes = np.arange(2 ** nbits)[:, None]
    return 1.0 - 2.0 * ((codes >> np.arange(nbits)) & 1)


def test_single_vertex_expansion():
    inst = ColoringInstance(WeightedGraph.from_edges(1, []), n_colors=4)
    p = coloring_to_ising(inst)
    assert p.n == 4
    assert p.constant_offset == 8.0
    assert np.all(p.h == -4.0)
    assert coupling_dict(p) == {pair: -2.0 for pair in
                                 itertools.combinations(range(4), 2)}


def test_single_edge_increments():
    lone = coloring_to_ising(ColoringInstance(WeightedGraph.from_edges(2, []), 4))
    wired = coloring_to_ising(ColoringInstance(
        WeightedGraph.from_edges(2, [(0, 1, 1.0)]), 4))
    assert wired.constant_offset - lone.constant_offset == 4.0
    assert np.all(wired.h - lone.h == -1.0)
    dj = {k: coupling_dict(wired)[k] - coupling_dict(lone).get(k, 0.0)
          for k in coupling_dict(wired)}
    cross = {k: v for k, v in dj.items() if v != 0.0}
    assert cross == {(c, 4 + c): -1.0 for c in range(4)}


def accumulated_encoding(instance):
    """The penalty expansion summed term by term into a coupling dict and
    handed to from_couplings."""
    g, k = instance.graph, instance.n_colors
    h = np.zeros(instance.n_spins)
    offset = 0.0
    couplings = {}
    for v in range(g.n):
        for c1, c2 in itertools.combinations(range(k), 2):
            key = (v * k + c1, v * k + c2)
            couplings[key] = couplings.get(key, 0.0) - 2.0
        h[v * k:(v + 1) * k] -= 2.0 * (k - 2)
        offset += float((k - 2) ** 2 + k)
    for u, v in zip(g.i.tolist(), g.j.tolist()):
        for c in range(k):
            key = (u * k + c, v * k + c)
            couplings[key] = couplings.get(key, 0.0) - 1.0
            h[u * k + c] -= 1.0
            h[v * k + c] -= 1.0
        offset += float(k)
    return IsingProblem.from_couplings(instance.n_spins, couplings, h=h,
                                       constant_offset=offset)


@pytest.mark.parametrize("instance", [
    *(us_states_instance(k) for k in (2, 3, 4, 5)),
    ColoringInstance(random_graph(40, 15, "unit", seed=4), 3),
    ColoringInstance(WeightedGraph.from_edges(3, [(2, 0, 1.0)]), 2),
], ids=["us2", "us3", "us4", "us5", "random40", "isolated"])
def test_encoder_equals_the_accumulated_expansion(instance):
    """The array encoder stores exactly what accumulating every term into a
    dict and from_couplings store: the same pairs in the same order, and
    bit-equal values, h and offset."""
    new, old = coloring_to_ising(instance), accumulated_encoding(instance)
    for name in ("i", "j", "jval", "h"):
        a, b = getattr(new, name), getattr(old, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert new.constant_offset == old.constant_offset


@pytest.mark.parametrize("n_colors", [2.5, 4.0, "4", None, 1])
def test_color_count_must_be_an_integer(n_colors):
    """n_colors = 2.5 was accepted and reported 7.5 spins for 3 vertices."""
    with pytest.raises(ValueError, match=f"n_colors must be an integer >= 2, got {n_colors!r}"):
        ColoringInstance(WeightedGraph.from_edges(3, []), n_colors=n_colors)


@pytest.mark.parametrize("edges,k", [
    ([], 4),
    ([(0, 1, 1.0)], 4),
    ([(0, 1, 1.0), (1, 2, 1.0)], 2),
    ([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 3),
])
def test_encoder_matches_direct_penalty_exhaustively(edges, k):
    n = max((max(i, j) for i, j, _ in edges), default=0) + 1
    inst = ColoringInstance(WeightedGraph.from_edges(n, edges), n_colors=k)
    p = coloring_to_ising(inst)
    for s in all_configs(n * k):
        assert hamiltonian(p, s) == pytest.approx(direct_penalty(inst, s), abs=1e-12)


@pytest.mark.parametrize("edges,k", [
    ([(0, 1, 1.0)], 2),
    ([(0, 1, 1.0), (1, 2, 1.0)], 2),
])
def test_valid_iff_hamiltonian_zero(edges, k):
    n = max(max(i, j) for i, j, _ in edges) + 1
    inst = ColoringInstance(WeightedGraph.from_edges(n, edges), n_colors=k)
    p = coloring_to_ising(inst)
    for s in all_configs(n * k):
        assert decode_coloring(inst, s).valid == (hamiltonian(p, s) == 0.0)


def test_decode_reports_ambiguous_vertices():
    inst = ColoringInstance(WeightedGraph.from_edges(2, [(0, 1, 1.0)]), 4)
    s = -np.ones(8)
    s[0] = s[1] = 1.0   # vertex 0 has two +1 spins
    s[5] = 1.0          # vertex 1 decodes to colour 1
    a = decode_coloring(inst, s)
    assert not a.valid
    assert a.bad_vertices == (0,)
    assert a.colors[0] == -1 and a.colors[1] == 1


def test_decode_reports_conflicts():
    inst = ColoringInstance(WeightedGraph.from_edges(2, [(0, 1, 1.0)]), 4)
    s = -np.ones(8)
    s[2] = 1.0
    s[4 + 2] = 1.0      # both vertices take colour 2
    a = decode_coloring(inst, s)
    assert not a.valid
    assert a.conflict_edges == ((0, 1),)


def test_us_states_instance_counts():
    inst = us_states_instance(4)
    assert inst.graph.n == 51
    assert inst.graph.m == 110          # 220 directed adjacency entries
    assert inst.n_spins == 204
    assert len(inst.labels) == 51
    deg = inst.graph.degrees()
    by_label = dict(zip(inst.labels, deg))
    assert by_label["AK"] == 1 and by_label["HI"] == 1   # paired islands
    assert by_label["MO"] == 8 and by_label["TN"] == 8


def test_us_states_file_lists_both_directions():
    from importlib import resources
    text = resources.files("oscising.data").joinpath(
        "us_states_adjacency.txt").read_text()
    pairs = [tuple(line.split()) for line in text.splitlines()
             if line.strip() and not line.startswith("#")]
    assert len(pairs) == 220
    assert len(set(pairs)) == 220
    assert all((b, a) in set(pairs) for a, b in pairs)


def test_valid_us_coloring_has_zero_hamiltonian():
    inst = us_states_instance(4)
    p = coloring_to_ising(inst)
    # greedy colouring of the map; planar + AK-HI always fits in 4 colours
    adj = [[] for _ in range(51)]
    for a, b, _ in zip(inst.graph.i, inst.graph.j, inst.graph.w):
        adj[a].append(b)
        adj[b].append(a)
    order = np.argsort([-len(a) for a in adj])
    colors = -np.ones(51, dtype=int)
    for v in order:
        used = {colors[u] for u in adj[v]}
        colors[v] = next(c for c in range(4) if c not in used)
    s = -np.ones(204)
    for v in range(51):
        s[v * 4 + colors[v]] = 1.0
    a = decode_coloring(inst, s)
    assert a.valid
    assert hamiltonian(p, s) == 0.0


def test_nevada_odd_wheel_has_no_3_coloring():
    """The negative control of the US map's colouring: Nevada and its five
    neighbours form an odd wheel (10 borders), so the exact ground state of
    its 3-colour encoding (18 spins) is one conflicting border, H = 4."""
    us = us_states_instance(3)
    keep = ("NV", "CA", "OR", "ID", "UT", "AZ")
    at = {us.labels.index(state): k for k, state in enumerate(keep)}
    edges = [(at[a], at[b], 1.0) for a, b, _ in us.graph.edges() if a in at and b in at]
    wheel = ColoringInstance(WeightedGraph.from_edges(6, edges), 3, keep)
    assert wheel.graph.m == 10
    spins, h = brute_force_ground_state(coloring_to_ising(wheel))
    assert h == 4.0
    assert not decode_coloring(wheel, spins).valid


def test_parse_adjacency_rejects_self_pairs():
    with pytest.raises(Exception):
        parse_adjacency_pairs("AA AA\n")
