"""Small instances, views and comparisons that only the tests use."""
import numpy as np
from scipy import sparse

from oscising.graphs import WeightedGraph, random_graph
from oscising.ising import IsingProblem


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


def uniform_random_graph(n: int, density_percent: float, seed: int) -> WeightedGraph:
    """random_graph's seeded edges with float weights uniform over [-1, 1),
    drawn from a stream of their own."""
    g = random_graph(n, density_percent, "unit", seed=seed)
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, size=g.m)
    return WeightedGraph(n=g.n, i=g.i, j=g.j, w=w, name=f"{g.name}_uniform")


def gset_text(graph: WeightedGraph) -> str:
    """G-set text of a graph: "n m", then "i j w" per edge, 1-based."""
    rows = [f"{a + 1} {b + 1} {w!r}" for a, b, w in graph.edges()]
    return "\n".join([f"{graph.n} {graph.m}", *rows]) + "\n"


def all_spin_configs(n: int) -> np.ndarray:
    """All 2^n spin rows, row k holding -1 at the set bits of k."""
    codes = np.arange(2 ** n)[:, None]
    return 1.0 - 2.0 * ((codes >> np.arange(n)) & 1)


def coupling_dict(problem: IsingProblem) -> dict[tuple[int, int], float]:
    """The couplings as a {(i, j): J} map, i < j."""
    return dict(zip(zip(problem.i.tolist(), problem.j.tolist()), problem.jval.tolist()))


def scipy_csr(matrix) -> sparse.csr_matrix:
    """A scipy matrix over the arrays of an ising.CSR, as an oracle for `@`,
    slicing and dense views."""
    return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                             shape=matrix.shape)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN equals NaN."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def recorder(n_steps: int, every: int, batch: int, n: int):
    """A sample-seam sink and the (S, B, n) records it fills: steps 0,
    every, 2 every, ... and n_steps.  It checks the seam's contract on each
    call: read-only views, (k, n, w) rows for the block's trials, and each
    sample of each trial delivered once."""
    grid = sorted({*range(0, n_steps + 1, every), n_steps})
    records = np.full((len(grid), batch, n), np.nan)

    def sink(steps, rows, lo, hi):
        assert not (steps.flags.writeable or rows.flags.writeable)
        assert rows.shape == (len(steps), n, hi - lo)
        at = [grid.index(s) for s in steps.tolist()]
        assert np.isnan(records[at, lo:hi]).all()
        records[at, lo:hi] = rows.transpose(0, 2, 1)

    return records, sink
