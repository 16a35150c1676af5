"""Small instances, views and comparisons that only the tests use."""
import numpy as np
from scipy import sparse

from oscising.graphs import WeightedGraph
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
