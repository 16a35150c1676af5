"""The package imports numpy, and no part of scipy that needs importing:
the sparse kernel comes from scipy's compiled _sparsetools file alone."""
import importlib
import importlib.machinery
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import oscising
from oscising import dynamics

PROBE = """
import sys
import numpy as np
import oscising
from oscising.coupling import by_name, smoothed_square
from oscising.dynamics import OscillatorBank
from oscising.genadler import PeriodicSignal, lock_equilibria
from oscising.graphs import random_graph
from oscising.harness import AblationVariant, boltzmann_check, run_trials
from oscising.ising import IsingProblem, maxcut_to_ising
from oscising.lyapunov import energy_total_batch
from oscising.schedule import baseline_schedule
loaded = lambda: sorted(m for m in sys.modules if m.startswith(
    ("scipy.sparse", "scipy.interpolate", "scipy.optimize")))
print(loaded())
smoothed_square(4.0).antiderivative([-1.0, 0.5, 30.0])
lock_equilibria(PeriodicSignal.from_function(lambda x: -np.sin(x)), 0.1)
g = random_graph(6, 60, "unit", seed=1)
p = maxcut_to_ising(g)
for kind in ("baseline", "sine_coupling"):
    run_trials(p, AblationVariant(kind), baseline_schedule(0.1), 2, 1, graph=g)
energy_total_batch(p, by_name("sqsmooth"), OscillatorBank.uniform(p.n), np.zeros(p.n), 1.0, 1.0)
pair = IsingProblem.from_couplings(2, {(0, 1): 1.0})
boltzmann_check(pair, by_name("sine"), 1.0, 0.5, 0.5, 20, 1, grid=8)
print(loaded())
"""


def fresh_python(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this
    checkout's package."""
    src = str(Path(oscising.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_package_loads_no_sparse_interpolate_or_optimize():
    """A fresh interpreter: import oscising, build a smoothed square,
    evaluate its G, find lock roots, run trials with each coupling kind,
    evaluate an energy and run a Boltzmann check; no module of
    scipy.sparse, scipy.interpolate or scipy.optimize is ever loaded."""
    assert fresh_python(PROBE).split("\n") == ["[]", "[]", ""]


def numpy_submodules_after(statement: str) -> set[str]:
    """The modules of numpy.random, numpy.fft and numpy.linalg loaded in a
    fresh interpreter after statement."""
    return set(fresh_python(f"""import sys
{statement}
print(*(m for m in sys.modules if m.startswith(("numpy.random", "numpy.fft", "numpy.linalg"))))
""").split())


def test_numpy_submodule_probe_sees_an_import():
    assert "numpy.fft" in numpy_submodules_after("import numpy.fft")


@pytest.mark.parametrize("module", ["oscising", "oscising.cli"])
def test_import_loads_no_numpy_submodule_beyond_numpy_s_own(module):
    """Importing the package or its CLI loads none of numpy.random, numpy.fft
    and numpy.linalg that `import numpy` alone does not: each costs memory
    and import time, and a run loads what it uses when it uses it.  numpy's
    own set is the reference because older numpy imports them eagerly."""
    assert numpy_submodules_after(f"import {module}") <= numpy_submodules_after("import numpy")


def test_kernel_loader_names_the_path_it_searched(monkeypatch):
    """With no extension file under scipy/sparse, loading csr_matvecs raises
    ImportError naming the path it searched; there is no other path."""
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    with pytest.raises(ImportError, match=r"sparse[/\\]_sparsetools\.\*"):
        dynamics._load_csr_matvecs()


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(oscising.__path__)))
def test_every_name_in_all_exists(name):
    """A stale __all__ entry breaks `from oscising.<module> import *`."""
    module = importlib.import_module(f"oscising.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
