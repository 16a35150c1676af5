"""The package imports numpy and scipy.sparse, and no other part of scipy."""
import os
import subprocess
import sys
from pathlib import Path

import oscising

PROBE = """
import sys
import numpy as np
import oscising
from oscising.coupling import smoothed_square
from oscising.genadler import PeriodicSignal, lock_equilibria
loaded = lambda: sorted(m for m in ("scipy.interpolate", "scipy.optimize") if m in sys.modules)
print(loaded())
smoothed_square(4.0).antiderivative([-1.0, 0.5, 30.0])
lock_equilibria(PeriodicSignal.from_function(lambda x: -np.sin(x)), 0.1)
print(loaded())
"""


def test_package_loads_neither_interpolate_nor_optimize():
    """A fresh interpreter: import oscising, build a smoothed square, evaluate
    its G and find lock roots; neither scipy.interpolate nor scipy.optimize
    is ever loaded."""
    src = str(Path(oscising.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", ""]
