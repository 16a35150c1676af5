"""Per-layer timers and counters, installed from outside the package.

Tracer.installed() swaps wrappers in at the names the integrator and the
harness resolve at call time (dynamics._coupling_sum, CouplingFunction.g,
harness.make_rng, harness._integrate and the harness's readout and energy
helpers) and restores the originals on exit.  No file under src/ changes.

A span's time includes the timer calls of the spans nested inside it, so
the traced run is slower than an untraced one; bench.py reports the ratio as
bench.trace_overhead_frac.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from oscising import dynamics, harness
from oscising.coupling import CouplingFunction

_clock = time.perf_counter


class _TimedGenerator:
    """A Generator whose standard_normal draws are timed and counted."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        t0 = _clock()
        out = self._gen.standard_normal(*args, **kwargs)
        tr = self._tracer
        tr.time["dynamics.rng"] += _clock() - t0
        tr.count["dynamics.rng_calls"] += 1
        tr.count["bytes"] += out.nbytes
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """Accumulates seconds per span name in .time and counts in .count."""

    def __init__(self):
        self.time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._in_integrate = False
        self._in_edge_sum = False

    def reset(self):
        self.time.clear()
        self.count.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = _clock()
        try:
            yield
        finally:
            self.time[name] += _clock() - t0

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        orig_integrate = harness._integrate
        orig_sum = dynamics._coupling_sum
        orig_g = CouplingFunction.g
        orig_make_rng = harness.make_rng
        orig_spins = harness._spins_batch
        orig_hamiltonian = harness.hamiltonian_batch
        orig_energy = harness.energy_total_batch

        def integrate(problem, coupling, omega, omega_star, schedule, dt,
                      n_steps, phi, rngs, **kwargs):
            self._in_integrate = True
            t0 = _clock()
            try:
                return orig_integrate(problem, coupling, omega, omega_star,
                                      schedule, dt, n_steps, phi, rngs, **kwargs)
            finally:
                self.time["dynamics.integrate"] += _clock() - t0
                self.count["dynamics.trial_steps"] += phi.shape[0] * n_steps
                self._in_integrate = False

        def coupling_sum(problem, coupling, phi):
            self._in_edge_sum = True
            t0 = _clock()
            try:
                out = orig_sum(problem, coupling, phi)
            finally:
                self.time["dynamics.coupling_sum"] += _clock() - t0
                self._in_edge_sum = False
            s = problem.incidence
            self.count["bytes"] += (phi.nbytes + out.nbytes + s.data.nbytes
                                    + s.indices.nbytes + s.indptr.nbytes)
            return out

        def g(coupling, x):
            if not self._in_integrate:
                return orig_g(coupling, x)
            layer = "edge" if self._in_edge_sum else "node"
            t0 = _clock()
            out = orig_g(coupling, x)
            self.time[f"coupling.g_{layer}"] += _clock() - t0
            self.count[f"coupling.g_{layer}_evals"] += out.size
            self.count["bytes"] += 2 * out.nbytes
            return out

        def make_rng(seed):
            return _TimedGenerator(orig_make_rng(seed), self)

        harness._integrate = integrate
        dynamics._coupling_sum = coupling_sum
        CouplingFunction.g = g
        harness.make_rng = make_rng
        harness._spins_batch = self._timed("ising.readout", orig_spins)
        harness.hamiltonian_batch = self._timed("ising.readout", orig_hamiltonian)
        harness.energy_total_batch = self._timed("lyapunov.energy", orig_energy)
        try:
            yield self
        finally:
            harness._integrate = orig_integrate
            dynamics._coupling_sum = orig_sum
            CouplingFunction.g = orig_g
            harness.make_rng = orig_make_rng
            harness._spins_batch = orig_spins
            harness.hamiltonian_batch = orig_hamiltonian
            harness.energy_total_batch = orig_energy
