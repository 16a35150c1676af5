"""Benchmark body: set-up, trial units, output checks, metrics, provenance.

run.py is the command-line entry point; see README.md for the metrics.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from layertrace import Tracer
from oscising import (IsingProblem, coloring_to_ising, cut_value,
                      decode_coloring, hamiltonian, maxcut_to_ising,
                      random_graph, us_states_instance)
from oscising.coupling import by_name
from oscising.harness import (AblationVariant, boltzmann_check, run_trials,
                              trial_seed)
from oscising.schedule import baseline_schedule, constant_schedule
from workloads import INSTANCE_SEED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 5             # builds before the first unit; one more before each
REPEAT_TRIALS = 8          # trials re-run to check that results repeat

E2E_UNITS = {
    "setup_s": "s",
    "us_per_trial_step": "us",
    "success_frac": "fraction",
    "peak_rss_mb": "MiB",
}
LAYER_UNITS = {
    "graphs.generate_s": "s",
    "ising.encode_s": "s",
    "ising.incidence_s": "s",
    "coupling.construct_s": "s",
    "coupling.g_edge_s": "s",
    "coupling.g_edge_evals": "count",
    "dynamics.gather_spmm_s": "s",
    "coupling.g_node_s": "s",
    "coupling.g_node_evals": "count",
    "dynamics.rng_s": "s",
    "dynamics.rng_calls": "count",
    "dynamics.step_other_s": "s",
    "lyapunov.energy_s": "s",
    "dynamics.integrate_s": "s",
    "dynamics.trial_steps": "count",
    "ising.readout_s": "s",
    "coloring.decode_s": "s",
    "harness.overhead_s": "s",
    "bench.trace_overhead_frac": "fraction",
    "dynamics.computed_bytes_per_trial_step": "B",
}
SETUP_LAYERS = ("graphs.generate", "ising.encode", "ising.incidence",
                "coupling.construct")

_clock = time.perf_counter


# -- set-up ------------------------------------------------------------------

def build(spec):
    """Build the workload's inputs.  Returns (inputs, seconds per layer)."""
    graph = coloring = None
    t0 = _clock()
    if spec.kind == "maxcut":
        graph = random_graph(spec.n, spec.density_percent, "unit",
                             seed=INSTANCE_SEED)
    elif spec.kind == "coloring":
        coloring = us_states_instance(spec.colors)
    t1 = _clock()
    if graph is not None:
        problem = maxcut_to_ising(graph)
    elif coloring is not None:
        problem = coloring_to_ising(coloring)
    else:
        problem = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    t2 = _clock()
    problem.incidence
    t3 = _clock()
    coupling = by_name(spec.coupling)
    t4 = _clock()
    if spec.kind == "boltzmann":
        # the schedule boltzmann_check builds internally; kept for provenance
        schedule = constant_schedule(spec.duration * spec.dt, spec.K, spec.Ks,
                                     spec.Kn)
    else:
        schedule = baseline_schedule(spec.t_end)
    t5 = _clock()
    inputs = SimpleNamespace(graph=graph, coloring=coloring, problem=problem,
                             coupling=coupling, schedule=schedule)
    layers = dict(zip(SETUP_LAYERS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)))
    layers["total"] = t5 - t0
    return inputs, layers


def timed_setup(spec, samples: list, reps: int = 1):
    """Build `reps` times, appending each build's seconds per layer to samples.

    Set-up is timed again before every unit, so its samples spread over the
    whole run rather than one moment of a shared machine's load.  Returns
    the inputs of the last build.
    """
    for _ in range(reps):
        inputs, layers = build(spec)
        samples.append(layers)
    return inputs


def median_layers(samples: list) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- trials and output checks ------------------------------------------------

class Checks:
    """Named pass/fail results of the output checks."""

    def __init__(self):
        self.failures: list[str] = []
        self.n = 0

    def expect(self, ok: bool, what: str):
        self.n += 1
        if not ok:
            self.failures.append(what)


def run_unit(spec, inputs, seed, first, count):
    """Run trials [first, first + count): a TrialStats, or a BoltzmannReport
    for the one chain `first` of the boltzmann kind."""
    if spec.kind == "boltzmann":
        return boltzmann_check(inputs.problem, inputs.coupling, spec.Kn, spec.K,
                               spec.Ks, spec.duration, trial_seed(seed, first),
                               dt=spec.dt, grid=spec.grid)
    target = spec.target if spec.kind == "maxcut" else -spec.target
    return run_trials(inputs.problem, AblationVariant("baseline"),
                      inputs.schedule, count, seed, target=target,
                      graph=inputs.graph, coupling=inputs.coupling, dt=spec.dt,
                      batch_size=spec.batch, workers=1, trial_offset=first)


def successes(spec, result) -> tuple[int, int, int]:
    """(trials, trials at the target, non-finite trials) of one unit."""
    if spec.kind == "boltzmann":
        return 1, int(result.tv_distance <= spec.target), 0
    return result.n_trials, result.n_max, result.n_failed


def check_unit(spec, inputs, result, checks: Checks, tracer=None):
    """Output checks on one unit's result."""
    if spec.kind == "boltzmann":
        emp, ora = result.basin_probs_empirical, result.basin_probs_oracle
        checks.expect(abs(sum(emp.values()) - 1.0) <= 1e-9
                      and abs(sum(ora.values()) - 1.0) <= 1e-9,
                      "basin probabilities sum to 1")
        checks.expect(0.0 <= result.tv_distance <= 1.0, "0 <= tv_distance <= 1")
        checks.expect(abs(ora[(0, 0)] - ora[(1, 1)]) <= 1e-12
                      and abs(ora[(0, 1)] - ora[(1, 0)]) <= 1e-12,
                      "oracle is symmetric under a global flip")
        checks.expect(ora[(0, 0)] > ora[(0, 1)], "oracle prefers the aligned pair")
        return
    spins = result.best_spins
    h = hamiltonian(inputs.problem, spins)
    checks.expect(h == result.best_H, "H(best_spins) == best_H")
    if spec.kind == "maxcut":
        cut = cut_value(inputs.graph, spins)
        total = float(inputs.graph.w.sum())
        checks.expect(abs(2.0 * cut + h - total) <= 1e-9 * max(1.0, total),
                      "2*cut + H == total weight")
        checks.expect(cut == result.best_cut, "cut_value(best_spins) == best_cut")
    else:
        with tracer.span("coloring.decode") if tracer else nullcontext():
            assignment = decode_coloring(inputs.coloring, spins)
        checks.expect(assignment.valid == (h == 0.0),
                      "decode_coloring is valid exactly when H == 0")


def same_results(spec, a, b) -> bool:
    """Whether two runs of the same trials produced identical results."""
    if spec.kind == "boltzmann":
        return (a.tv_distance == b.tv_distance
                and a.basin_probs_empirical == b.basin_probs_empirical)
    k = min(a.n_trials, b.n_trials)
    return (np.array_equal(a.trial_H[:k], b.trial_H[:k])
            and np.array_equal(a.objectives()[:k], b.objectives()[:k]))


def unit_size(spec) -> int:
    return 1 if spec.kind == "boltzmann" else spec.batch


def objectives(spec, result):
    """Per-trial quality: cut (maxcut), -H (coloring), tv distance (boltzmann)."""
    if spec.kind == "boltzmann":
        return [result.tv_distance]
    return result.objectives().tolist()


# -- metrics -----------------------------------------------------------------

def tts99(t_trial: float, p: float, n: int) -> float:
    """Time to reach the target with 99% confidence (Hamerly et al. 2019).

    With no success the rate is taken as 0.5/n, an optimistic stand-in for
    a bound that would otherwise be infinite.
    """
    if p >= 0.99:
        return t_trial
    p = p if p > 0 else 0.5 / n
    return t_trial * math.log(0.01) / math.log(1.0 - p)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(spec, inputs, seed, seconds, checks, setup_samples):
    """Untraced run: the fixed quality set, then more units until `seconds`."""
    size = unit_size(spec)
    n_units = spec.trials // size
    walls, objs = [], []
    attempted = hits = failed = 0
    first = None
    start = _clock()
    k = 0
    while k < n_units or (_clock() - start + statistics.median(walls) <= seconds):
        timed_setup(spec, setup_samples)
        t0 = _clock()
        result = run_unit(spec, inputs, seed, k * size, size)
        walls.append(_clock() - t0)
        n, ok, bad = successes(spec, result)
        attempted += n
        failed += bad
        check_unit(spec, inputs, result, checks)
        if k < n_units:
            hits += ok
            objs.extend(objectives(spec, result))
        if first is None:
            first = result
        k += 1
    # the first trials again, as one smaller batch: results must repeat exactly
    again = run_unit(spec, inputs, seed, 0, min(REPEAT_TRIALS, size))
    attempted += min(REPEAT_TRIALS, size)
    checks.expect(same_results(spec, first, again),
                  "results repeat exactly at a fixed seed")
    steps = spec.steps
    # The fastest unit is the least disturbed by other load on a shared
    # machine; over runs it varied less than the median (README.md).
    t_trial = min(walls) / size
    p = hits / (n_units * size)
    metrics = {
        "us_per_trial_step": 1e6 * t_trial / steps,
        "success_frac": p,
        "peak_rss_mb": peak_rss_mib(),
    }
    per_step = 1e6 * np.array(walls) / (size * steps)
    quality = {"tts99_s": tts99(t_trial, p, n_units * size),
               "quality_trials": n_units * size, "timed_units": len(walls),
               "trial_s": t_trial,
               "us_per_trial_step_median": float(np.median(per_step))}
    if spec.kind == "boltzmann":
        quality["tv_distance"] = float(np.median(objs))
        quality["best_tv_distance"] = float(np.min(objs))
    else:
        quality["median_objective"] = float(np.median(objs))
        quality["best_objective"] = float(np.max(objs))
    # the highest percentile with at least ten samples beyond it
    for q in (99, 95, 90):
        if len(walls) * (100 - q) >= 1000:
            quality[f"us_per_trial_step_p{q}"] = float(np.percentile(per_step, q))
            break
    return metrics, quality, attempted, failed


def measure_layers(spec, inputs, seed, seconds, checks, setup_samples):
    """Traced run: pairs of identical untraced and traced units."""
    size = unit_size(spec)
    tracer = Tracer()
    reps, counts, overhead = [], [], []
    start = _clock()
    attempted = failed = 0
    while not reps or _clock() - start + 2 * plain_wall <= seconds:
        timed_setup(spec, setup_samples)
        t0 = _clock()
        plain = run_unit(spec, inputs, seed, 0, size)
        plain_wall = _clock() - t0
        tracer.reset()
        with tracer.installed():
            t0 = _clock()
            traced = run_unit(spec, inputs, seed, 0, size)
            wall = _clock() - t0
            check_unit(spec, inputs, traced, checks, tracer)
        checks.expect(same_results(spec, plain, traced),
                      "tracing does not change results")
        for r in (plain, traced):
            n, _, bad = successes(spec, r)
            attempted += n
            failed += bad
        t, c = tracer.time, tracer.count
        steps = c["dynamics.trial_steps"]
        reps.append({
            "coupling.g_edge_s": t["coupling.g_edge"],
            "dynamics.gather_spmm_s": t["dynamics.coupling_sum"] - t["coupling.g_edge"],
            "coupling.g_node_s": t["coupling.g_node"],
            "dynamics.rng_s": t["dynamics.rng"],
            "dynamics.step_other_s": (t["dynamics.integrate"]
                                      - t["dynamics.coupling_sum"]
                                      - t["coupling.g_node"] - t["dynamics.rng"]),
            "lyapunov.energy_s": t["lyapunov.energy"],
            "dynamics.integrate_s": t["dynamics.integrate"],
            "ising.readout_s": t["ising.readout"],
            "coloring.decode_s": t["coloring.decode"],
            "harness.overhead_s": (wall - t["dynamics.integrate"]
                                   - t["ising.readout"] - t["lyapunov.energy"]),
        })
        counts.append({
            "coupling.g_edge_evals": c["coupling.g_edge_evals"],
            "coupling.g_node_evals": c["coupling.g_node_evals"],
            "dynamics.rng_calls": c["dynamics.rng_calls"],
            "dynamics.trial_steps": steps,
            "dynamics.computed_bytes_per_trial_step": c["bytes"] / steps,
        })
        overhead.append(wall / plain_wall - 1.0)
    checks.expect(all(c == counts[0] for c in counts),
                  "layer counts repeat exactly")
    layers = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    layers.update(counts[0])
    layers["bench.trace_overhead_frac"] = statistics.median(overhead)
    return layers, len(reps), attempted, failed


# -- provenance --------------------------------------------------------------

def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def git_commit() -> str:
    try:
        # the ceiling stops git from reporting an enclosing repository
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def provenance(spec, inputs, seed) -> dict:
    p = inputs.problem
    src_files = sorted(f for f in (SRC / "oscising").rglob("*")
                       if f.is_file() and "__pycache__" not in f.parts)
    return {
        "workload": spec.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": _sha256(*(f.read_bytes() for f in src_files)),
        "instance": {"name": p.name, "n": p.n, "m": p.m,
                     "edge_sha256": _sha256(p.i.tobytes(), p.j.tobytes(),
                                            p.jval.tobytes(), p.h.tobytes())},
        "schedule_sha256": _sha256(inputs.schedule.to_json().encode()),
        "coupling": spec.coupling,
        "dt": spec.dt,
        "steps_per_trial": spec.steps,
        "batch": unit_size(spec),
        "quality_trials": spec.trials,
        "target": spec.target,
    }


# -- entry point -------------------------------------------------------------

def run(spec, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload.  Returns the result object and the report lines."""
    setup_samples: list = []
    inputs = timed_setup(spec, setup_samples, SETUP_REPS)
    checks = Checks()
    lines = ["provenance " + json.dumps(provenance(spec, inputs, seed))]
    if trace:
        layers, n_reps, attempted, failed = measure_layers(
            spec, inputs, seed, seconds, checks, setup_samples)
        setup = median_layers(setup_samples)
        for name in SETUP_LAYERS:
            layers[name + "_s"] = setup[name]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_UNITS.items()}
        lines.append(f"traced units: {n_reps} (per-layer times are seconds per "
                     f"unit of {unit_size(spec)} trial(s), median)")
    else:
        e2e, quality, attempted, failed = measure(spec, inputs, seed, seconds,
                                                  checks, setup_samples)
        e2e["setup_s"] = median_layers(setup_samples)["total"]
        quality["setup_builds"] = len(setup_samples)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    attempted += checks.n
    failed += len(checks.failures)
    if not trace:
        quality["failed_frac"] = failed / attempted
        lines.append("quality " + json.dumps(quality))
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    lines.extend(f"CHECK FAILED: {what}" for what in checks.failures)
    result = {"correct": not checks.failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines
