"""Runs of the machine, multi-trial statistics and ablation variants.

Every run starts in _run, which states the stream contract.  Trial k runs
on the stream trial_seed(base_seed, k), so serial, batched and worker-pool
runs, runs over disjoint trial_offset ranges and simulate's replay of one
trial all give the same results.  A failed trial has non-finite final
phases; its H and cut are NaN.

boltzmann_check numbers its mesh cells [k step, (k + 1) step) little-endian,
k_0 + grid k_1 + ..., in the histogram, the oracle and the basins alike, and
_basin_keys labels a cell by its left edge on half-open intervals, as cut.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from . import coupling as cpl
from .coupling import CouplingFunction
from .dynamics import (IntegrationError, OscillatorBank, Trajectory, _check_sizes,
                       _integrate, _n_steps, _spins_batch, _usable_cpus, make_rng)
from .graphs import WeightedGraph, random_graph
from .ising import (IsingProblem, SpinConfig, cut_batch, hamiltonian_batch,
                    maxcut_to_ising)
from .lyapunov import energy_total_batch
from .schedule import Schedule, constant_schedule

__all__ = [
    "AblationVariant",
    "TrialStats",
    "run_trials",
    "ablate",
    "boltzmann_check",
    "BoltzmannReport",
    "scaling_study",
    "gset_targets",
    "trial_seed",
    "simulate",
]

VARIANT_KINDS = ("baseline", "no_noise", "no_sync_threshold",
                 "sine_coupling", "variability")

HIST_BINS = 32
SEED_LIMIT = 1 << 64
BOLTZMANN_BURN_IN = 0.1      # leading fraction of the chain discarded
SCALING_RECORD_EVERY = 20    # steps between scaling_study samples
SETTLING_LEVEL = 0.95        # settling: mean H reaches this share of its final value


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Injective per-trial stream key from two integers in [0, 2**64)."""
    for name, value in (("base_seed", base_seed), ("trial_index", trial_index)):
        if not 0 <= value < SEED_LIMIT:
            raise ValueError(f"{name} must be in [0, 2**64), got {value}")
        _need_int(name, value, 0)
    return (int(base_seed) << 64) + int(trial_index)


def _need_int(name: str, value, lo: int) -> None:
    """Raise ValueError naming `name` unless value is an integer >= lo."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"need {name} >= {lo}, got {value}")


def _run(problem: IsingProblem, coupling: CouplingFunction, schedule: Schedule,
         dt: float, n_steps: int, keys: list[int], *,
         omega: np.ndarray | None = None, sigma: float = 0.0,
         phase_hi: float = np.pi, every: int = 1, sink=None,
         threads: int | None = None) -> np.ndarray:
    """One batch of runs, one per stream key.  The stream contract: row b
    draws from make_rng(keys[b]), in order, its frequencies 1 + sigma N(0, 1)
    if sigma > 0 (else omega, None for all 1), its phases uniform on
    [0, phase_hi) and then one standard_normal(n) per step, so it depends
    on its integer key alone.  A non-positive frequency raises ValueError
    naming trial key mod 2**64.  Returns the (B, n) finals; every and sink
    are _integrate's sample seam, whose buffer bounds the memory, and
    threads caps its block threads."""
    for key in keys:
        _need_int("seed", key, 0)
    rngs = [make_rng(key) for key in keys]
    if sigma > 0:
        omega = np.empty((len(keys), problem.n))
        for b, (key, rng) in enumerate(zip(keys, rngs)):
            try:
                omega[b] = OscillatorBank.gaussian_spread(problem.n, sigma, rng).omega
            except ValueError as exc:
                raise ValueError(f"trial {key % SEED_LIMIT}: {exc} "
                                 f"(variability sigma={sigma:g})") from exc
    phi0 = np.stack([rng.uniform(0.0, phase_hi, size=problem.n) for rng in rngs])
    return _integrate(problem, coupling, omega, 1.0, schedule, dt, n_steps,
                      phi0, rngs, every=every, sink=sink, threads=threads)


def simulate(problem: IsingProblem, coupling: CouplingFunction,
             bank: OscillatorBank, schedule: Schedule, *, dt: float, seed: int,
             record_every: int = 1) -> Trajectory:
    """Fixed-step Euler-Maruyama run of floor(schedule.t_end / dt) steps
    (dt <= t_end) started by _run on stream `seed`, with controls evaluated
    at each step's start and samples at step 0, every record_every steps and
    the last step; trial_seed(s, k) with a uniform bank replays trial k of
    run_trials at base seed s.  The sample seam's sink copies each checked
    chunk into the Trajectory, so the run holds the samples once plus one
    bounded buffer; a non-finite sample raises IntegrationError."""
    _need_int("record_every", record_every, 1)
    _check_sizes(problem, bank)
    n_steps = _n_steps(schedule.t_end, dt)
    ts = _sample_steps(n_steps, record_every) * dt
    phis = None

    def record(steps, rows, lo, hi):
        nonlocal phis
        if phis is None:    # once the run's set-up has freed its temporaries
            phis = np.empty((len(ts), problem.n))
        at = -(-steps[0] // record_every)
        phis[at:at + len(steps)] = rows[:, :, 0]

    _run(problem, coupling, schedule, dt, n_steps, [seed],
         omega=None if bank.is_uniform else bank.omega,
         every=record_every, sink=record)
    ctrl = np.stack(schedule.eval_arrays(np.minimum(ts, schedule.t_end)), axis=1)
    return Trajectory(t=ts, phi=phis, controls=ctrl)


def _sample_steps(n_steps: int, every: int) -> np.ndarray:
    """The steps _integrate samples, 0, every, 2 every, ... and the last, so
    a chunk's steps s are consecutive samples from -(-s[0] // every)."""
    return np.minimum(np.arange(-(-n_steps // every) + 1) * every, n_steps)


def gset_targets() -> dict[str, int]:
    """Best-known cut values for the standard benchmark set, keyed by name."""
    text = resources.files("oscising.data").joinpath(
        "gset_targets.json").read_text(encoding="utf-8")
    return {k: int(v) for k, v in json.loads(text).items()}


@dataclass(frozen=True)
class AblationVariant:
    """A named modification of the baseline machine.

    baseline            smoothed-square coupling, schedule as given
    no_noise            forces Kn = 0
    no_sync_threshold   forces Ks = 0; final analog phases are thresholded
    sine_coupling       plain sine coupling
    variability(sigma)  per-trial Gaussian frequency spread, relative std sigma
    """

    kind: str = "baseline"
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.kind == "variability" and self.sigma == 0.0:
            raise ValueError("variability variant needs sigma > 0")
        if self.kind != "variability" and self.sigma != 0.0:
            raise ValueError(f"only the variability variant takes a sigma, "
                             f"got {self.kind} with sigma={self.sigma:g}")

    @property
    def label(self) -> str:
        if self.kind == "variability":
            return f"variability_{100 * self.sigma:g}%"
        return self.kind

    def coupling(self) -> CouplingFunction:
        if self.kind == "sine_coupling":
            return cpl.sine()
        return cpl.smoothed_square()

    def apply_to_schedule(self, schedule: Schedule) -> Schedule:
        if self.kind == "no_noise":
            return replace(schedule, kn_points=((0.0, 0.0),))
        if self.kind == "no_sync_threshold":
            return replace(schedule, ks_points=((0.0, 0.0),))
        return schedule


@dataclass(frozen=True)
class TrialStats:
    """Aggregate over independent trials of one (problem, variant, schedule)."""

    n_trials: int
    trial_index: np.ndarray          # (T,) global trial numbers
    trial_H: np.ndarray              # (T,) final Hamiltonian per trial
    trial_cut: np.ndarray | None     # (T,) cut values (MAX-CUT mode only)
    best_trial: int                  # global number of the best trial (_best_trial)
    best_H: float
    best_cut: float | None
    best_spins: SpinConfig
    target: float | None
    n_max: int | None                # trials reaching the target
    n_0999: int | None               # trials reaching 99.9% of the target
    hist_edges: np.ndarray
    hist_counts: np.ndarray
    n_failed: int
    wall_time_total: float
    wall_time_per_trial: float

    def objectives(self) -> np.ndarray:
        """Achieved objective per trial: cut in MAX-CUT mode, else -H."""
        return self.trial_cut if self.trial_cut is not None else -self.trial_H

    def median_objective(self) -> float | None:
        """Median objective over the trials that finished."""
        objectives = self.objectives()
        finite = objectives[np.isfinite(objectives)]
        return float(np.median(finite)) if len(finite) else None

    def to_json(self) -> str:
        """RFC 8259 JSON: failed trials are left out of median_objective."""
        return json.dumps({
            "n_trials": self.n_trials,
            "best_H": self.best_H,
            "best_cut": self.best_cut,
            "best_spins": self.best_spins.s.tolist(),
            "target": self.target,
            "n_max": self.n_max,
            "n_0999": self.n_0999,
            "median_objective": self.median_objective(),
            "histogram": {"edges": self.hist_edges.tolist(),
                          "counts": self.hist_counts.tolist()},
            "n_failed": self.n_failed,
            "wall_time_total": self.wall_time_total,
            "wall_time_per_trial": self.wall_time_per_trial,
        }, allow_nan=False)


def _best_trial(objectives: np.ndarray) -> int:
    """Position of the best trial: the highest finite objective (cut, else
    -H), and the first, so the lowest trial index, on ties."""
    ok = np.isfinite(objectives)
    if not ok.any():
        raise IntegrationError("all trials failed")
    return int(np.argmax(np.where(ok, objectives, -np.inf)))


def _finalize_stats(idx, h, cut, spins, target, wall) -> TrialStats:
    """Aggregates of trials idx; every best_* field is the _best_trial's."""
    objectives = cut if cut is not None else -h
    best = _best_trial(objectives)
    finite = objectives[np.isfinite(objectives)]
    n_trials = len(idx)
    n_max = n_0999 = None
    if target is not None:
        tol = 1e-9 * max(1.0, abs(target))
        n_max = int(np.sum(finite >= target - tol))
        n_0999 = int(np.sum(finite >= 0.999 * target - tol))
    lo, hi = float(finite.min()), float(finite.max())
    if hi - lo <= 0.0:
        pad = max(0.5, abs(lo) * 1e-9)
        lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(finite, bins=HIST_BINS, range=(lo, hi))
    return TrialStats(
        n_trials=n_trials, trial_index=idx, trial_H=h, trial_cut=cut,
        best_trial=int(idx[best]), best_H=float(h[best]),
        best_cut=float(cut[best]) if cut is not None else None,
        best_spins=SpinConfig(spins[best]), target=target, n_max=n_max,
        n_0999=n_0999, hist_edges=edges, hist_counts=counts,
        n_failed=n_trials - len(finite),
        wall_time_total=wall, wall_time_per_trial=wall / n_trials)


def _run_chunk(problem: IsingProblem, variant: AblationVariant,
               schedule: Schedule, coupling: CouplingFunction, base_seed: int,
               dt: float, n_steps: int, graph: WeightedGraph | None,
               threads: int, trial_indices: np.ndarray):
    """Integrate one batch of trials on at most `threads` threads; returns
    their final H, cut and spins."""
    keys = [trial_seed(base_seed, int(k)) for k in trial_indices]
    phi = _run(problem, coupling, schedule, dt, n_steps, keys, sigma=variant.sigma,
               threads=threads)
    done = np.isfinite(phi).all(axis=1)
    spins = _spins_batch(np.where(done[:, None], phi, 0.0))
    h = np.where(done, hamiltonian_batch(problem, spins), np.nan)
    cut = None if graph is None else np.where(done, cut_batch(graph, spins), np.nan)
    return h, cut, spins


def run_trials(problem: IsingProblem, variant: AblationVariant,
               schedule: Schedule, n_trials: int, base_seed: int,
               target: float | None = None, *,
               graph: WeightedGraph | None = None,
               coupling: CouplingFunction | None = None,
               dt: float = 0.01, batch_size: int = 64, workers: int = 1,
               trial_offset: int = 0) -> TrialStats:
    """Run n_trials independent annealing runs and aggregate statistics.

    graph switches on MAX-CUT accounting (per-trial cut values, best_cut,
    and target counting against the best-known cut).  Failed trials are
    counted and excluded from the aggregates.  trial_offset shifts the
    global trial numbering: runs over disjoint ranges, concatenated,
    reproduce the single run's per-trial results.  The pool holds at most
    min(workers, number of batches, usable CPUs) processes, and each batch
    steps its trial blocks on at most max(1, usable CPUs // pool size)
    threads, so processes x threads stay within the usable CPUs.
    """
    for name, value, lo in (("n_trials", n_trials, 1), ("batch_size", batch_size, 1),
                            ("workers", workers, 1), ("trial_offset", trial_offset, 0)):
        _need_int(name, value, lo)
    if target is not None and not np.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    coupling = coupling or variant.coupling()
    sched = variant.apply_to_schedule(schedule)
    n_steps = _n_steps(sched.t_end, dt)
    lo, hi = trial_offset, trial_offset + n_trials
    chunks = [np.arange(s, min(s + batch_size, hi))
              for s in range(lo, hi, batch_size)]
    cpus = _usable_cpus()
    pool_size = min(workers, len(chunks), cpus)
    run_chunk = partial(_run_chunk, problem, variant, sched, coupling,
                        base_seed, dt, n_steps, graph, max(1, cpus // pool_size))
    t0 = time.perf_counter()
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(run_chunk, chunks))
    else:
        results = list(map(run_chunk, chunks))
    wall = time.perf_counter() - t0

    h, cut, spins = (None if col[0] is None else np.concatenate(col)
                     for col in zip(*results))
    return _finalize_stats(np.arange(lo, hi), h, cut, spins, target, wall)


def ablate(problem: IsingProblem, variants: list[AblationVariant],
           schedule: Schedule, n_trials: int, base_seed: int, *,
           graph: WeightedGraph | None = None, target: float | None = None,
           dt: float = 0.01,
           workers: int = 1) -> tuple[dict[str, TrialStats], list[dict]]:
    """Run every variant on the same problem and seeds; return stats and a
    table with one row per variant, as given: median and best objective."""
    if not variants:
        raise ValueError("need at least one variant")
    stats: dict[str, TrialStats] = {}
    table = []
    for v in variants:
        st = run_trials(problem, v, schedule, n_trials, base_seed,
                        target=target, graph=graph, dt=dt, workers=workers)
        stats[v.label] = st
        table.append({
            "variant": v.label,
            "median": st.median_objective(),
            "best": st.best_cut if st.best_cut is not None else -st.best_H,
            "n_max": st.n_max,
            "n_0999": st.n_0999,
            "failed": st.n_failed,
        })
    return stats, table


@dataclass(frozen=True)
class BoltzmannReport:
    """Empirical occupancy vs the exp(-E/Kn^2) stationary density."""

    basin_probs_empirical: dict[tuple[int, ...], float]
    basin_probs_oracle: dict[tuple[int, ...], float]
    tv_distance: float
    n_samples: int

    def to_json(self) -> str:
        fmt = lambda d: {"".join(map(str, k)): v for k, v in d.items()}
        return json.dumps({
            "empirical": fmt(self.basin_probs_empirical),
            "oracle": fmt(self.basin_probs_oracle),
            "tv_distance": self.tv_distance,
            "n_samples": self.n_samples,
        }, allow_nan=False)


def _basin_keys(phis: np.ndarray) -> np.ndarray:
    """Componentwise nearest binary point: 0 on [-pi/2, pi/2), else pi.
    Half-open like the cells [phi, phi + step) keyed by their left edge phi:
    the readout's cos(phi) >= 0 would put the cell at pi/2 into basin 0."""
    wrapped = np.mod(phis, 2.0 * np.pi)
    return ((wrapped >= np.pi / 2) & (wrapped < 3 * np.pi / 2)).astype(np.int64)


def boltzmann_check(problem: IsingProblem, coupling: CouplingFunction,
                    Kn: float, K: float, Ks: float, duration: int, seed: int,
                    *, dt: float = 0.05, grid: int = 64) -> BoltzmannReport:
    """Compare long-run phase occupancy against the Boltzmann-law density.

    A single noisy trajectory of `duration` steps is histogrammed on a
    `grid`-per-dimension mesh of [0, 2*pi)^n and compared (total-variation
    distance) with the stationary density proportional to exp(-E/Kn^2)
    integrated on the same mesh.  Basins are labelled by the componentwise
    nearest binary point.  Limited to n <= 3 (quadrature oracle cost).  The
    sample seam's sink bincounts each checked chunk past the burn-in into
    grid^n integer counts, so memory is O(grid^n + chunk) at any duration;
    a non-finite phase raises IntegrationError.
    """
    _need_int("grid", grid, 1)
    n = problem.n
    if n > 3:
        raise ValueError("quadrature oracle is limited to n <= 3")
    if not (Kn > 0 and Kn * Kn > 0):    # the oracle divides by Kn**2: 1e-200 gives 0
        raise ValueError(f"needs noise: Kn > 0 and Kn**2 > 0, got Kn={float(Kn)!r}")
    _need_int("duration", duration, 10)
    burn, step, mult = int(BOLTZMANN_BURN_IN * duration), 2.0 * np.pi / grid, grid ** np.arange(n)
    counts = np.zeros(grid ** n, dtype=np.int64)

    def histogram(steps, rows, lo, hi):
        cells = np.floor(np.mod(rows[steps >= burn, :, 0], 2.0 * np.pi) / step)
        np.add(counts, np.bincount(cells.astype(np.int64) % grid @ mult,
                                   minlength=grid ** n), counts)

    _run(problem, coupling, constant_schedule(duration * dt, K, Ks, Kn), dt, duration,
         [seed], phase_hi=2.0 * np.pi, sink=histogram)
    n_samples = duration + 1 - burn
    emp = counts / n_samples

    mesh = (np.arange(grid ** n)[:, None] // mult % grid) * step
    e = energy_total_batch(problem, coupling, OscillatorBank.uniform(n), mesh,
                           K, Ks)
    dens = np.exp(-(e - e.min()) / Kn ** 2)
    dens /= dens.sum()
    tv = 0.5 * float(np.abs(emp - dens).sum())

    codes = _basin_keys(mesh) @ (2 ** np.arange(n))
    basins = lambda p: {tuple(int((c >> b) & 1) for b in range(n)):
                        float(p[codes == c].sum()) for c in range(2 ** n)}
    return BoltzmannReport(basin_probs_empirical=basins(emp),
                           basin_probs_oracle=basins(dens),
                           tv_distance=tv, n_samples=n_samples)


@dataclass(frozen=True)
class ScalingTrace:
    n: int
    t: np.ndarray
    mean_H: np.ndarray

    def normalized(self) -> np.ndarray:
        final = abs(self.mean_H[-1])
        return self.mean_H / (final if final > 0 else 1.0)

    def settling_time(self) -> float:
        """First recorded time when mean H reaches SETTLING_LEVEL * final value."""
        thresh = SETTLING_LEVEL * self.mean_H[-1]
        hit = np.nonzero(self.mean_H <= thresh)[0]
        return float(self.t[hit[0]]) if len(hit) else float(self.t[-1])


def scaling_study(sizes: list[int], density_percent: float, n_trials: int,
                  seed: int, *, K: float = 1.0, Ks: float = 0.1,
                  Kn: float = 0.01, dt: float = 0.01,
                  t_end: float = 20.0) -> list[ScalingTrace]:
    """Mean Ising energy over time for random +-1 problems of several sizes.

    All sizes run under the same fixed controls so the settling speeds are
    directly comparable.  Graphs use stream 2**64 - 1 - n, which no trial uses.
    The sample seam's sink stores each trial's H at every
    SCALING_RECORD_EVERY-th step, and the trace is their mean over trials; a
    non-finite phase raises IntegrationError.
    """
    if len(sizes) < 2:
        raise ValueError("need at least two sizes")
    for size in sizes:
        _need_int("size", size, 2)
    _need_int("n_trials", n_trials, 1)
    sched = constant_schedule(t_end, K, Ks, Kn)
    n_steps = _n_steps(t_end, dt)
    keys, every = [trial_seed(seed, k) for k in range(n_trials)], SCALING_RECORD_EVERY
    t = _sample_steps(n_steps, every) * dt
    h = np.empty((len(t), n_trials))
    out = []
    for size in sizes:
        key = trial_seed(seed, SEED_LIMIT - 1 - size)
        problem = maxcut_to_ising(random_graph(size, density_percent, "pm_one", seed=key))

        def energies(steps, rows, lo, hi):
            at = -(-steps[0] // every)
            h[at:at + len(steps), lo:hi] = hamiltonian_batch(
                problem, _spins_batch(rows).transpose(0, 2, 1))

        _run(problem, cpl.smoothed_square(), sched, dt, n_steps, keys,
             every=every, sink=energies)
        out.append(ScalingTrace(n=size, t=t, mean_H=h.mean(axis=1)))
    return out
