import itertools
import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oscising import dynamics, harness
from oscising.coupling import sine, smoothed_square
from oscising.dynamics import IntegrationError, OscillatorBank, make_rng
from helpers import cubic_ring_graph
from oscising.graphs import random_graph
from oscising.harness import (AblationVariant, BoltzmannReport, ablate,
                              boltzmann_check, gset_targets, run_trials,
                              simulate, trial_seed)
from oscising.ising import (IsingProblem, cut_value, hamiltonian,
                            maxcut_to_ising)
from oscising.lyapunov import energy_total_batch
from oscising.schedule import baseline_schedule, constant_schedule


@pytest.fixture(scope="module")
def small_run():
    g = random_graph(12, 40, "pm_one", seed=21)
    p = maxcut_to_ising(g)
    sched = baseline_schedule(5.0)
    stats = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                       target=None, graph=g, dt=0.02)
    return g, p, sched, stats


def stats_equal(a, b):
    return (a.n_trials == b.n_trials
            and np.array_equal(a.trial_H, b.trial_H)
            and np.array_equal(a.trial_cut, b.trial_cut)
            and a.best_H == b.best_H and a.best_cut == b.best_cut
            and np.array_equal(a.best_spins.s, b.best_spins.s)
            and a.n_max == b.n_max and a.n_0999 == b.n_0999
            and np.array_equal(a.hist_edges, b.hist_edges)
            and np.array_equal(a.hist_counts, b.hist_counts))


def test_run_trials_deterministic(small_run):
    g, p, sched, stats = small_run
    again = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                       graph=g, dt=0.02)
    assert stats_equal(stats, again)


def test_batch_size_does_not_change_results(small_run):
    g, p, sched, stats = small_run
    onesie = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                        graph=g, dt=0.02, batch_size=1)
    assert stats_equal(stats, onesie)


@pytest.mark.parametrize("variant", [AblationVariant("variability", sigma=0.05),
                                     AblationVariant("sine_coupling")])
def test_batch_size_does_not_change_variant_results(small_run, variant):
    """Per-trial frequencies and the sine sum give the same stats one trial
    at a time as in one batch of the default size."""
    g, p, sched, _ = small_run
    onesie = run_trials(p, variant, sched, 16, 99, graph=g, dt=0.02, batch_size=1)
    batched = run_trials(p, variant, sched, 16, 99, graph=g, dt=0.02)
    assert stats_equal(onesie, batched)


def test_worker_pool_matches_serial(small_run):
    g, p, sched, stats = small_run
    pooled = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                        graph=g, dt=0.02, batch_size=4, workers=2)
    assert stats_equal(stats, pooled)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, n_trials, cpus, size", [
    (8, 12, 16, 3),          # three batches of 4
    (8, 16, 2, 2),           # the CPU count
    (3, 16, None, None),     # unknown CPU count: one, so no pool
    (2, 4, 16, None),        # one batch: no pool
])
def test_pool_is_capped_by_batches_and_cpus(small_run, monkeypatch, workers,
                                             n_trials, cpus, size):
    g, p, sched, stats = small_run
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    if cpus is None:    # no affinity set and no CPU count: the helper's fallback
        monkeypatch.delattr(dynamics.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dynamics.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    pooled = run_trials(p, AblationVariant("baseline"), sched, n_trials, 99,
                        graph=g, dt=0.02, batch_size=4, workers=workers)
    assert RecordingPool.sizes == ([] if size is None else [size])
    assert np.array_equal(pooled.trial_H, stats.trial_H[:n_trials])


@pytest.mark.parametrize("workers, cpus, size, threads", [
    (2, 5, 2, 2),            # 5 CPUs over 2 processes: 2 threads each
    (8, 3, 3, 1),            # as many processes as CPUs: one thread each
    (1, 4, None, 4),         # no pool: the batches step on every CPU
])
def test_pool_children_share_out_the_cpus(small_run, monkeypatch, workers, cpus,
                                          size, threads):
    """Each batch steps its blocks on at most max(1, cpus // pool size)
    threads, so processes x threads stay within the usable CPUs."""
    g, p, sched, stats = small_run
    caps = []

    def integrate(*args, threads, **kwargs):
        caps.append(threads)
        return real(*args, threads=threads, **kwargs)

    real = harness._integrate
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(harness, "_integrate", integrate)
    pooled = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                        graph=g, dt=0.02, batch_size=4, workers=workers)
    assert RecordingPool.sizes == ([] if size is None else [size])
    assert caps == [threads] * 4
    assert np.array_equal(pooled.trial_H, stats.trial_H)


def test_usable_cpus_reads_the_affinity_then_the_cpu_count(monkeypatch):
    """The affinity set where the platform has one; else os.cpu_count(),
    and 1 where that is unknown."""
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {0, 3, 5},
                        raising=False)
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: 8)
    assert dynamics._usable_cpus() == 3
    monkeypatch.delattr(dynamics.os, "sched_getaffinity")
    assert dynamics._usable_cpus() == 8
    monkeypatch.setattr(dynamics.os, "cpu_count", lambda: None)
    assert dynamics._usable_cpus() == 1


def test_best_fields_consistent(small_run):
    g, p, _, stats = small_run
    assert stats.best_H == hamiltonian(p, stats.best_spins)
    assert stats.best_cut == cut_value(g, stats.best_spins)
    assert stats.best_cut == np.nanmax(stats.trial_cut)


def test_histogram_mass_and_target_counters(small_run):
    g, p, sched, _ = small_run
    target = 20.0
    stats = run_trials(p, AblationVariant("baseline"), sched, 16, 99,
                       target=target, graph=g, dt=0.02)
    assert stats.hist_counts.sum() == stats.n_trials - stats.n_failed
    assert stats.n_max <= stats.n_0999 <= stats.n_trials
    assert stats.n_max == int(np.sum(stats.trial_cut >= target - 1e-9))


def test_disjoint_offset_runs_concatenate_to_single_run(small_run):
    g, p, sched, _ = small_run
    full = run_trials(p, AblationVariant("baseline"), sched, 24, 99,
                      graph=g, dt=0.02)
    parts = [run_trials(p, AblationVariant("baseline"), sched, count, 99,
                        graph=g, dt=0.02, trial_offset=first)
             for first, count in ((0, 16), (16, 5), (21, 3))]
    for field in ("trial_index", "trial_H", "trial_cut"):
        joined = np.concatenate([getattr(s, field) for s in parts])
        assert np.array_equal(joined, getattr(full, field))
    assert np.array_equal(full.trial_index, np.arange(24))


def test_best_spins_come_from_lowest_tied_trial():
    """Several trials, in different batches, reach the best cut with
    different spins; best_spins is the lowest such trial's."""
    g = cubic_ring_graph(8)
    p = maxcut_to_ising(g)
    args = (p, AblationVariant("baseline"), baseline_schedule(5.0))
    full = run_trials(*args, 16, 1, graph=g, batch_size=4)
    tied = full.trial_index[full.trial_cut == full.best_cut]
    alone = [run_trials(*args, 1, 1, graph=g, trial_offset=int(k)).best_spins.s
             for k in tied]
    assert any(not np.array_equal(s, alone[0]) for s in alone[1:])
    assert tied[-1] // 4 > tied[0] // 4
    assert np.array_equal(full.best_spins.s, alone[0])
    assert full.best_trial == tied[0]


def test_trial_seed_injective():
    seen = {trial_seed(b, k) for b in range(20) for k in range(50)}
    assert len(seen) == 20 * 50


@pytest.mark.parametrize("base, k", [(-1, 0), (2 ** 64, 0), (0, -1), (0, 2 ** 64)])
def test_trial_seed_rejects_out_of_range(base, k):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        trial_seed(base, k)


@pytest.mark.parametrize("base, k, name", [(2.7, 0, "base_seed"),
                                           (0, 2.5, "trial_index")])
def test_trial_seed_rejects_non_integer_parts(base, k, name):
    """trial_seed(0, 2.7) used to equal trial_seed(0, 2)."""
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {max(base, k)}"):
        trial_seed(base, k)


def test_non_integer_seed_is_refused_before_any_run(monkeypatch):
    """A float key used to be truncated: base seed 1.5 returned base seed
    1's trials, and make_rng(2.5) drew make_rng(2)'s stream."""
    monkeypatch.setattr(harness, "_integrate", None)     # nothing may run
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="base_seed must be an integer, got 1.5"):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 70, 1.5)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
        simulate(p, sine(), OscillatorBank.uniform(2), baseline_schedule(5.0),
                 dt=0.1, seed=2.5)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
        boltzmann_check(p, sine(), 0.5, 0.5, 0.5, 100, 2.5)


def test_all_trials_failing_raises():
    # an enormous coupling with long steps overflows every trial
    p = IsingProblem.from_couplings(2, {(0, 1): 1e308})
    sched = constant_schedule(20.0, 1.0, 0.0, 0.0)
    # IntegrationError is a RuntimeError, mapped to exit code 3 by the CLI
    with pytest.raises(IntegrationError, match="all trials failed"):
        run_trials(p, AblationVariant("baseline"), sched, 4, 0, dt=0.5)


def test_no_failures_on_healthy_problem(small_run):
    _, _, _, stats = small_run
    assert stats.n_failed == 0


def test_variant_validation():
    with pytest.raises(ValueError):
        AblationVariant("unknown")
    with pytest.raises(ValueError):
        AblationVariant("variability")           # needs sigma > 0
    for sigma in (float("nan"), float("inf"), -0.1):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            AblationVariant("variability", sigma=sigma)
    v = AblationVariant("variability", sigma=0.05)
    assert v.label == "variability_5%"


@pytest.mark.parametrize("kind", [k for k in harness.VARIANT_KINDS
                                  if k != "variability"])
def test_only_variability_takes_a_sigma(kind):
    """A sigma on another kind used to be accepted and ignored."""
    with pytest.raises(ValueError, match=f"only the variability variant takes "
                                         f"a sigma, got {kind} with sigma=0.5"):
        AblationVariant(kind, sigma=0.5)
    assert AblationVariant(kind).sigma == 0.0


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
def test_run_trials_rejects_nonfinite_target(target, monkeypatch):
    monkeypatch.setattr(harness, "_integrate", None)     # no trial may run
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="target must be finite"):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 2, 0,
                   target=target)


@pytest.mark.parametrize("kwargs, message", [
    ({"workers": 0}, "need workers >= 1, got 0"),
    ({"workers": -2}, "need workers >= 1, got -2"),
    ({"batch_size": 0}, "need batch_size >= 1, got 0"),
    ({"batch_size": -3}, "need batch_size >= 1, got -3"),
])
def test_run_trials_rejects_nonpositive_workers_and_batch_size(kwargs, message,
                                                               monkeypatch):
    monkeypatch.setattr(harness, "_integrate", None)     # no trial may run
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match=message):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 2, 0,
                   **kwargs)


@pytest.mark.parametrize("name, value", [
    ("n_trials", 2.5), ("batch_size", 2.5), ("workers", 1.5), ("trial_offset", 2.5),
])
def test_run_trials_rejects_non_integer_counts(name, value, monkeypatch):
    """2.5 used to raise a bare TypeError from range or np.arange, and
    workers=1.5 was accepted."""
    monkeypatch.setattr(harness, "_integrate", None)     # no trial may run
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    args = {"n_trials": 2, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0),
                   base_seed=0, **args)


def test_run_trials_rejects_negative_trial_offset(monkeypatch):
    monkeypatch.setattr(harness, "_integrate", None)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="need trial_offset >= 0, got -1"):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 2, 0,
                   trial_offset=-1)


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()],
                         ids=["sine", "smoothed_square"])
def test_simulate_replays_a_trial_of_a_batch(coupling, monkeypatch):
    """simulate on trial_seed(s, k) starts and steps trial k alone as
    run_trials does inside a batch: its final phases are bit-equal to the
    trial's row, captured from the batched integrator call."""
    g = random_graph(10, 40, "pm_one", seed=5)
    p = maxcut_to_ising(g)
    sched = baseline_schedule(2.0)
    real, rows = harness._integrate, []

    def capture(*args, **kwargs):
        phi = real(*args, **kwargs)
        rows.extend(phi)
        return phi

    monkeypatch.setattr(harness, "_integrate", capture)
    run_trials(p, AblationVariant("baseline"), sched, 6, 9, graph=g,
               coupling=coupling, dt=0.02, batch_size=4, trial_offset=2)
    batch = dict(zip(range(2, 8), rows))     # chunks (2, 3, 4, 5) and (6, 7)
    for k in (2, 5, 7):
        traj = simulate(p, coupling, OscillatorBank.uniform(p.n), sched, dt=0.02,
                        seed=trial_seed(9, k), record_every=1000)
        assert np.array_equal(traj.phi[-1], batch[k])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_stats_json_is_strict_with_failed_trials():
    """A failed trial's NaN objective stays out of the JSON: median_objective
    is the median of the finite objectives."""
    h = np.array([-3.0, np.nan, -1.0])
    cut = np.array([3.0, np.nan, 1.0])
    stats = harness._finalize_stats(np.arange(3), h, cut, np.ones((3, 2)),
                                    3.0, wall=1.0)
    doc = json.loads(stats.to_json(), parse_constant=_reject_constant)
    assert doc["median_objective"] == 2.0
    assert doc["n_failed"] == 1 and doc["best_cut"] == 3.0


SPINS4 = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


@pytest.mark.parametrize("cut, best", [
    (np.array([6.0, np.nan, 4.0, 6.0]), 0),   # highest cut, first on the tie
    (None, 2),                                 # no graph: lowest H
])
def test_best_fields_come_from_one_trial(cut, best):
    """The lowest H (trial 2) and the highest cut (trials 0 and 3) belong to
    different trials; best_trial, best_H, best_cut and best_spins all
    describe the one _best_trial trial, and n_failed counts the NaN rows."""
    h = np.array([-3.0, np.nan, -5.0, -1.0])
    stats = harness._finalize_stats(np.arange(10, 14), h, cut, SPINS4, None,
                                    wall=1.0)
    assert best == harness._best_trial(stats.objectives())
    assert stats.best_trial == 10 + best
    assert stats.best_H == h[best]
    assert stats.best_cut == (None if cut is None else cut[best])
    assert np.array_equal(stats.best_spins.s, SPINS4[best])
    assert stats.n_failed == 1


def test_variant_schedule_overrides():
    sched = baseline_schedule(10.0)
    nn = AblationVariant("no_noise").apply_to_schedule(sched)
    assert all(v == 0.0 for _, v in nn.kn_points)
    ns = AblationVariant("no_sync_threshold").apply_to_schedule(sched)
    assert all(v == 0.0 for _, v in ns.ks_points)
    assert AblationVariant("baseline").apply_to_schedule(sched) is sched


def test_variant_couplings():
    assert AblationVariant("sine_coupling").coupling().kind == "sine"
    assert AblationVariant("baseline").coupling().kind == "smoothed_square"


def test_ablate_returns_all_variants():
    g = cubic_ring_graph(8)
    p = maxcut_to_ising(g)
    variants = [AblationVariant("baseline"), AblationVariant("no_noise"),
                AblationVariant("variability", sigma=0.01)]
    stats, table = ablate(p, variants, baseline_schedule(5.0), 8, 5, graph=g,
                          dt=0.02)
    assert set(stats) == {"baseline", "no_noise", "variability_1%"}
    assert [row["variant"] for row in table] == list(stats)
    with pytest.raises(ValueError):
        ablate(p, [], baseline_schedule(5.0), 8, 5)


def test_ablate_rejects_a_repeated_label_before_any_run(monkeypatch):
    """Stats are keyed by label, which two unequal variants can share."""
    monkeypatch.setattr(harness, "_integrate", None)     # nothing may run
    p = maxcut_to_ising(cubic_ring_graph(8))
    variants = [AblationVariant("variability", sigma=0.01), AblationVariant("baseline"),
                AblationVariant("variability", sigma=0.010000001)]
    with pytest.raises(ValueError, match="variant 'variability_1%' is given more than once"):
        ablate(p, variants, baseline_schedule(5.0), 8, 5)


def test_ablate_row_without_graph_reads_minus_h():
    """Without a graph the objective is -H: a row's best is the highest -H,
    and its median is the stats JSON's median_objective."""
    p = maxcut_to_ising(cubic_ring_graph(8))
    stats, table = ablate(p, [AblationVariant("baseline")],
                          baseline_schedule(5.0), 8, 5, dt=0.02)
    st, row = stats["baseline"], table[0]
    assert row["best"] == -st.best_H > 0
    assert row["median"] == json.loads(st.to_json())["median_objective"]


def test_variability_draws_differ_per_trial():
    g = cubic_ring_graph(8)
    p = maxcut_to_ising(g)
    v = AblationVariant("variability", sigma=0.05)
    a = run_trials(p, v, baseline_schedule(5.0), 8, 7, graph=g, dt=0.02)
    b = run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 8, 7,
                   graph=g, dt=0.02)
    assert not np.array_equal(a.trial_cut, b.trial_cut)


def test_variability_names_trial_with_nonpositive_omega():
    g = cubic_ring_graph(8)
    p = maxcut_to_ising(g)
    bad = next(k for k in range(64)
               if (1.0 + 0.5 * make_rng(trial_seed(3, k)).standard_normal(8) <= 0).any())
    with pytest.raises(ValueError, match=rf"trial {bad}: .*sigma=0\.5"):
        run_trials(p, AblationVariant("variability", sigma=0.5),
                   baseline_schedule(1.0), 64, 3, graph=g)


def test_run_trials_rejects_zero_trials():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 0, 0)


@pytest.mark.parametrize("dt", [0.0, -0.1, 6.0, float("nan"), float("inf")])
def test_run_trials_rejects_bad_dt(dt):
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match="dt"):
        run_trials(p, AblationVariant("baseline"), baseline_schedule(5.0), 2, 0,
                   dt=dt)


def test_gset_targets_table():
    t = gset_targets()
    assert t["G1"] == 11624
    assert t["G11"] == 564
    assert len(t) == 54


def test_boltzmann_symmetric_single_oscillator():
    p = IsingProblem.from_couplings(1, {})
    rep = boltzmann_check(p, sine(), Kn=0.5, K=0.5, Ks=0.3,
                          duration=40_000, seed=5, dt=0.05)
    p0, p1 = rep.basin_probs_empirical[(0,)], rep.basin_probs_empirical[(1,)]
    assert abs(p0 - 0.5) < 0.23
    assert p0 + p1 == pytest.approx(1.0)
    assert rep.basin_probs_oracle[(0,)] == pytest.approx(0.5, abs=1e-12)


def test_boltzmann_prefers_aligned_pair():
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    rep = boltzmann_check(p, sine(), Kn=0.5, K=0.5, Ks=1.0,
                          duration=40_000, seed=3, dt=0.05)
    emp = rep.basin_probs_empirical
    aligned = emp[(0, 0)] + emp[(1, 1)]
    anti = emp[(0, 1)] + emp[(1, 0)]
    assert aligned > anti
    oracle = rep.basin_probs_oracle
    assert max(oracle, key=oracle.get) in ((0, 0), (1, 1))


def test_boltzmann_raises_on_nonfinite_phase():
    """Noise of 1e308 overflows the chain.  The error comes before the
    histogram, whose integer cast of NaN would warn (an error here)."""
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(IntegrationError, match="non-finite phase at index"):
        boltzmann_check(p, sine(), Kn=1e308, K=0.5, Ks=0.5, duration=200,
                        seed=0, dt=1.0)


@pytest.mark.parametrize("Kn", [0.0, -0.5, 1e-200, 1e-320, np.nan])
def test_boltzmann_rejects_noise_without_a_positive_square(monkeypatch, Kn):
    """Kn = 1e-200 passes Kn > 0, but Kn**2 underflows to 0, so the oracle's
    exp(-E / Kn**2) is NaN: the check refuses such Kn, naming it, before
    the chain runs."""
    def no_chain(*args, **kwargs):
        raise AssertionError("the chain ran")

    monkeypatch.setattr(harness, "_run", no_chain)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match=f"got Kn={Kn!r}"):
        boltzmann_check(p, sine(), Kn=Kn, K=0.5, Ks=0.5, duration=200, seed=0)


def test_boltzmann_matches_cell_by_cell_reference(monkeypatch):
    """An asymmetric 3-spin problem and a known chain at cell centres
    (unwrapped by whole turns): the histogram, the oracle and both basin
    tables must agree cell by cell with a reference built here on the
    itertools.product mesh, so a cell-order mix-up between them shows."""
    grid, duration, K, Ks, Kn = 8, 400, 0.5, 0.3, 0.8
    p = IsingProblem.from_couplings(3, {(0, 1): 1.0, (1, 2): -0.4},
                                    h=np.array([0.6, 0.0, -0.2]))
    step = 2.0 * np.pi / grid
    rng = make_rng(7)
    cells = rng.integers(0, grid, size=(duration + 1, 3))
    cells[:, 0] //= 2                       # uneven marginals per spin
    cells[:, 2] = np.minimum(cells[:, 2], grid - 3)
    chain = (cells + 0.5) * step + 2.0 * np.pi * rng.integers(-1, 2, cells.shape)

    def fake_integrate(problem, coupling, omega, omega_star, schedule, dt,
                       n_steps, phi, rngs, every=1, sink=None, threads=None):
        """The chain through the sample seam, in uneven chunks, one across
        the burn-in's end."""
        assert n_steps == duration and every == 1
        for steps in np.split(np.arange(duration + 1), [7, 33, 45, 300]):
            sink(steps, chain[steps, :, None], 0, 1)
        return phi

    monkeypatch.setattr(harness, "_integrate", fake_integrate)
    rep = boltzmann_check(p, sine(), Kn, K, Ks, duration, seed=0, grid=grid)

    samples = [tuple(c) for c in cells[duration // 10:].tolist()]
    emp = {c: k / len(samples) for c, k in Counter(samples).items()}
    mesh = list(itertools.product(range(grid), repeat=3))
    e = energy_total_batch(p, sine(), OscillatorBank.uniform(3),
                           np.array(mesh) * step, K, Ks)
    dens = np.exp(-(e - e.min()) / Kn ** 2)
    ora = dict(zip(mesh, dens / dens.sum()))
    tv = 0.5 * sum(abs(emp.get(c, 0.0) - ora[c]) for c in mesh)
    basin = lambda c: tuple(int(grid // 4 <= k < 3 * grid // 4) for k in c)
    basin_emp, basin_ora = Counter(), Counter()
    for c in mesh:
        basin_emp[basin(c)] += emp.get(c, 0.0)
        basin_ora[basin(c)] += ora[c]

    assert rep.n_samples == len(samples)
    assert rep.tv_distance == pytest.approx(tv, abs=1e-12)
    assert rep.basin_probs_empirical.keys() == basin_emp.keys()
    for key in basin_emp:
        assert rep.basin_probs_empirical[key] == pytest.approx(basin_emp[key], abs=1e-12)
        assert rep.basin_probs_oracle[key] == pytest.approx(basin_ora[key], abs=1e-12)


@pytest.mark.parametrize("grid", [0, -4, 2.5, 8.0, "8"])
def test_boltzmann_rejects_bad_grid(grid, monkeypatch):
    """grid=0 used to divide by zero."""
    monkeypatch.setattr(harness, "_integrate", None)     # nothing may run
    message = (f"need grid >= 1, got {grid}" if isinstance(grid, int)
               else f"grid must be an integer, got {grid!r}")
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match=message):
        boltzmann_check(p, sine(), 0.5, 0.5, 0.5, 100, 0, grid=grid)


@pytest.mark.parametrize("duration, message", [
    (2.5, "duration must be an integer, got 2.5"),
    (9, "need duration >= 10, got 9"),
])
def test_boltzmann_rejects_bad_duration(duration, message, monkeypatch):
    """duration=2.5 used to raise a bare TypeError."""
    monkeypatch.setattr(harness, "_integrate", None)     # nothing may run
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})
    with pytest.raises(ValueError, match=message):
        boltzmann_check(p, sine(), 0.5, 0.5, 0.5, duration, 0)


def test_boltzmann_memory_does_not_grow_with_the_chain(monkeypatch):
    """The chain is bincounted chunk by chunk: with chunks of 16 steps, a
    5,000-step chain peaks within 64 B per chunk plus 2 kB of a 200-step
    one, where storing every step held about 160 B per step, 770 kB more
    (see the schedule-memory test in test_dynamics for the 64 B)."""
    monkeypatch.setattr(dynamics, "STEP_CHUNK", 16)
    p = IsingProblem.from_couplings(2, {(0, 1): 1.0})

    def peak(steps):
        tracemalloc.start()
        try:
            boltzmann_check(p, sine(), 1.0, 0.5, 0.5, steps, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(200)                       # warms numpy's and CPython's caches
    small = peak(200)
    assert peak(5_000) - small <= 64 * (5_000 // 16) + 2048


def test_boltzmann_rejects_large_n():
    p = IsingProblem.from_couplings(4, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        boltzmann_check(p, sine(), 0.5, 0.5, 0.5, 1000, 0)
