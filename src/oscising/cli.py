"""Command-line front end.

Subcommands: solve-maxcut, solve-coloring, ablate, boltzmann, genadler.
Exit codes: 0 success, 2 malformed input or a file that cannot be read or
written (missing, a directory, no permission), 3 numeric failure.  All
randomness is controlled by --seed.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import coupling as cpl
from . import genadler as ga
from .coloring import ColoringInstance, decode_coloring, coloring_to_ising, \
    parse_adjacency_pairs, us_states_instance
from .dynamics import IntegrationError, OscillatorBank, trajectory_to_csv
from .graphs import GraphFormatError, load_gset, parse_gset
from .harness import (AblationVariant, ablate, boltzmann_check, gset_targets,
                      run_trials, simulate, trial_seed)
from .ising import IsingProblem, maxcut_to_ising
from .lyapunov import energy_total_batch
from .schedule import Schedule, baseline_schedule

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_NUMERIC = 3


def _load_schedule(args) -> Schedule:
    if getattr(args, "schedule", None):
        with open(args.schedule, "r", encoding="utf-8") as f:
            return Schedule.from_json(f.read())
    return baseline_schedule(args.t_end, k_max=args.k_max, ks_max=args.ks_max,
                             kn_high=args.kn_high)


def _load_maxcut(args):
    """The graph, problem, schedule and target (--target, else the table's)
    of a MAX-CUT command."""
    graph = load_gset(args.gset_file)
    problem, sched = maxcut_to_ising(graph), _load_schedule(args)
    target = args.target if args.target is not None else gset_targets().get(graph.name)
    return graph, problem, sched, target


def _add_run_options(sp, trials_default):
    sp.add_argument("--schedule", help="schedule JSON file (overrides shape flags)")
    sp.add_argument("--trials", type=int, default=trials_default)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dt", type=float, default=0.01)
    sp.add_argument("--t-end", type=float, default=20.0)
    sp.add_argument("--k-max", type=float, default=1.0)
    sp.add_argument("--ks-max", type=float, default=1.0)
    sp.add_argument("--kn-high", type=float, default=1.0)
    sp.add_argument("--workers", type=int, default=1,
                    help="processes over the batches of trials, on top of the "
                         "threads each run steps its trial blocks on")
    sp.add_argument("--out", help="write stats JSON here (default: stdout)")


def _add_solve_options(sp, trials_default):
    """Run options plus the coupling and trajectory of one machine (not ablate)."""
    _add_run_options(sp, trials_default)
    sp.add_argument("--coupling", default="sqsmooth",
                    help="sine | sqsmooth | sqsmooth:BETA")
    sp.add_argument("--traj", help="re-run the best trial and write its trajectory CSV")


def _emit(args, payload: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
    else:
        print(payload)


def _write_best_trajectory(args, problem, coupling, sched, stats):
    bank = OscillatorBank.uniform(problem.n)
    traj = simulate(problem, coupling, bank, sched, dt=args.dt,
                    seed=trial_seed(args.seed, stats.best_trial),
                    record_every=max(1, int(round(0.1 / args.dt))))
    e = energy_total_batch(problem, coupling, bank, traj.phi,
                           traj.controls[:, 0], traj.controls[:, 1])
    trajectory_to_csv(traj, e, args.traj)


def cmd_solve_maxcut(args) -> int:
    graph, problem, sched, target = _load_maxcut(args)
    coupling = cpl.by_name(args.coupling)
    stats = run_trials(problem, AblationVariant("baseline"), sched,
                       args.trials, args.seed, target=target, graph=graph,
                       coupling=coupling, dt=args.dt, workers=args.workers)
    _emit(args, stats.to_json())
    if args.traj:
        _write_best_trajectory(args, problem, coupling, sched, stats)
    return EXIT_OK


def cmd_solve_coloring(args) -> int:
    if args.adjacency_file == "us-states":
        instance = us_states_instance(args.colors)
    else:
        with open(args.adjacency_file, "r", encoding="utf-8") as f:
            text = f.read()
        if args.format == "gset":
            graph = parse_gset(text, name=args.adjacency_file)
            instance = ColoringInstance(graph=graph, n_colors=args.colors)
        else:
            graph, labels = parse_adjacency_pairs(text, name=args.adjacency_file)
            instance = ColoringInstance(graph=graph, n_colors=args.colors,
                                        labels=labels)
    problem = coloring_to_ising(instance)
    sched = _load_schedule(args)
    coupling = cpl.by_name(args.coupling)
    stats = run_trials(problem, AblationVariant("baseline"), sched,
                       args.trials, args.seed, target=-0.0,
                       coupling=coupling, dt=args.dt, workers=args.workers)
    assignment = decode_coloring(instance, stats.best_spins)
    doc = {"stats": json.loads(stats.to_json()),
           "assignment": assignment.to_json_dict()}
    if instance.labels and assignment.valid:
        doc["colors_by_label"] = {lab: int(c) for lab, c in
                                  zip(instance.labels, assignment.colors)}
    _emit(args, json.dumps(doc, allow_nan=False))
    if args.traj:
        _write_best_trajectory(args, problem, coupling, sched, stats)
    return EXIT_OK


def _parse_variant(tag: str) -> AblationVariant:
    if tag.startswith("variability:"):
        return AblationVariant("variability", sigma=float(tag.split(":", 1)[1]))
    return AblationVariant(tag)


def cmd_ablate(args) -> int:
    graph, problem, sched, target = _load_maxcut(args)
    variants = [_parse_variant(v) for v in args.variants.split(",")]
    stats, table = ablate(problem, variants, sched, args.trials, args.seed,
                          graph=graph, target=target, dt=args.dt,
                          workers=args.workers)
    _emit(args, json.dumps({"table": table,
                            "stats": {k: json.loads(v.to_json())
                                      for k, v in stats.items()}},
                           allow_nan=False))
    return EXIT_OK


def cmd_boltzmann(args) -> int:
    problem = IsingProblem.from_couplings(2, {(0, 1): args.j}, name="pair")
    report = boltzmann_check(problem, cpl.by_name(args.coupling), args.kn,
                             args.k, args.ks, args.steps,
                             trial_seed(args.seed, 0), dt=args.dt)
    _emit(args, report.to_json())
    return EXIT_OK


_WAVES = {
    "sin": np.sin,
    "cos": np.cos,
    "square": lambda x: np.sign(np.sin(x)),
    "triangle": lambda x: 2 / np.pi * np.arcsin(np.sin(x)),
}


def _signal(spec: str, m: int) -> ga.PeriodicSignal:
    if spec in _WAVES:
        return ga.PeriodicSignal.from_function(_WAVES[spec], m)
    return ga.signal_from_csv(spec, m)


def cmd_genadler(args) -> int:
    if not np.isfinite([args.detuning_min, args.detuning_max, args.phi_in]).all():
        raise ValueError("--detuning-min, --detuning-max and --phi-in must be finite")
    if args.detuning_steps < 1:
        raise ValueError(f"--detuning-steps must be >= 1, got {args.detuning_steps}")
    p = _signal(args.ppv, args.samples)
    b = _signal(args.perturbation, args.samples)
    c = ga.shil_profile(p, b) if args.second_harmonic else ga.cross_correlate(p, b)
    detunings = np.linspace(args.detuning_min, args.detuning_max, args.detuning_steps)
    table = ga.detuning_sweep(c, detunings, phi_in=args.phi_in)
    _emit(args, json.dumps(table, allow_nan=False))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="oscising",
                                 description="coupled-oscillator Ising machine")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-maxcut", help="anneal a MAX-CUT benchmark file")
    sp.add_argument("gset_file")
    sp.add_argument("--target", type=float, help="best-known cut (default: table lookup)")
    _add_solve_options(sp, trials_default=200)
    sp.set_defaults(func=cmd_solve_maxcut)

    sp = sub.add_parser("solve-coloring", help="colour a graph ('us-states' for the packaged map)")
    sp.add_argument("adjacency_file")
    sp.add_argument("--colors", type=int, default=4)
    sp.add_argument("--format", choices=("gset", "pairs"), default="gset")
    _add_solve_options(sp, trials_default=20)
    sp.set_defaults(func=cmd_solve_coloring)

    sp = sub.add_parser("ablate", help="compare machine variants on one problem")
    sp.add_argument("gset_file")
    sp.add_argument("--variants",
                    default="baseline,no_noise,no_sync_threshold,sine_coupling,variability:0.01")
    sp.add_argument("--target", type=float)
    _add_run_options(sp, trials_default=50)
    sp.set_defaults(func=cmd_ablate)

    sp = sub.add_parser("boltzmann", help="occupancy vs Boltzmann-law oracle (2 spins)")
    sp.add_argument("--j", type=float, default=1.0, help="coupling J_01")
    sp.add_argument("--k", type=float, default=0.25)
    sp.add_argument("--ks", type=float, default=0.25)
    sp.add_argument("--kn", type=float, default=0.5)
    sp.add_argument("--steps", type=int, default=100000)
    sp.add_argument("--dt", type=float, default=0.05)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--coupling", default="sine")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_boltzmann)

    sp = sub.add_parser("genadler", help="injection-lock range sweep")
    sp.add_argument("--ppv", default="cos", help="sin|cos|square|triangle or CSV path")
    sp.add_argument("--perturbation", default="sin")
    sp.add_argument("--second-harmonic", action="store_true")
    sp.add_argument("--samples", type=int, default=1024)
    sp.add_argument("--phi-in", type=float, default=0.0)
    sp.add_argument("--detuning-min", type=float, default=-2.0)
    sp.add_argument("--detuning-max", type=float, default=2.0)
    sp.add_argument("--detuning-steps", type=int, default=41)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_genadler)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (IntegrationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT


if __name__ == "__main__":
    sys.exit(main())
