"""Coupled-oscillator Ising machine: simulator, theory checks, benchmarks.

Combinatorial problems (MAX-CUT, graph colouring) are encoded as Ising
Hamiltonians; the coupled phase SDE with second-harmonic locking anneals
toward low-energy spin configurations; the descent-function machinery
verifies the theory behind it as executable invariants.
"""
from .graphs import (GraphFormatError, WeightedGraph, load_gset, parse_gset,
                     random_graph, serialize_gset)
from .ising import (IsingProblem, SpinConfig, brute_force_ground_state,
                    cut_value, hamiltonian, maxcut_to_ising)
from .coloring import (ColorAssignment, ColoringInstance, coloring_to_ising,
                       decode_coloring, us_states_instance)
from .coupling import CouplingFunction, sine, smoothed_square
from .schedule import Schedule, baseline_schedule, constant_schedule
from .dynamics import (IntegrationError, OscillatorBank, Trajectory,
                       binarisation_residual, drift, read_spins,
                       trajectory_to_csv)
from .lyapunov import DescentReport, EnergyBreakdown, check_monotone, energy
from .genadler import (LockEquilibrium, PeriodicSignal, cross_correlate,
                       lock_equilibria, shil_bistability)
from .harness import (AblationVariant, BoltzmannReport, TrialStats, ablate,
                      boltzmann_check, gset_targets, run_trials,
                      scaling_study, simulate)

__version__ = "0.1.0"
