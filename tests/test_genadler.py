import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from oscising.coupling import sine, smoothed_square
from oscising.dynamics import _integrate, make_rng
from oscising.genadler import (PeriodicSignal, cross_correlate, detuning_sweep,
                               lock_equilibria, shil_profile, signal_from_csv)
from oscising.ising import IsingProblem
from oscising.schedule import constant_schedule

GRID_1024 = np.arange(1024) * (2 * np.pi / 1024)


def sig(f, m=1024):
    return PeriodicSignal.from_function(f, m)


def test_signal_validation():
    with pytest.raises(ValueError):
        PeriodicSignal(np.zeros(100))          # not a power of two
    with pytest.raises(ValueError):
        PeriodicSignal(np.zeros(32))           # too short
    with pytest.raises(ValueError):
        PeriodicSignal(np.full(64, np.nan))


@pytest.mark.parametrize("m", [0, 32, 100])
def test_grid_builders_reject_bad_sample_counts(tmp_path, m):
    """Every builder of the sample grid checks M before dividing by it."""
    path = tmp_path / "wave.csv"
    path.write_text("0,0\n0.5,1\n1,0\n")
    builders = (lambda: PeriodicSignal.from_function(np.sin, m),
                lambda: signal_from_csv(path, m))
    for build in builders:
        with pytest.raises(ValueError, match=f"M must be a power of two >= 64, got {m}"):
            build()


def test_signal_eval_wraps():
    s = sig(np.sin)
    x = np.array([0.3, 0.3 + 2 * np.pi, 0.3 - 2 * np.pi])
    v = s.eval(x)
    assert v[0] == pytest.approx(v[1], abs=1e-12)
    assert v[0] == pytest.approx(v[2], abs=1e-12)


def test_cross_correlate_cos_sin_oracle():
    """p = cos, b = sin: c(t) = integral cos(t+tau) sin(tau) dtau = -pi sin t."""
    c = cross_correlate(sig(np.cos), sig(np.sin))
    assert np.abs(c.samples - (-np.pi * np.sin(GRID_1024))).max() < 1e-6


def test_cross_correlate_zero_input():
    c = cross_correlate(sig(np.cos), sig(lambda x: 0.0 * x))
    assert np.abs(c.samples).max() == 0.0


def test_cross_correlate_pi_periodic_pair():
    """Second-harmonic content in both signals makes c pi-periodic."""
    c = cross_correlate(sig(lambda x: np.cos(2 * x)), sig(lambda x: np.sin(2 * x)))
    m = c.m
    assert np.abs(c.samples - np.roll(c.samples, m // 2)).max() < 1e-9


def test_cross_correlate_linearity():
    p = sig(lambda x: np.cos(x) + 0.3 * np.sin(2 * x))
    b1 = sig(np.sin)
    b2 = sig(lambda x: np.cos(3 * x))
    a, b = 1.7, -0.4
    combo = PeriodicSignal(a * b1.samples + b * b2.samples)
    lhs = cross_correlate(p, combo).samples
    rhs = a * cross_correlate(p, b1).samples + b * cross_correlate(p, b2).samples
    assert np.abs(lhs - rhs).max() < 1e-9


def test_cross_correlate_shift_property():
    """Replacing b(tau) by b(tau + delta) shifts c by -delta."""
    p = sig(np.cos)
    b = sig(lambda x: np.sin(x) + 0.2 * np.sin(3 * x))
    delta = 17 * (2 * np.pi / 1024)    # a whole number of grid cells
    b_shift = sig(lambda x: np.sin(x + delta) + 0.2 * np.sin(3 * (x + delta)))
    c0 = cross_correlate(p, b)
    c1 = cross_correlate(p, b_shift)
    assert np.abs(c1.eval(GRID_1024) - c0.eval(GRID_1024 - delta)).max() < 1e-9


def test_cross_correlate_multichannel_sum():
    """A vector PPV's profile is the sum of its channels' scalar profiles:
    p = b = (cos, sin) gives pi cos t + pi cos t = 2 pi cos t."""
    c = (cross_correlate(sig(np.cos), sig(np.cos)).samples
         + cross_correlate(sig(np.sin), sig(np.sin)).samples)
    assert np.abs(c - 2 * np.pi * np.cos(GRID_1024)).max() < 1e-6


def test_cross_correlate_channel_mismatch():
    """Samples of shape (M, channels) are rejected, naming the shape."""
    two = np.stack([np.cos(GRID_1024), np.sin(GRID_1024)], axis=1)
    for samples in (two, two[:, :1], np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"shape (M,), got {samples.shape}")):
            PeriodicSignal(samples)


def test_cross_correlate_rejects_different_m():
    with pytest.raises(ValueError, match="same M, got 256 and 1024"):
        cross_correlate(sig(np.cos, 256), sig(np.sin, 1024))


finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(p=st.lists(finite, min_size=64, max_size=64),
       b1=st.lists(finite, min_size=64, max_size=64),
       b2=st.lists(finite, min_size=64, max_size=64))
def test_cross_correlate_is_linear_in_the_perturbation(p, b1, b2):
    """On one grid, the profile of b1 + b2 is the sum of the two profiles
    within 1e-12 (1 + max|c|), max|c| taken at its Cauchy-Schwarz bound
    (2 pi / M) |p| (|b1| + |b2|): the FFT's rounding scales with the
    inputs, not with a profile that cancels."""
    p, b1, b2 = (PeriodicSignal(np.array(x)) for x in (p, b1, b2))
    whole = cross_correlate(p, PeriodicSignal(b1.samples + b2.samples)).samples
    parts = cross_correlate(p, b1).samples + cross_correlate(p, b2).samples
    norm = np.linalg.norm
    bound = 2 * np.pi / 64 * norm(p.samples) * (norm(b1.samples) + norm(b2.samples))
    assert np.abs(whole - parts).max() <= 1e-12 * (1.0 + bound)


def test_adler_lock_pair():
    c = PeriodicSignal.from_function(lambda x: -2.0 * np.sin(x))
    eq = lock_equilibria(c, 0.0)
    assert len(eq) == 2
    stable = [e for e in eq if e.stable]
    unstable = [e for e in eq if not e.stable]
    assert len(stable) == 1 and len(unstable) == 1
    assert min(stable[0].phi_star, 2 * np.pi - stable[0].phi_star) < 1e-9
    assert unstable[0].phi_star == pytest.approx(np.pi, abs=1e-9)


def test_lock_range_boundary():
    amp = 2.0
    c = PeriodicSignal.from_function(lambda x: -amp * np.sin(x))
    assert lock_equilibria(c, 1.5 * amp) == []
    assert lock_equilibria(c, -1.5 * amp) == []
    inside = lock_equilibria(c, 0.5 * amp)
    assert len(inside) == 2
    assert sum(e.stable for e in inside) == 1


def test_lock_root_residuals():
    c = PeriodicSignal.from_function(lambda x: -1.3 * np.sin(x) + 0.2 * np.sin(3 * x))
    for d in (-0.9, -0.3, 0.0, 0.4, 1.0):
        for e in lock_equilibria(c, d):
            assert e.residual < 1e-9


@pytest.mark.parametrize("detuning, phi_in", [(np.nan, 0.0), (np.inf, 0.0),
                                              (0.0, np.nan), (0.0, -np.inf)])
def test_lock_rejects_nonfinite_detuning_and_phase(detuning, phi_in):
    c = PeriodicSignal.from_function(lambda x: -np.sin(x))
    with pytest.raises(ValueError, match="must be finite"):
        lock_equilibria(c, detuning, phi_in=phi_in)


def test_lock_respects_input_phase():
    c = PeriodicSignal.from_function(lambda x: -np.sin(x))
    shift = 0.7
    eq = lock_equilibria(c, 0.0, phi_in=shift)
    stable = [e for e in eq if e.stable]
    assert stable[0].phi_star == pytest.approx(shift, abs=1e-8)


def test_second_harmonic_two_stable_states():
    c = PeriodicSignal.from_function(lambda x: -np.sin(2 * x))
    eq = lock_equilibria(c, 0.0)
    stable = sorted(e.phi_star for e in eq if e.stable)
    assert len(eq) == 4 and len(stable) == 2
    assert stable[1] - stable[0] == pytest.approx(np.pi, abs=1e-9)


def test_degenerate_profile_flagged():
    c = PeriodicSignal(np.zeros(64))
    assert lock_equilibria(c, 0.0) == []   # identically zero: no usable profile
    flat_top = PeriodicSignal.from_function(
        lambda x: -np.clip(np.sin(x), -0.5, 0.5))
    eq = lock_equilibria(flat_top, 0.5)
    assert any(e.degenerate for e in eq)


def brent_locks(c, detuning, phi_in):
    """The lock rules with each root located by Brent's method on the
    residual's own knot brackets [phi_in + k dx, phi_in + (k + 1) dx]: an
    end carries f_k = detuning - samples[k] exactly, and c.eval gives f
    inside.  (phi*, stable, degenerate) per root, phi* in [0, 2 pi)."""
    s, m = c.samples, c.m
    dx, scale = 2 * np.pi / m, float(np.abs(s).max())
    if scale == 0.0:
        return []
    fk = detuning - s
    out = []
    for k in range(m):
        a, b, fa, fb = phi_in + k * dx, phi_in + (k + 1) * dx, fk[k], fk[(k + 1) % m]
        slope = (s[(k + 1) % m] - s[k]) / dx
        if fa == 0.0:
            r, cp = a, 0.5 * ((s[k] - s[k - 1]) / dx + slope)
        elif (fa < 0.0 < fb) or (fb < 0.0 < fa):
            ends = lambda x: fa if x == a else fb if x == b else detuning - c.eval(x - phi_in)
            r, cp = brentq(ends, a, b, xtol=1e-12), slope
        else:
            continue
        degenerate = abs(cp) <= 1e-9 * scale
        phi = float(np.mod(r, 2 * np.pi))
        out.append((0.0 if phi == 2 * np.pi else phi, cp < 0.0 and not degenerate, degenerate))
    return out


def circle_gap(a, b):
    """Distance of two angles on the circle."""
    d = abs(a - b) % (2 * np.pi)
    return min(d, 2 * np.pi - d)


def assert_same_locks(got, want, tol=1e-10):
    """got, a lock_equilibria list, and want, (phi*, stable, degenerate)
    tuples, are one multiset: each root of got, in [0, 2 pi), pairs with
    its own root of want with the same flags, within tol on the circle."""
    left = list(want)
    for e in got:
        assert 0.0 <= e.phi_star < 2 * np.pi, e
        hit = next((w for w in left if w[1:] == (e.stable, e.degenerate)
                    and circle_gap(e.phi_star, w[0]) <= tol), None)
        assert hit is not None, (e, want)
        left.remove(hit)
    assert not left, left


# small integers give exact-zero samples and flat runs, +-1e-200 products
# that underflow; floats give the rest
sample = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                   st.sampled_from([-1e-200, 1e-200]),
                   st.floats(-2.0, 2.0, allow_nan=False))
detunings = st.one_of(st.just(0.0), st.integers(-2, 2).map(float),
                      st.floats(-2.5, 2.5, allow_nan=False))
# off the grid and on it (k 2 pi / 64, the knots on grid points)
phases = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False),
                   st.integers(-200, 200).map(lambda k: k * 2 * np.pi / 64))


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(sample, min_size=64, max_size=64), detuning=detunings,
       phi_in=phases)
@example(samples=[0.0] * 64, detuning=0.0, phi_in=0.0)
@example(samples=[0.0] * 62 + [-1.0, 0.0], detuning=-1e-277, phi_in=0.0)
@example(samples=[0.0] * 59 + [-1.0] + [0.0] * 4, detuning=-6.105238998560496e-32,
         phi_in=0.0)
@example(samples=[0.0] * 64, detuning=0.5, phi_in=0.3)
@example(samples=[0.0, 1.0, -2.0, 1.5] * 16, detuning=0.0, phi_in=0.0)
@example(samples=[0.0, 1.0, -2.0, 1.5] * 16, detuning=0.25, phi_in=0.5 * 2 * np.pi / 64)
# a root at the wrap, which one side may round to 2 pi (read as 0.0)
@example(samples=[0.0] * 61 + [1.0, 0.0, 0.0], detuning=1e-30,
         phi_in=0.19634954084936107)
# a zero plateau: every knot of it a root, no segment root between them
@example(samples=[0.0] * 16 + [1.0, 0.0, 0.0, -1.0] + [0.0] * 44, detuning=0.0,
         phi_in=27 * 2 * np.pi / 64)
def test_lock_equilibria_match_brent_per_bracket(samples, detuning, phi_in):
    """lock_equilibria returns the roots, and their stable and degenerate
    flags, that Brent's method finds on the residual's knot brackets, as a
    multiset, within 1e-10 on the circle, each phi* in [0, 2 pi)."""
    c = PeriodicSignal(np.array(samples))
    assert_same_locks(lock_equilibria(c, detuning, phi_in),
                      brent_locks(c, detuning, phi_in))


def test_lock_equilibria_kink_rounded_onto_the_cell_end():
    """phi_in = -1.2e-26 puts the first knot just below 0, and the root on
    the segment after it, 4e-102 of the way along, there too: np.mod rounds
    it to 2 pi, which reads 0.0.  The solver and the knot oracle both give
    63 roots, the 62 knots of the zero run and that one."""
    c = PeriodicSignal(np.array([-4.0073812798532255e-102, 1.0] + [0.0] * 62))
    got = lock_equilibria(c, 0.0, -1.179432275963258e-26)
    want = brent_locks(c, 0.0, -1.179432275963258e-26)
    assert len(got) == len(want) == 63
    assert got[0].phi_star == 0.0
    assert all(e.phi_star < 2 * np.pi for e in got)
    assert_same_locks(got, want)


DX_64 = 2 * np.pi / 64


def locks_in_cells(samples, detuning=0.0, phi_in=0.0):
    """(phi* / dx, stable, degenerate) of each root on the 64-sample grid."""
    return [(e.phi_star / DX_64, e.stable, e.degenerate)
            for e in lock_equilibria(PeriodicSignal(np.array(samples)), detuning, phi_in)]


def test_lock_pair_inside_one_cell_is_found():
    """A single -1 sample among 100s, with phi_in = 0.3 dx: a stable and an
    unstable lock 1/101 dx either side of its knot, both inside the grid
    cell [10 dx, 11 dx], whose ends have the same sign."""
    s = np.full(64, 100.0)
    s[10] = -1.0
    (a, *fa), (b, *fb) = locks_in_cells(s, phi_in=0.3 * DX_64)
    assert (fa, fb) == ([True, False], [False, False])
    assert a == pytest.approx(10.3 - 1 / 101, abs=1e-12)
    assert b == pytest.approx(10.3 + 1 / 101, abs=1e-12)


def test_lock_stability_is_its_own_segments_slope():
    """c falls across the segment [10 dx, 11 dx] holding the root at 10.1 dx,
    so it is stable, although the next segment back rises steeply; Euler
    steps of dphi/dt = c(phi) return to it from either side."""
    s = np.full(64, -0.9)
    s[9], s[10] = -10.0, 0.1
    assert locks_in_cells(s) == [(pytest.approx(9 + 10 / 10.1), False, False),
                                 (pytest.approx(10.1), True, False)]
    c = PeriodicSignal(s)
    for start in (10.05, 10.15):
        phi = start * DX_64
        for _ in range(400):
            phi += 0.01 * float(c.eval(phi))
        assert phi / DX_64 == pytest.approx(10.1, abs=1e-9)


@pytest.mark.parametrize("unit, flags", [(1.0, (False, True)), (1e-200, (True, False))])
def test_lock_between_tiny_samples_of_opposite_sign_is_found(unit, flags):
    """samples[10] = 1e-200 and samples[11] = -1e-200: f changes sign across
    the segment although the product of its ends underflows to -0.0.  The
    root at 10.5 dx has slope -2e-200 / dx, degenerate against samples of 1
    and stable against samples of 1e-200; the rising segment after it holds
    an unstable one."""
    s = np.full(64, unit)
    s[10], s[11] = 1e-200, -1e-200
    second = 11.0 if unit == 1.0 else 11.5
    assert locks_in_cells(s) == [(10.5, *flags),
                                 (pytest.approx(second, abs=1e-12), False, False)]


@pytest.mark.parametrize("knots, want", [({10: -1.5e308}, [(9.5, True), (10.5, False)]),
                                         ({10: 0.0, 11: -1.5e308}, [(10.0, True), (11.5, False)])])
def test_lock_roots_of_samples_near_the_float_maximum(knots, want):
    """Samples of 1.5e308 with the given knots changed, detuning 0: unscaled,
    f_k - f_{k+1} and the slopes overflow, which put these roots at 9.0 and
    10.0 dx, and the crossing after the zero knot at 11.0 dx."""
    s = np.full(64, 1.5e308)
    s[list(knots)] = list(knots.values())
    assert locks_in_cells(s) == [(pytest.approx(r, abs=1e-12), st, False) for r, st in want]


def test_lock_detuning_beyond_the_profile_has_no_root():
    """|d| > max|c|: no root, and d - c, which would overflow here, is never
    formed."""
    assert locks_in_cells(np.full(64, -1e307), detuning=1.79e308) == []


def sorted_stable(c, detuning):
    return sorted(e.phi_star for e in lock_equilibria(c, detuning) if e.stable)


def test_shil_bistability_pair():
    stable = sorted_stable(shil_profile(sig(np.cos), sig(np.sin)), 0.0)
    assert len(stable) == 2
    assert stable[1] - stable[0] == pytest.approx(np.pi, abs=1e-6)


def test_shil_bistability_out_of_range():
    assert lock_equilibria(shil_profile(sig(np.cos), sig(np.sin)), 10.0) == []


def test_shil_stable_set_invariant_under_pi_shift():
    stable = sorted_stable(shil_profile(sig(np.cos), sig(np.sin)), 0.2)
    shifted = sorted((p + np.pi) % (2 * np.pi) for p in stable)
    assert np.allclose(stable, shifted, atol=1e-6)


@settings(max_examples=150, deadline=None)
@given(half=st.lists(sample, min_size=32, max_size=32), detuning=detunings,
       phi_in=phases)
def test_shil_stable_locks_pair_up_pi_apart(half, detuning, phi_in):
    """A pi-periodic profile, its 64 samples two copies of 32, has its stable
    locks in pairs pi apart, within 1e-12 on the circle."""
    c = PeriodicSignal(np.tile(half, 2))
    stable = [e.phi_star for e in lock_equilibria(c, detuning, phi_in) if e.stable]
    assert len(stable) % 2 == 0
    for p in stable:
        assert min(circle_gap(p + np.pi, q) for q in stable) <= 1e-12


LOCK_W, SLIP_W = (0.7, 1.0, 1.2, 1.5, 1.9), (2.1, 2.5)


@pytest.mark.parametrize("coupling", [sine(), smoothed_square()], ids=["sine", "sqsmooth"])
def test_gen_adler_predicts_the_simulated_single_oscillator_lock(coupling):
    """One uncoupled oscillator under SHIL, Ks = 1/2, noiseless, run for
    T = 200 from three starts per frequency w, all rows of one batch: it
    ends within 1e-5 rad of a stable root of d = c(phi) with d = -(w - 1)/w
    and c(phi) = -Ks g(2 phi), and where no root exists it slips by more
    than 0.1 rad per unit time.  Without c's minus sign (the negative
    control) every final sits about pi/2 from the predicted locks."""
    Ks, T, dt, starts = 0.5, 200.0, 0.01, (0.3, 1.9, 4.4)
    w = np.repeat(LOCK_W + SLIP_W, len(starts))
    phi0 = np.tile(starts, len(LOCK_W + SLIP_W))
    final = _integrate(IsingProblem.from_couplings(1, {}), coupling, w[:, None], 1.0,
                       constant_schedule(T, 0.0, Ks, 0.0), dt, round(T / dt),
                       phi0[:, None].copy(), [make_rng(k) for k in range(len(w))])[:, 0]

    def gaps(sign):
        c = PeriodicSignal.from_function(lambda x: sign * Ks * coupling.g(2 * x), 4096)
        locks = [[e.phi_star for e in lock_equilibria(c, -(wb - 1) / wb) if e.stable]
                 for wb in w]
        return [min((circle_gap(phi, r) for r in rs), default=None)
                for phi, rs in zip(final, locks)]

    locked = len(LOCK_W) * len(starts)
    assert max(gaps(-1)[:locked]) < 1e-5
    assert gaps(-1)[locked:] == [None] * (len(w) - locked)
    assert ((final - phi0)[locked:] / T > 0.1).all()
    assert min(gaps(+1)[:locked]) > 1.5


def test_detuning_sweep_lock_range():
    c = PeriodicSignal.from_function(lambda x: -np.sin(x))
    table = detuning_sweep(c, np.linspace(-2, 2, 21))
    for row in table:
        d = row["detuning"]
        if abs(d) < 1.0 - 1e-9:
            assert len(row["locks"]) == 1
        elif abs(d) > 1.0 + 1e-9:
            assert not row["locks"] and not row["degenerate"]
        else:
            # tangency at the edge of the lock range: reported, not classified
            assert row["degenerate"] and not row["locks"]


def test_signal_from_csv_roundtrip(tmp_path):
    tau = np.linspace(0.0, 1.0, 201)    # endpoint included: covers one period
    val = np.sin(2 * np.pi * tau)
    path = tmp_path / "wave.csv"
    np.savetxt(path, np.column_stack([tau, val]), delimiter=",")
    s = signal_from_csv(path, m=256)
    grid = np.arange(256) * (2 * np.pi / 256)
    assert np.abs(s.samples - np.sin(grid)).max() < 1e-3
