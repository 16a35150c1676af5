import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from oscising.genadler import (ROOT_TOL, LockEquilibrium, PeriodicSignal,
                               cross_correlate, detuning_sweep,
                               lock_equilibria, shil_bistability,
                               signal_from_csv)

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
                lambda: signal_from_csv(path, m),
                lambda: sig(np.sin).resampled(m))
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
    two = PeriodicSignal(np.stack([np.cos(GRID_1024), np.sin(GRID_1024)], axis=1))
    c = cross_correlate(two, two)
    # sum of the two autocorrelations: pi cos(t) + pi cos(t) = 2 pi cos t
    assert np.abs(c.samples - 2 * np.pi * np.cos(GRID_1024)).max() < 1e-6


def test_cross_correlate_channel_mismatch():
    two = PeriodicSignal(np.stack([np.cos(GRID_1024), np.sin(GRID_1024)], axis=1))
    with pytest.raises(ValueError):
        cross_correlate(two, sig(np.sin))


def test_cross_correlate_resamples_different_m():
    c = cross_correlate(sig(np.cos, 256), sig(np.sin, 1024))
    assert c.m == 1024
    assert np.abs(c.samples - (-np.pi * np.sin(GRID_1024))).max() < 1e-3


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
    """The lock rules with each sign-change bracket refined by Brent's
    method: (phi*, stable, degenerate) sorted by phi*."""
    m, dx = c.m, 2 * np.pi / c.m
    f = lambda phi: detuning - c.eval(phi - phi_in)
    grid = np.arange(m) * dx
    fg = f(grid)
    scale = float(np.abs(c.samples).max())
    if scale == 0.0:
        return []
    roots = []
    for k in range(m):
        fa, fb = fg[k], fg[(k + 1) % m]
        if fa == 0.0:
            roots.append(grid[k])
        elif fa * fb < 0.0:
            # the bracket's ends keep their sampled signs: f at grid[k] + dx
            # can differ in the last bit from f at grid[k + 1]
            a, b = grid[k], grid[k] + dx
            ends = lambda x: fa if x == a else fb if x == b else f(x)
            roots.append(brentq(ends, a, b, xtol=ROOT_TOL))
    out = []
    for r in roots:
        cp = float((c.eval(r - phi_in + 0.5 * dx) - c.eval(r - phi_in - 0.5 * dx)) / dx)
        degenerate = abs(cp) <= 1e-9 * scale
        out.append((float(np.mod(r, 2 * np.pi)), cp < 0.0 and not degenerate, degenerate))
    return sorted(out)


# small integers give exact-zero samples and flat runs; floats give the rest
sample = st.one_of(st.just(0.0), st.integers(-3, 3).map(float),
                   st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(sample, min_size=64, max_size=64),
       detuning=st.one_of(st.just(0.0), st.integers(-2, 2).map(float),
                          st.floats(-2.5, 2.5, allow_nan=False)),
       phi_in=st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False)))
@example(samples=[0.0] * 64, detuning=0.0, phi_in=0.0)
@example(samples=[0.0] * 62 + [-1.0, 0.0], detuning=-1e-277, phi_in=0.0)
# f is -6e-32 on the cell before the -1 sample and +7e-15 at its right end
# (rounding in eval): a straight line through the cell's ends puts the root
# at the left end, a cell away from where f changes sign
@example(samples=[0.0] * 59 + [-1.0] + [0.0] * 4, detuning=-6.105238998560496e-32,
         phi_in=0.0)
@example(samples=[0.0] * 64, detuning=0.5, phi_in=0.3)
@example(samples=[0.0, 1.0, -2.0, 1.5] * 16, detuning=0.0, phi_in=0.0)
@example(samples=[0.0, 1.0, -2.0, 1.5] * 16, detuning=0.25, phi_in=0.5 * 2 * np.pi / 64)
# a root at the wrap: lock_equilibria puts it 1 ulp below 2 pi, Brent's
# method at 2 pi, which reads 0.0, so the sorted lists are a rotation apart
@example(samples=[0.0] * 61 + [1.0, 0.0, 0.0], detuning=1e-30,
         phi_in=0.19634954084936107)
def test_lock_equilibria_match_brent_per_bracket(samples, detuning, phi_in):
    """The batched bisection finds every root Brent's method finds, within
    ROOT_TOL, with the same stable and degenerate flags; phi_in off the grid
    puts a kink of the interpolant inside a cell.  The roots are compared on
    the circle: both lists are sorted in [0, 2 pi), and they are paired under
    the rotation that makes the largest circular gap smallest."""
    c = PeriodicSignal(np.array(samples))
    got = lock_equilibria(c, detuning, phi_in)
    want = brent_locks(c, detuning, phi_in)
    assert len(got) == len(want)
    gap = lambda a, b: min(abs(a - b), 2 * np.pi - abs(a - b))
    pairings = [list(zip(got, want[k:] + want[:k])) for k in range(len(want))] or [[]]
    pairs = min(pairings, key=lambda ps: max(
        [gap(e.phi_star, w[0]) for e, w in ps], default=0.0))
    for e, (phi, stable, degenerate) in pairs:
        assert gap(e.phi_star, phi) <= ROOT_TOL
        assert (e.stable, e.degenerate) == (stable, degenerate)


def test_lock_equilibria_kink_rounded_onto_the_cell_end():
    """phi_in = -1.2e-26 puts the last cell's kink at a + dx, which rounds to
    2 pi, where f wraps to f(0) with the shift lost: f there is +4e-102
    while the sampled f(0) is -1.2e-25.  The root stays in the last cell,
    just below 2 pi, where Brent's method puts it."""
    c = PeriodicSignal(np.array([-4.0073812798532255e-102, 1.0] + [0.0] * 62))
    got = lock_equilibria(c, 0.0, -1.179432275963258e-26)
    want = brent_locks(c, 0.0, -1.179432275963258e-26)
    assert len(got) == len(want) == 62
    assert got[-1].phi_star == pytest.approx(want[-1][0], abs=ROOT_TOL)
    assert got[-1].phi_star < 2 * np.pi
    assert [(e.stable, e.degenerate) for e in got] == [w[1:] for w in want]


def test_shil_bistability_pair():
    eq = shil_bistability(sig(np.cos), sig(np.sin), 0.0)
    stable = sorted(e.phi_star for e in eq if e.stable)
    assert len(stable) == 2
    assert stable[1] - stable[0] == pytest.approx(np.pi, abs=1e-6)


def test_shil_bistability_out_of_range():
    eq = shil_bistability(sig(np.cos), sig(np.sin), 10.0)
    assert eq == []


def test_shil_stable_set_invariant_under_pi_shift():
    eq = shil_bistability(sig(np.cos), sig(np.sin), 0.2)
    stable = sorted(e.phi_star for e in eq if e.stable)
    shifted = sorted((p + np.pi) % (2 * np.pi) for p in stable)
    assert np.allclose(sorted(stable), sorted(shifted), atol=1e-6)


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
