"""Averaged injection-locking analysis for a single driven oscillator.

The phase-sensitivity waveform p and the perturbation waveform b (both
2*pi-periodic, possibly multi-channel) combine by circular
cross-correlation into a scalar locking profile

    c(t) = integral_0^{2pi} p(t + tau)^T b(tau) dtau.

Equilibria of the averaged phase equation solve

    detuning_ratio = c(phi* - phi_in),

and a root is a stable lock iff c'(phi*) < 0 under
d(phi)/dt = -detuning_ratio + c(phi - phi_in).  Second-harmonic drive makes
c pi-periodic, so stable locks come in pairs separated by pi: the
bistability used to binarise oscillator phases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "PeriodicSignal",
    "LockEquilibrium",
    "cross_correlate",
    "lock_equilibria",
    "shil_profile",
    "shil_bistability",
    "signal_from_csv",
    "detuning_sweep",
]

TWO_PI = 2.0 * np.pi
ROOT_TOL = 1e-10


def _check_m(m: int) -> int:
    """m, if it is a sample count a PeriodicSignal takes: a power of two >= 64."""
    if m < 64 or m & (m - 1):
        raise ValueError(f"M must be a power of two >= 64, got {m}")
    return m


def _grid(m: int) -> np.ndarray:
    """The m uniform sample points k * 2 pi / m on [0, 2 pi)."""
    return np.arange(_check_m(m)) * (TWO_PI / m)


@dataclass(frozen=True, eq=False)
class PeriodicSignal:
    """Uniform samples of a 2*pi-periodic function over [0, 2*pi).

    samples has shape (M,) or (M, channels) with M a power of two >= 64.
    Evaluation interpolates linearly with wraparound.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim not in (1, 2):
            raise ValueError("samples must be (M,) or (M, channels)")
        _check_m(s.shape[0])
        if not np.isfinite(s).all():
            raise ValueError("samples must be finite")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @classmethod
    def from_function(cls, f, m: int = 1024) -> "PeriodicSignal":
        return cls(np.asarray(f(_grid(m)), dtype=np.float64))

    @property
    def m(self) -> int:
        return self.samples.shape[0]

    @property
    def channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        u = np.mod(x, TWO_PI) * (self.m / TWO_PI)
        k = np.floor(u).astype(np.int64) % self.m
        frac = u - np.floor(u)
        s = self.samples
        if s.ndim == 1:
            return s[k] * (1.0 - frac) + s[(k + 1) % self.m] * frac
        return s[k] * (1.0 - frac)[..., None] + s[(k + 1) % self.m] * frac[..., None]

    def resampled(self, m: int) -> "PeriodicSignal":
        if m == self.m:
            return self
        return PeriodicSignal(self.eval(_grid(m)))


def cross_correlate(p: PeriodicSignal, b: PeriodicSignal) -> PeriodicSignal:
    """c(t) = integral of p(t + tau)^T b(tau) over one period.

    Computed on the uniform grid by FFT (exact circular correlation of the
    sample sequences, scaled by 2*pi/M); spectrally accurate for
    band-limited inputs.  Signals of different M are resampled to the finer
    grid first.
    """
    m = max(p.m, b.m)
    p, b = p.resampled(m), b.resampled(m)
    if p.channels != b.channels:
        raise ValueError(f"channel mismatch: {p.channels} vs {b.channels}")
    ps = p.samples.reshape(m, -1)
    bs = b.samples.reshape(m, -1)
    acc = np.zeros(m)
    for ch in range(ps.shape[1]):
        spec = np.fft.rfft(ps[:, ch]) * np.conj(np.fft.rfft(bs[:, ch]))
        acc += np.fft.irfft(spec, n=m)
    return PeriodicSignal(acc * (TWO_PI / m))


@dataclass(frozen=True)
class LockEquilibrium:
    """A root of detuning = c(phi - phi_in) with its local stability."""

    phi_star: float
    stable: bool
    degenerate: bool = False
    residual: float = 0.0


def lock_equilibria(c: PeriodicSignal, detuning_ratio: float,
                    phi_in: float = 0.0) -> list[LockEquilibrium]:
    """All solutions of detuning_ratio = c(phi - phi_in) on [0, 2*pi).

    Roots are bracketed by sign changes of the residual on the sample grid
    and then refined by Brent's method to 1e-10 in phi.  Stability follows
    the sign of the local slope of c: stable iff c'(phi*) < 0; near-zero
    slopes are flagged degenerate instead of being classified.  An empty list means the drive
    cannot lock at this detuning.
    """
    if c.channels != 1:
        raise ValueError("locking profile must be scalar")
    if not np.isfinite([detuning_ratio, phi_in]).all():
        raise ValueError("detuning_ratio and phi_in must be finite")
    m = c.m
    grid = _grid(m)

    def f(phi):
        return detuning_ratio - c.eval(phi - phi_in)

    fg = f(grid)
    scale = float(np.abs(c.samples).max())
    if scale == 0.0:
        return []
    slope_tol = 1e-9 * scale
    dx = TWO_PI / m
    roots: list[float] = []
    for k in range(m):
        a, b = grid[k], grid[k] + dx
        fa, fb = fg[k], fg[(k + 1) % m]
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0.0:
            roots.append(brentq(f, a, b, xtol=ROOT_TOL))
    out = []
    for r in roots:
        # slope of the piecewise-linear interpolant just around the root
        cp = float((c.eval(r - phi_in + 0.5 * dx) - c.eval(r - phi_in - 0.5 * dx)) / dx)
        degenerate = abs(cp) <= slope_tol
        out.append(LockEquilibrium(
            phi_star=float(np.mod(r, TWO_PI)),
            stable=bool(cp < 0.0) and not degenerate,
            degenerate=degenerate,
            residual=float(abs(f(r))),
        ))
    out.sort(key=lambda e: e.phi_star)
    return out


def shil_profile(p2: PeriodicSignal, b2: PeriodicSignal) -> PeriodicSignal:
    """The pi-periodic profile c(t) = c2(2t) of the waveforms p2(2t) and
    b2(2t), with c2 the cross-correlation of p2 and b2."""
    c2 = cross_correlate(p2, b2)
    return PeriodicSignal(c2.samples[(2 * np.arange(c2.m)) % c2.m])


def shil_bistability(p2: PeriodicSignal, b2: PeriodicSignal,
                     detuning_ratio: float) -> list[LockEquilibrium]:
    """Lock states under second-harmonic drive.

    p2 and b2 hold the second-harmonic content: the physical waveforms are
    p(t) = p2(2t), b(t) = b2(2t), whose correlation gives the pi-periodic
    profile c(t) = c2(2t).  Stable equilibria of a pi-periodic profile come
    in pairs separated by pi; this is asserted before returning.
    """
    c = shil_profile(p2, b2)
    defect = float(np.abs(c.samples - np.roll(c.samples, c.m // 2)).max())
    scale = max(float(np.abs(c.samples).max()), 1e-30)
    if defect > 1e-9 * scale:
        raise ValueError(f"composed profile is not pi-periodic (defect {defect:.3g})")
    eq = lock_equilibria(c, detuning_ratio, phi_in=0.0)
    stable = sorted(e.phi_star for e in eq if e.stable)
    if len(stable) % 2 != 0:
        raise ValueError("stable equilibria of a pi-periodic profile must pair up")
    half = len(stable) // 2
    for a, b in zip(stable[:half], stable[half:]):
        if abs((b - a) - np.pi) > 1e-6:
            raise ValueError(f"stable pair {a:.6f}/{b:.6f} not separated by pi")
    return eq


def signal_from_csv(path, m: int = 1024) -> PeriodicSignal:
    """Load (tau, value) rows and resample onto the uniform grid.

    tau may be any increasing coordinate covering one period; it is mapped
    affinely onto [0, 2*pi) and interpolated linearly with wraparound.
    """
    grid = _grid(m)
    rows = np.loadtxt(path, delimiter=",", ndmin=2)
    if rows.shape[1] != 2:
        raise ValueError("expected two columns: tau, value")
    tau, val = rows[:, 0], rows[:, 1]
    if np.any(np.diff(tau) <= 0):
        raise ValueError("tau must be strictly increasing")
    span = tau[-1] - tau[0]
    if span <= 0:
        raise ValueError("need a positive tau span")
    x = (tau - tau[0]) * (TWO_PI / span)
    # wraparound: append the first point at 2*pi
    xs = np.concatenate([x, [TWO_PI]])
    vs = np.concatenate([val, [val[0]]])
    return PeriodicSignal(np.interp(grid, xs, vs))


def detuning_sweep(c: PeriodicSignal, detunings, phi_in: float = 0.0) -> list[dict]:
    """Lock table over a detuning grid (CLI back end)."""
    table = []
    for d in detunings:
        eq = lock_equilibria(c, float(d), phi_in)
        table.append({
            "detuning": float(d),
            "locks": [e.phi_star for e in eq if e.stable],
            "unstable": [e.phi_star for e in eq if not e.stable and not e.degenerate],
            "degenerate": [e.phi_star for e in eq if e.degenerate],
        })
    return table
