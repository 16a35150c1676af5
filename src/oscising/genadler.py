"""Averaged injection-locking analysis for a single driven oscillator.

The phase-sensitivity waveform p and the perturbation waveform b, each a
2*pi-periodic scalar sampled on the same uniform grid of M points, combine
by circular cross-correlation into the locking profile

    c(t) = integral_0^{2pi} p(t + tau) b(tau) dtau.

Cross-correlation is linear, so a vector PPV's profile
integral p(t + tau)^T b(tau) dtau is the sum of the scalar profiles of its
channels: cross_correlate(p_k, b_k) summed over k.

Equilibria of the averaged phase equation solve

    detuning_ratio = c(phi* - phi_in),

and a root is a stable lock iff c'(phi*) < 0 under
d(phi)/dt = -detuning_ratio + c(phi - phi_in).  One uncoupled oscillator of
the simulator, drift (w - 1) - w Ks g(2 phi), is w times this form with
detuning_ratio = -(w - 1)/w, c(phi) = -Ks g(2 phi) and phi_in = 0.
Second-harmonic drive makes c pi-periodic, so stable locks come in pairs
separated by pi: the bistability used to binarise oscillator phases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicSignal",
    "LockEquilibrium",
    "cross_correlate",
    "lock_equilibria",
    "shil_profile",
    "signal_from_csv",
    "detuning_sweep",
]

TWO_PI = 2.0 * np.pi


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
    """Uniform samples of a scalar 2*pi-periodic function over [0, 2*pi).

    samples has shape (M,) with M a power of two >= 64.  Evaluation
    interpolates linearly with wraparound.
    """

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"samples must have shape (M,), got {s.shape}")
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

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        u = np.mod(x, TWO_PI) * (self.m / TWO_PI)
        k = np.floor(u).astype(np.int64) % self.m
        frac = u - np.floor(u)
        return self.samples[k] * (1.0 - frac) + self.samples[(k + 1) % self.m] * frac


def cross_correlate(p: PeriodicSignal, b: PeriodicSignal) -> PeriodicSignal:
    """c(t) = integral of p(t + tau) b(tau) over one period, for two signals
    on the same grid (equal M).

    Computed on the uniform grid by FFT (exact circular correlation of the
    sample sequences, scaled by 2*pi/M); spectrally accurate for
    band-limited inputs.
    """
    if p.m != b.m:
        raise ValueError(f"signals must have the same M, got {p.m} and {b.m}")
    spec = np.fft.rfft(p.samples) * np.conj(np.fft.rfft(b.samples))
    return PeriodicSignal(np.fft.irfft(spec, n=p.m) * (TWO_PI / p.m))


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

    The residual f = detuning_ratio - c(phi - phi_in) is linear between its
    knots phi_in + k dx, at which f_k = detuning_ratio - samples[k].  A knot
    with f_k = 0 is a root, with slope c' the mean of its two segments'
    slopes.  A segment whose ends have opposite signs (compared as np.sign:
    the product of two tiny f_k underflows) holds one root, at the fraction
    f_k / (f_k - f_{k+1}) along it, with the segment's own slope.  A root is
    a stable lock iff c' < 0; a slope |c'| <= 1e-9 max|c| is flagged
    degenerate instead of being classified.  phi* lies in [0, 2*pi) (np.mod
    rounds a tiny negative angle to 2*pi, which is read as 0).  An empty
    list means the drive cannot lock at this detuning.
    """
    if not np.isfinite([detuning_ratio, phi_in]).all():
        raise ValueError("detuning_ratio and phi_in must be finite")
    scale = float(np.abs(c.samples).max())
    if scale == 0.0 or abs(detuning_ratio) > scale:
        return []
    # f, its crossing fractions and the slopes reach about M max|c|: where
    # that overflows, work in units of 2^shift, shift the exponent of max|c|
    # (a power of two, so exact in the normal range)
    shift = 0 if np.isfinite(scale * c.m) else np.frexp(scale)[1]
    s, d, scale = (np.ldexp(x, -shift) for x in (c.samples, detuning_ratio, scale))
    dx = TWO_PI / c.m
    f = d - s
    f1, slope = np.roll(f, -1), (np.roll(s, -1) - s) / dx
    knot = np.flatnonzero(f == 0.0)
    cell = np.flatnonzero(np.sign(f) * np.sign(f1) < 0.0)
    k = np.concatenate([knot, cell + f[cell] / (f[cell] - f1[cell])])
    cp = np.concatenate([0.5 * (slope[knot - 1] + slope[knot]), slope[cell]])
    r = np.mod(phi_in + k * dx, TWO_PI)
    r[r == TWO_PI] = 0.0
    degenerate = np.abs(cp) <= 1e-9 * scale
    out = [LockEquilibrium(phi_star=float(p), stable=bool(st), degenerate=bool(dg),
                           residual=float(e))
           for p, st, dg, e in zip(r, (cp < 0.0) & ~degenerate, degenerate,
                                   np.abs(detuning_ratio - c.eval(r - phi_in)))]
    out.sort(key=lambda e: e.phi_star)
    return out


def shil_profile(p2: PeriodicSignal, b2: PeriodicSignal) -> PeriodicSignal:
    """The pi-periodic profile c(t) = c2(2t) of the waveforms p2(2t) and
    b2(2t), with c2 the cross-correlation of p2 and b2."""
    c2 = cross_correlate(p2, b2).samples
    return PeriodicSignal(np.tile(c2[::2], 2))


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
