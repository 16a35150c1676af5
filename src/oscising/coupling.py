"""Odd 2*pi-periodic coupling functions g and their antiderivatives G.

Three kinds:
  sine             g(x) = sin(x), G analytic
  smoothed_square  g(x) = tanh(beta * sin(x)), G tabulated
  tabulated        g given by uniform samples over [0, 2*pi), linear interp

The energy of the dynamics uses the "pair kernel" 1 - G(x), which reduces
to cos(x) for the sine kind.  G is normalized to G(0) = 0 and is itself
2*pi-periodic because an odd periodic g integrates to zero over a period.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["CouplingFunction", "sine", "smoothed_square", "tabulated", "by_name"]

TWO_PI = 2.0 * np.pi
_TABLE_SIZE = 4096
_CHECK_POINTS = 1024


@dataclass(frozen=True, eq=False)
class CouplingFunction:
    """A coupling shape: odd, 2*pi-periodic g with antiderivative G, G(0) = 0."""

    kind: str
    beta: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sine", "smoothed_square", "tabulated"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "smoothed_square" and (self.beta is None or self.beta <= 0):
            raise ValueError("smoothed_square needs beta > 0")
        if self.kind == "tabulated":
            s = np.asarray(self.samples, dtype=np.float64)
            if s.ndim != 1 or len(s) < 8:
                raise ValueError("tabulated coupling needs >= 8 samples")
            s = s.copy()
            s.setflags(write=False)
            object.__setattr__(self, "samples", s)
        self._check_shape()

    # -- evaluation -------------------------------------------------------

    def g(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return np.sin(x)
        if self.kind == "smoothed_square":
            return np.tanh(self.beta * np.sin(x))
        return self._interp_samples(x)

    def antiderivative(self, x) -> np.ndarray:
        """G(x) = integral of g from 0 to x, G(0) = 0, 2*pi-periodic."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return 1.0 - np.cos(x)
        if self.kind == "smoothed_square":
            return self._antiderivative_spline(np.mod(x, TWO_PI))
        return self._piecewise_quadratic_integral(np.mod(x, TWO_PI))

    def pair_kernel(self, x) -> np.ndarray:
        """1 - G(x); equals cos(x) for the sine kind.  Peaks at x = 0."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return np.cos(x)
        return 1.0 - self.antiderivative(x)

    # -- internals --------------------------------------------------------

    def _interp_samples(self, x) -> np.ndarray:
        s = self.samples
        m = len(s)
        u = np.mod(x, TWO_PI) * (m / TWO_PI)
        k = np.floor(u).astype(np.int64) % m
        frac = u - np.floor(u)
        return s[k] * (1.0 - frac) + s[(k + 1) % m] * frac

    @cached_property
    def _antiderivative_spline(self) -> CubicSpline:
        """Spectral antiderivative of g on a uniform grid, splined periodically.

        Spectral integration keeps the G' = g defect far below the 1e-6
        consistency tolerance, which cumulative trapezoid sums at this table
        size cannot guarantee for steep beta.
        """
        grid = np.arange(_TABLE_SIZE) * (TWO_PI / _TABLE_SIZE)
        gv = self.g(grid)
        spec = np.fft.rfft(gv)
        freqs = np.arange(len(spec))
        integ = np.zeros_like(spec)
        integ[1:] = spec[1:] / (1j * freqs[1:])
        table = np.fft.irfft(integ, n=len(grid))
        table -= table[0]
        xs = np.concatenate([grid, [TWO_PI]])
        ys = np.concatenate([table, [table[0]]])
        return CubicSpline(xs, ys, bc_type="periodic")

    @cached_property
    def _sample_cumint(self) -> np.ndarray:
        """Exact integral of the linear interpolant at the sample nodes."""
        s = self.samples
        m = len(s)
        dx = TWO_PI / m
        seg = 0.5 * dx * (s + np.roll(s, -1))
        cum = np.zeros(m + 1)
        cum[1:] = np.cumsum(seg)
        return cum

    def _piecewise_quadratic_integral(self, xm) -> np.ndarray:
        s = self.samples
        m = len(s)
        dx = TWO_PI / m
        k = np.minimum(np.floor(xm / dx).astype(np.int64), m - 1)
        u = xm - k * dx
        g0 = s[k]
        g1 = s[(k + 1) % m]
        return self._sample_cumint[k] + g0 * u + (g1 - g0) * u * u / (2.0 * dx)

    def _check_shape(self):
        """Sampled invariants: odd symmetry, periodicity, G' = g."""
        tol = 1e-6 if self.kind == "tabulated" else 1e-9
        x = np.arange(_CHECK_POINTS) * (TWO_PI / _CHECK_POINTS)
        odd = np.abs(self.g(x) + self.g(-x)).max()
        if odd > tol:
            raise ValueError(f"coupling not odd: max|g(x)+g(-x)| = {odd:.3g}")
        per = np.abs(self.g(x + TWO_PI) - self.g(x)).max()
        if per > tol:
            raise ValueError(f"coupling not 2*pi-periodic: defect {per:.3g}")
        if self.kind != "sine":
            # midpoints avoid the (C1) interpolation knots of G
            mid = x + 0.5 * TWO_PI / _CHECK_POINTS
            h = 1e-5
            fd = (self.antiderivative(mid + h) - self.antiderivative(mid - h)) / (2 * h)
            defect = np.abs(fd - self.g(mid)).max()
            if defect > 1e-6:
                raise ValueError(f"G' = g defect {defect:.3g} exceeds 1e-6")


def sine() -> CouplingFunction:
    return CouplingFunction(kind="sine")


def smoothed_square(beta: float = 4.0) -> CouplingFunction:
    return CouplingFunction(kind="smoothed_square", beta=beta)


def tabulated(samples) -> CouplingFunction:
    return CouplingFunction(kind="tabulated", samples=np.asarray(samples, dtype=np.float64))


def by_name(name: str) -> CouplingFunction:
    """CLI helper: "sine" or "sqsmooth" (optionally "sqsmooth:beta")."""
    if name == "sine":
        return sine()
    if name.startswith("sqsmooth"):
        _, _, b = name.partition(":")
        return smoothed_square(float(b)) if b else smoothed_square()
    raise ValueError(f"unknown coupling name {name!r}")
