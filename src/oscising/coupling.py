"""Odd 2*pi-periodic coupling functions g and their antiderivatives G.

Every coupling has the form g(x) = f(sin x), which makes it odd and
2*pi-periodic.  Two kinds:
  sine             f(s) = s,              g(x) = sin(x), G analytic
  smoothed_square  f(s) = tanh(beta * s), G by spectral integration

The energy of the dynamics uses the "pair kernel" 1 - G(x), which reduces
to cos(x) for the sine kind.  G is normalized to G(0) = 0 and is itself
2*pi-periodic because an odd periodic g integrates to zero over a period.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = ["CouplingFunction", "sine", "smoothed_square", "by_name"]

TWO_PI = 2.0 * np.pi
_TABLE_SIZE = 4096
_CHECK_POINTS = 1024


@dataclass(frozen=True, eq=False)
class CouplingFunction:
    """A coupling shape g(x) = f(sin x) with antiderivative G, G(0) = 0."""

    kind: str
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("sine", "smoothed_square"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.kind == "smoothed_square":
            if self.beta is None or not (np.isfinite(self.beta) and self.beta > 0):
                raise ValueError(f"smoothed_square needs a finite beta > 0, got {self.beta}")
            self._check_antiderivative()

    # -- evaluation -------------------------------------------------------

    def g_of_sin(self, s, out=None) -> np.ndarray:
        """f(s), so that g(x) = f(sin x).

        With out (shaped like s, and s itself allowed) the result is written
        there without a temporary.
        """
        if self.kind == "sine":
            return s if out is None or out is s else np.positive(s, out=out)
        return np.tanh(np.multiply(self.beta, s, out=out), out=out)

    def g(self, x) -> np.ndarray:
        """g(x) = f(sin x), elementwise."""
        return self.g_of_sin(np.sin(np.asarray(x, dtype=np.float64)))

    def antiderivative(self, x) -> np.ndarray:
        """G(x) = integral of g from 0 to x, G(0) = 0, 2*pi-periodic."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return 1.0 - np.cos(x)
        return self._antiderivative_spline(np.mod(x, TWO_PI))

    def pair_kernel(self, x) -> np.ndarray:
        """1 - G(x); equals cos(x) for the sine kind.  Peaks at x = 0."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return np.cos(x)
        return 1.0 - self.antiderivative(x)

    # -- internals --------------------------------------------------------

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

    def _check_antiderivative(self):
        """G' = g at sampled points.  Odd symmetry and periodicity need no
        check: they follow from g = f(sin x) with f odd."""
        # midpoints avoid the (C1) interpolation knots of G
        x = (np.arange(_CHECK_POINTS) + 0.5) * (TWO_PI / _CHECK_POINTS)
        h = 1e-5
        fd = (self.antiderivative(x + h) - self.antiderivative(x - h)) / (2 * h)
        defect = np.abs(fd - self.g(x)).max()
        if defect > 1e-6:
            raise ValueError(f"G' = g defect {defect:.3g} exceeds 1e-6")


def sine() -> CouplingFunction:
    return CouplingFunction(kind="sine")


def smoothed_square(beta: float = 4.0) -> CouplingFunction:
    return CouplingFunction(kind="smoothed_square", beta=beta)


def by_name(name: str) -> CouplingFunction:
    """CLI helper: "sine" or "sqsmooth" (optionally "sqsmooth:beta")."""
    if name == "sine":
        return sine()
    if name.startswith("sqsmooth"):
        _, _, b = name.partition(":")
        return smoothed_square(float(b)) if b else smoothed_square()
    raise ValueError(f"unknown coupling name {name!r}")
