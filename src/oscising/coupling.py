"""Odd 2*pi-periodic coupling functions g and their antiderivatives G.

Every coupling has the form g(x) = f(sin x), which makes it odd and
2*pi-periodic.  Two kinds:
  sine             f(s) = s,              g(x) = sin(x), G analytic
  smoothed_square  f(s) = tanh(beta * s), G by spectral integration,
                   evaluated by cubic Hermite interpolation

The energy of the dynamics uses the "pair kernel" 1 - G(x), which reduces
to cos(x) for the sine kind.  G is normalized to G(0) = 0 and is itself
2*pi-periodic because an odd periodic g integrates to zero over a period.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["CouplingFunction", "sine", "smoothed_square", "by_name"]

TWO_PI = 2.0 * np.pi
_TABLE_SIZE = 4096
_KNOT_STEP = TWO_PI / _TABLE_SIZE


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
            defect = self._slope_defect()
            if defect > 1e-6:
                raise ValueError(f"G' = g defect {defect:.3g} exceeds 1e-6")

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
        u = np.mod(x, TWO_PI) / _KNOT_STEP   # mod may return 2*pi itself
        with np.errstate(invalid="ignore"):    # a NaN u casts to any k; t stays NaN
            k = np.minimum(u.astype(np.intp), _TABLE_SIZE - 1)
        t = u - k
        c0, c1, c2, c3 = (np.take(c, k, mode="clip") for c in self._antiderivative_table)
        return c0 + t * (c1 + t * (c2 + t * c3))

    def pair_kernel(self, x) -> np.ndarray:
        """1 - G(x); equals cos(x) for the sine kind.  Peaks at x = 0."""
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "sine":
            return np.cos(x)
        return 1.0 - self.antiderivative(x)

    # -- internals --------------------------------------------------------

    @cached_property
    def _antiderivative_table(self) -> tuple[np.ndarray, ...]:
        """Per-cell cubic coefficients of G in t = (x - x_k) / h on [x_k, x_k + h].

        G at the knots x_k = k h is the spectral antiderivative of g: spectral
        integration keeps the G' = g defect far below the 1e-6 consistency
        tolerance, which cumulative trapezoid sums at this table size cannot
        guarantee for steep beta.  Between knots G is the cubic Hermite
        interpolant with the exact g as its slope; at t = 0 the cubic returns
        the knot value exactly.
        """
        gv = self.g(np.arange(_TABLE_SIZE) * _KNOT_STEP)
        spec = np.fft.rfft(gv)
        freqs = np.arange(len(spec))
        integ = np.zeros_like(spec)
        integ[1:] = spec[1:] / (1j * freqs[1:])
        table = np.fft.irfft(integ, n=_TABLE_SIZE)
        y = np.append(table - table[0], 0.0)   # with the wrap value G(2 pi) = G(0)
        d = np.append(gv, gv[0]) * _KNOT_STEP   # slopes in t
        y0, y1, d0, d1 = y[:-1], y[1:], d[:-1], d[1:]
        return y0, d0, 3.0 * (y1 - y0) - 2.0 * d0 - d1, d0 + d1 - 2.0 * (y1 - y0)

    def _slope_defect(self) -> float:
        """max |G' - g| at two points inside every cell, the Gauss points
        t = 1/2 -+ sqrt(3)/6, where the Hermite cubic's slope error peaks (it
        vanishes at the knots and at the cell midpoints).  Construction
        rejects a beta whose defect exceeds 1e-6.  Odd symmetry and
        periodicity need no check: they follow from g = f(sin x) with f odd.

        The slope is the cubic's own, (d0 + t (2 c2 + 3 c3 t)) / h, taken
        from the table.
        """
        t = 0.5 + np.array([[-1.0], [1.0]]) * (np.sqrt(3.0) / 6.0)
        _, d0, c2, c3 = self._antiderivative_table
        slope = (d0 + t * (2.0 * c2 + 3.0 * c3 * t)) / _KNOT_STEP
        x = (np.arange(_TABLE_SIZE) + t) * _KNOT_STEP
        return float(np.abs(slope - self.g(x)).max())


def sine() -> CouplingFunction:
    return CouplingFunction(kind="sine")


def smoothed_square(beta: float = 4.0) -> CouplingFunction:
    return CouplingFunction(kind="smoothed_square", beta=beta)


def by_name(name: str) -> CouplingFunction:
    """CLI helper: exactly "sine", "sqsmooth" (beta = 4) or "sqsmooth:BETA"
    with BETA a float; any other name raises a ValueError that names it."""
    if name == "sine":
        return sine()
    if name == "sqsmooth":
        return smoothed_square()
    kind, colon, b = name.partition(":")
    if kind == "sqsmooth" and colon:
        try:
            return smoothed_square(float(b))
        except ValueError as exc:    # not a float, not finite and > 0, or too steep
            raise ValueError(f"coupling name {name!r}: {exc}") from None
    raise ValueError(f"unknown coupling name {name!r}: not sine, sqsmooth or sqsmooth:BETA")
