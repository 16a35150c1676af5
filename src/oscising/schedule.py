"""Annealing controls: piecewise-linear profiles of K, K_s and K_n.

Each channel is a list of (t, value) control points over [0, t_end];
evaluation interpolates linearly and holds the last value after the final
point.  Steps are encoded with two points an epsilon apart.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = ["Schedule", "baseline_schedule", "constant_schedule", "tuned_schedule"]

Points = tuple[tuple[float, float], ...]


def _as_points(points) -> Points:
    pts = tuple((float(t), float(v)) for t, v in points)
    if not pts:
        raise ValueError("channel needs at least one control point")
    if pts[0][0] != 0.0:
        raise ValueError(f"first control point must be at t=0, got t={pts[0][0]}")
    ts = [t for t, _ in pts]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("control point times must be strictly increasing")
    return pts


@dataclass(frozen=True)
class Schedule:
    t_end: float
    k_points: Points
    ks_points: Points
    kn_points: Points

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        object.__setattr__(self, "k_points", _as_points(self.k_points))
        object.__setattr__(self, "ks_points", _as_points(self.ks_points))
        object.__setattr__(self, "kn_points", _as_points(self.kn_points))
        for label, pts in (("Ks", self.ks_points), ("Kn", self.kn_points)):
            if any(v < 0 for _, v in pts):
                raise ValueError(f"{label} values must be >= 0")
        for pts in (self.k_points, self.ks_points, self.kn_points):
            if pts[-1][0] > self.t_end:
                raise ValueError("control point beyond t_end")

    @cached_property
    def _arrays(self):
        out = []
        for pts in (self.k_points, self.ks_points, self.kn_points):
            ts = np.array([t for t, _ in pts])
            vs = np.array([v for _, v in pts])
            out.append((ts, vs))
        return out

    def eval(self, t: float) -> tuple[float, float, float]:
        """(K, Ks, Kn) at time t, 0 <= t <= t_end."""
        if not 0.0 <= t <= self.t_end:
            raise ValueError(f"t={t} outside [0, {self.t_end}]")
        return tuple(float(np.interp(t, ts, vs)) for ts, vs in self._arrays)

    def eval_arrays(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized eval over a time grid inside [0, t_end]."""
        t = np.asarray(t, dtype=np.float64)
        if len(t) and (t.min() < 0.0 or t.max() > self.t_end):
            raise ValueError("time grid outside [0, t_end]")
        return tuple(np.interp(t, ts, vs) for ts, vs in self._arrays)

    def override(self, *, k_points=None, ks_points=None, kn_points=None) -> "Schedule":
        """Copy with some channels replaced (ablation plumbing)."""
        return replace(
            self,
            k_points=self.k_points if k_points is None else k_points,
            ks_points=self.ks_points if ks_points is None else ks_points,
            kn_points=self.kn_points if kn_points is None else kn_points,
        )

    def to_json(self) -> str:
        doc = {
            "t_end": self.t_end,
            "K": [[t, v] for t, v in self.k_points],
            "Ks": [[t, v] for t, v in self.ks_points],
            "Kn": [[t, v] for t, v in self.kn_points],
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        doc = json.loads(text)
        return cls(t_end=float(doc["t_end"]),
                   k_points=tuple((t, v) for t, v in doc["K"]),
                   ks_points=tuple((t, v) for t, v in doc["Ks"]),
                   kn_points=tuple((t, v) for t, v in doc["Kn"]))


def constant_schedule(t_end: float, k: float, ks: float, kn: float) -> Schedule:
    return Schedule(t_end=t_end,
                    k_points=((0.0, k),),
                    ks_points=((0.0, ks),),
                    kn_points=((0.0, kn),))


def baseline_schedule(t_end: float, *,
                      k_start: float = 0.0,
                      k_max: float = 1.0,
                      kn_high: float = 1.0,
                      kn_step_frac: float = 0.1,
                      ks_peaks: int = 5,
                      ks_max: float = 1.0) -> Schedule:
    """Default annealing profile.

    K ramps linearly k_start -> k_max over [0, t_end]; Kn is 0 until
    kn_step_frac * t_end and then steps up to kn_high; Ks runs ks_peaks
    symmetric triangular ramps between 0 and ks_max.  All shape parameters
    are overridable (the keyword defaults are calibration choices, not
    physical constants).
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if ks_peaks < 1:
        raise ValueError("need at least one Ks ramp")
    k_points = ((0.0, k_start), (t_end, k_max))
    t_step = kn_step_frac * t_end
    eps = 1e-9 * t_end
    if t_step <= 0.0:
        kn_points = ((0.0, kn_high),)
    else:
        kn_points = ((0.0, 0.0), (t_step, 0.0), (t_step + eps, kn_high))
    ks_pts = []
    half = t_end / (2 * ks_peaks)
    for seg in range(2 * ks_peaks + 1):
        ks_pts.append((seg * half, ks_max if seg % 2 else 0.0))
    # keep the final point inside t_end despite rounding
    ks_pts[-1] = (t_end, ks_pts[-1][1])
    return Schedule(t_end=t_end, k_points=k_points,
                    ks_points=tuple(ks_pts), kn_points=kn_points)


def tuned_schedule(t_end: float, *,
                   k_start: float = 0.0,
                   k_max: float = 1.0,
                   kn_high: float = 1.0,
                   kn_on_frac: float = 0.1,
                   kn_off_frac: float = 0.75,
                   kn_zero_frac: float = 0.9,
                   ks_ramps: int = 5,
                   ks_first_peak: float = 0.5,
                   ks_last_peak: float = 2.0,
                   ks_final: float = 2.5) -> Schedule:
    """Growing locking ramps and a pre-readout cool-down.

    Same ingredients as baseline_schedule (linear K, stepped noise, repeated
    locking ramps) plus two empirical changes that matter at readout: the
    ramp peaks grow so late ramps re-binarise against the strengthened
    coupling, and the noise is taken back to zero before the end so the
    final spins are read from a settled state, held by a last locking rise.
    The CLI and the benchmark use baseline_schedule; whether this schedule
    should replace it is open until a quality workload compares the two.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if ks_ramps < 1:
        raise ValueError("need at least one locking ramp")
    if not 0 < kn_on_frac < kn_off_frac < kn_zero_frac <= 1.0:
        raise ValueError("noise fractions must satisfy 0 < on < off < zero <= 1")
    k_points = ((0.0, k_start), (t_end, k_max))
    eps = 1e-9 * t_end
    t_on, t_off, t_zero = (f * t_end for f in (kn_on_frac, kn_off_frac, kn_zero_frac))
    kn_points = ((0.0, 0.0), (t_on, 0.0), (t_on + eps, kn_high),
                 (t_off, kn_high), (t_zero, 0.0))
    ks_pts = [(0.0, 0.0)]
    half = t_end / (2 * ks_ramps)
    for r in range(ks_ramps):
        frac = r / (ks_ramps - 1) if ks_ramps > 1 else 1.0
        peak = ks_first_peak + (ks_last_peak - ks_first_peak) * frac
        ks_pts.append(((2 * r + 1) * half, peak))
        if r < ks_ramps - 1:
            ks_pts.append(((2 * r + 2) * half, 0.0))
    ks_pts.append((t_end, ks_final))
    return Schedule(t_end=t_end, k_points=k_points,
                    ks_points=tuple(ks_pts), kn_points=kn_points)
