"""Annealing controls: piecewise-linear profiles of K, K_s and K_n.

Each channel is a list of (t, value) control points over [0, t_end];
evaluation interpolates linearly and holds the last value after the final
point.  Steps are encoded with two points an epsilon apart.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Schedule", "baseline_schedule", "constant_schedule"]

Points = tuple[tuple[float, float], ...]
KN_ON_FRAC = 0.1    # the noise switches on at this fraction of t_end
KS_RAMPS = 5        # locking (Ks) ramps per anneal


def _as_points(label: str, points) -> Points:
    pts = tuple((float(t), float(v)) for t, v in points)
    if not pts:
        raise ValueError(f"{label} needs at least one control point")
    if not np.isfinite(pts).all():
        raise ValueError(f"{label} control points must be finite")
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
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        object.__setattr__(self, "k_points", _as_points("K", self.k_points))
        object.__setattr__(self, "ks_points", _as_points("Ks", self.ks_points))
        object.__setattr__(self, "kn_points", _as_points("Kn", self.kn_points))
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

    def eval_arrays(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(K, Ks, Kn) arrays over a time grid inside [0, t_end]."""
        t = np.asarray(t, dtype=np.float64)
        if len(t) and (t.min() < 0.0 or t.max() > self.t_end):
            raise ValueError("time grid outside [0, t_end]")
        return tuple(np.interp(t, ts, vs) for ts, vs in self._arrays)

    def to_json(self) -> str:
        doc = {
            "t_end": self.t_end,
            "K": [[t, v] for t, v in self.k_points],
            "Ks": [[t, v] for t, v in self.ks_points],
            "Kn": [[t, v] for t, v in self.kn_points],
        }
        return json.dumps(doc, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        """Parse to_json's format; a malformed field raises ValueError naming it."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("schedule JSON must be an object with t_end, K, Ks and Kn")
        for key in ("t_end", "K", "Ks", "Kn"):
            if key not in doc:
                raise ValueError(f"schedule JSON lacks field {key!r}")
        try:
            t_end = float(doc["t_end"])
        except (TypeError, ValueError):
            raise ValueError("schedule field 't_end' must be a number") from None
        channels = []
        for key in ("K", "Ks", "Kn"):
            try:
                channels.append(tuple((float(t), float(v)) for t, v in doc[key]))
            except (TypeError, ValueError):
                raise ValueError(f"schedule field {key!r} must be a list of "
                                 "[t, value] pairs") from None
        return cls(t_end, *channels)


def constant_schedule(t_end: float, k: float, ks: float, kn: float) -> Schedule:
    return Schedule(t_end=t_end,
                    k_points=((0.0, k),),
                    ks_points=((0.0, ks),),
                    kn_points=((0.0, kn),))


def baseline_schedule(t_end: float, *, k_max: float = 1.0,
                      kn_high: float = 1.0, ks_max: float = 1.0) -> Schedule:
    """Default annealing profile.

    K ramps linearly 0 -> k_max over [0, t_end]; Kn is 0 until
    KN_ON_FRAC * t_end and then steps up to kn_high; Ks runs KS_RAMPS
    symmetric triangular ramps between 0 and ks_max.  Other shapes are
    built from Schedule control points directly, or loaded from a schedule
    JSON file (Schedule.from_json, the CLI's --schedule).
    """
    t_step = KN_ON_FRAC * t_end
    kn_points = ((0.0, 0.0), (t_step, 0.0), (t_step + 1e-9 * t_end, kn_high))
    half = t_end / (2 * KS_RAMPS)
    ks_pts = [(seg * half, ks_max if seg % 2 else 0.0)
              for seg in range(2 * KS_RAMPS)]
    # keep the final point inside t_end despite rounding
    ks_pts.append((t_end, 0.0))
    return Schedule(t_end=t_end, k_points=((0.0, 0.0), (t_end, k_max)),
                    ks_points=tuple(ks_pts), kn_points=kn_points)
