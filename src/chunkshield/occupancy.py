"""Set-based reachable occupancies for robot links and ball obstacles.

Obstacles are balls whose occupancy grows linearly with the verification
horizon (measurement error plus worst-case travel). The robot occupancy
over a time interval is a per-link, per-subinterval hull capsule: the
link capsule at the subinterval's start and end configurations, inflated
by tracking error and a travel bound for interior times. Everything here
over-approximates; soundness is what the safety argument rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import RobotModel, capsule_points_batch


@dataclass(frozen=True)
class TimeInterval:
    t_a: float
    t_b: float

    def __post_init__(self):
        if not (self.t_a <= self.t_b):
            raise ValueError("interval requires t_a <= t_b")


@dataclass(frozen=True)
class ObstacleState:
    """A measured ball obstacle with declared motion and sensing bounds.

    Every field must be finite, so a corrupt measurement fails here rather
    than inside the verifier.
    """

    measured_center: np.ndarray
    shape_radius: float
    v_max_obj: float
    meas_error: float
    meas_time: float

    def __post_init__(self):
        center = np.asarray(self.measured_center, dtype=float).reshape(3)
        if not np.isfinite(center).all():
            raise ValueError("measured_center must be finite")
        object.__setattr__(self, "measured_center", center)
        for name in ("shape_radius", "v_max_obj", "meas_error"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.meas_time):
            raise ValueError("meas_time must be finite")

    def occupancy_radius(self, t_b: float) -> float:
        """Ball radius covering all positions up to time t_b."""
        if t_b < self.meas_time:
            raise ValueError("occupancy queried before measurement time")
        return self.shape_radius + self.meas_error \
            + self.v_max_obj * (t_b - self.meas_time)


def segment_closest(p0, p1, point):
    """Distance from point to segment(s) p0-p1 and the closest segment point.

    Broadcasts over leading dims; returns (distance, foot point).
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    point = np.asarray(point, dtype=float)
    d = p1 - p0
    denom = np.einsum("...i,...i->...", d, d)
    t = np.einsum("...i,...i->...", point - p0, d)
    t = np.clip(t / np.where(denom > 0.0, denom, 1.0), 0.0, 1.0)
    foot = p0 + t[..., None] * d
    return np.linalg.norm(point - foot, axis=-1), foot


def capsule_clearance(p0, p1, link_r, center, ball_r):
    """Surface distance between link capsules and ball(s), minimum over links.

    Links run along the last axis of link_r (and the second-to-last of
    p0/p1); everything broadcasts. Negative values are penetration depth.
    """
    dist, _ = segment_closest(p0, p1, center)
    return (dist - link_r - ball_r).min(axis=-1)


@dataclass(frozen=True)
class RobotOccupancy:
    """Hull capsules per (subinterval, link) covering a trajectory window.

    t_edges has m+1 entries for m contiguous subintervals; p0/p1 are
    (m, n_links, 3) capsule axes and radii is (m, n_links).
    """

    t_edges: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    radii: np.ndarray
    s_edges: np.ndarray | None = None
    v_edges: np.ndarray | None = None

    @property
    def n_intervals(self) -> int:
        return self.radii.shape[0]

    def margins_batch(self, obstacles) -> np.ndarray:
        """Per-obstacle, per-interval lower bound on the distance (m).

        Shape (n_obs, m). Uses each obstacle's occupancy ball at the
        subinterval's end time, which presumes the measurement is no
        later than the interval start; nonpositive entries mean the
        occupancies may intersect there.
        """
        centers = np.stack([o.measured_center for o in obstacles])
        base = np.array([o.shape_radius + o.meas_error for o in obstacles])
        rate = np.array([o.v_max_obj for o in obstacles])
        t0 = np.array([o.meas_time for o in obstacles])
        obs_r = base[:, None] + rate[:, None] \
            * (self.t_edges[None, 1:] - t0[:, None])
        return capsule_clearance(self.p0[None], self.p1[None], self.radii[None],
                                 centers[:, None, None, :], obs_r[:, :, None])


def robot_occupancy(model: RobotModel, traj, interval: TimeInterval,
                    n_sub: int) -> RobotOccupancy:
    """Occupancy of the commanded trajectory over [t_a, t_b].

    Splits the interval into n_sub pieces. Per piece and link the hull
    capsule connects the endpoint-configuration capsule midpoints; its
    radius covers both endpoint capsules exactly (half the endpoint
    travel), interior configurations (motion bound times the maximum
    joint travel, itself bounded through the path tangent), and the
    tracking error.
    """
    if n_sub < 1:
        raise ValueError("n_sub must be >= 1")
    ts = np.linspace(interval.t_a, interval.t_b, n_sub + 1)
    s, v, _, _ = traj.profile.sample(ts - traj.t0)
    s = np.atleast_1d(s)
    v = np.atleast_1d(v)
    qs = traj.path.point(s)
    pts = capsule_points_batch(model, qs)

    g1, _, _ = traj.path.derivative_bounds()
    tangent_peak = float(g1.max()) if g1.size else 0.0
    # s is nondecreasing, so per-subinterval joint travel is bounded by
    # tangent_peak * delta_s.
    lam = model.motion_bound * tangent_peak * np.diff(s)

    a_lo, a_hi = pts[:-1, :, 0], pts[1:, :, 0]
    b_lo, b_hi = pts[:-1, :, 1], pts[1:, :, 1]
    chord = np.maximum(np.linalg.norm(a_hi - a_lo, axis=-1),
                       np.linalg.norm(b_hi - b_lo, axis=-1))
    link_r = np.array([c[3] for c in model.capsules])
    radii = link_r[None, :] + 0.5 * chord + lam[:, None] + model.tracking_error
    return RobotOccupancy(
        t_edges=ts,
        p0=0.5 * (a_lo + a_hi),
        p1=0.5 * (b_lo + b_hi),
        radii=radii,
        s_edges=s,
        v_edges=v,
    )
