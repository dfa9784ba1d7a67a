"""Geometric joint-space paths and time parameterized trajectories.

A path is a natural cubic spline through waypoints, parameterized by
joint-space chord length. A trajectory is a path plus a scalar profile
s(t); all joint derivatives follow from the chain rule, so slowing down
or braking changes only the timing, never the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize_scalar

from .model import KinematicLimits, JointState, as_joint_vector
from .profiles import (
    ScalarLimits,
    ScalarProfile,
    hold_profile,
    time_optimal_profile,
)

# Consecutive waypoints closer than this (rad, joint-space norm) collapse.
MERGE_TOL = 1e-9

# Fractions of the acceleration/jerk budgets reserved for the curvature and
# torsion terms of the chain rule; keeps the remaining linear-term budgets
# strictly positive.
_CURV_ACC_BUDGET = 0.5
_CURV_JERK_BUDGET = 0.25

# Rounds of midpoint insertion plan_intended tries before giving up on a
# spline that overshoots the joint box.
_MAX_SUBDIVISIONS = 2


class PlanningError(ValueError):
    """Raised when no limit-respecting trajectory exists for the request."""


def merge_waypoints(waypoints: np.ndarray, tol: float = MERGE_TOL) -> np.ndarray:
    """Drop consecutive duplicates (joint-space distance < tol)."""
    pts = np.atleast_2d(np.asarray(waypoints, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("need at least one waypoint")
    keep = [0]
    for i in range(1, pts.shape[0]):
        if np.linalg.norm(pts[i] - pts[keep[-1]]) >= tol:
            keep.append(i)
    return pts[keep].copy()


class GeometricPath:
    """Fixed joint-space curve gamma(s), s in [0, s_total].

    Natural cubic spline on chord-length knots; a single waypoint gives a
    degenerate path that stays put. The geometry never changes after
    construction; timing lives entirely in the scalar profile.
    """

    def __init__(self, waypoints):
        pts = merge_waypoints(waypoints)
        if not np.all(np.isfinite(pts)):
            raise ValueError("waypoints contain non-finite values")
        self._pts = pts
        self.n_joints = pts.shape[1]
        if pts.shape[0] == 1:
            self.s_total = 0.0
            self._spline = None
            self._knots = np.zeros(1)
            return
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        self._knots = np.concatenate([[0.0], np.cumsum(chords)])
        self.s_total = float(self._knots[-1])
        self._spline = CubicSpline(self._knots, pts, axis=0, bc_type="natural")
        self._bounds_cache = None

    @property
    def waypoints(self) -> np.ndarray:
        return self._pts.copy()

    @property
    def degenerate(self) -> bool:
        return self._spline is None

    def point(self, s):
        """gamma(s); accepts a scalar or an array of arc parameters."""
        if self._spline is None:
            s = np.asarray(s, dtype=float)
            out = np.broadcast_to(self._pts[0], s.shape + (self.n_joints,))
            return out.copy()
        return self._spline(np.clip(s, 0.0, self.s_total))

    def derivative(self, s, order: int = 1):
        """d^order gamma / ds^order, clamped to the path domain."""
        if self._spline is None:
            s = np.asarray(s, dtype=float)
            return np.zeros(s.shape + (self.n_joints,))
        return self._spline(np.clip(s, 0.0, self.s_total), nu=order)

    def _segment_coeffs(self):
        # CubicSpline coefficients: (4, n_seg, n_joints), highest power first.
        c = self._spline.c
        widths = np.diff(self._knots)
        return c[0], c[1], c[2], c[3], widths

    def derivative_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact per-joint maxima of |gamma'|, |gamma''|, |gamma'''| over the path.

        Piecewise-cubic structure makes these closed form: the first
        derivative is quadratic per segment (check endpoints and vertex),
        the second is linear (endpoints), the third is constant.
        """
        if self._spline is None:
            z = np.zeros(self.n_joints)
            return z, z.copy(), z.copy()
        if self._bounds_cache is not None:
            return self._bounds_cache
        c3, c2, c1, _c0, widths = self._segment_coeffs()
        h = widths[:, None]

        d1_lo = np.abs(c1)
        d1_hi = np.abs(3.0 * c3 * h**2 + 2.0 * c2 * h + c1)
        with np.errstate(divide="ignore", invalid="ignore"):
            u_star = np.where(np.abs(c3) > 0.0, -c2 / (3.0 * c3), -1.0)
        inside = (u_star > 0.0) & (u_star < h)
        d1_mid = np.where(
            inside,
            np.abs(3.0 * c3 * u_star**2 + 2.0 * c2 * u_star + c1),
            0.0,
        )
        g1 = np.maximum.reduce([d1_lo, d1_hi, d1_mid]).max(axis=0)

        d2_lo = np.abs(2.0 * c2)
        d2_hi = np.abs(6.0 * c3 * h + 2.0 * c2)
        g2 = np.maximum(d2_lo, d2_hi).max(axis=0)

        g3 = np.abs(6.0 * c3).max(axis=0)
        self._bounds_cache = (g1, g2, g3)
        return self._bounds_cache

    def position_extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact per-joint min and max of gamma over the whole path."""
        if self._spline is None:
            return self._pts[0].copy(), self._pts[0].copy()
        c3, c2, c1, c0, widths = self._segment_coeffs()
        h = widths[:, None]
        vals = [c0, c3 * h**3 + c2 * h**2 + c1 * h + c0]
        # Interior extrema where the derivative quadratic has real roots.
        a, b, c = 3.0 * c3, 2.0 * c2, c1
        disc = b**2 - 4.0 * a * c
        ok = (disc >= 0.0) & (np.abs(a) > 0.0)
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for sign in (-1.0, 1.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.where(ok, (-b + sign * sq) / (2.0 * a), -1.0)
            inside = ok & (root > 0.0) & (root < h)
            val = c3 * root**3 + c2 * root**2 + c1 * root + c0
            vals.append(np.where(inside, val, c0))
        # Linear segments (a == 0): monotone, endpoints suffice.
        stacked = np.stack(vals)
        return stacked.min(axis=(0, 1)), stacked.max(axis=(0, 1))

    def distance_to(self, q) -> float:
        """Joint-space distance from q to the nearest point on the path."""
        q = as_joint_vector(q, self.n_joints)
        if self._spline is None:
            return float(np.linalg.norm(q - self._pts[0]))
        grid = np.linspace(0.0, self.s_total, 256)
        d = np.linalg.norm(self.point(grid) - q[None, :], axis=1)
        k = int(np.argmin(d))
        lo = grid[max(k - 1, 0)]
        hi = grid[min(k + 1, grid.shape[0] - 1)]
        if hi <= lo:
            return float(d[k])
        res = minimize_scalar(
            lambda s: float(np.linalg.norm(self.point(s) - q)),
            bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return float(min(res.fun, d[k]))


def scalar_limits_from_bounds(g1, g2, g3,
                              limits: KinematicLimits) -> ScalarLimits:
    """Conservative scalar limits given per-joint path derivative maxima.

    With g1, g2, g3 the per-joint maxima of |gamma'|, |gamma''|, |gamma'''|,
    |dq| <= g1*v, |ddq| <= g2*v^2 + g1*a, |dddq| <= g3*v^3 + 3*g2*v*a + g1*j.
    The curvature and torsion terms get fixed budget fractions so the
    leftover for the linear terms stays positive.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    g3 = np.asarray(g3, dtype=float)
    active = g1 > 1e-12
    if not np.any(active):
        raise ValueError("path has no active joints")
    v_cands = [np.min(limits.v_max[active] / g1[active])]
    curved = g2 > 1e-12
    if np.any(curved):
        v_cands.append(np.min(np.sqrt(
            _CURV_ACC_BUDGET * limits.a_max[curved] / g2[curved])))
    twisted = g3 > 1e-12
    if np.any(twisted):
        v_cands.append(np.min(np.cbrt(
            _CURV_JERK_BUDGET * limits.j_max[twisted] / g3[twisted])))
    v_max = float(min(v_cands))

    a_cands = [np.min((limits.a_max[active] - g2[active] * v_max**2) / g1[active])]
    if np.any(curved):
        a_cands.append(np.min(
            _CURV_JERK_BUDGET * limits.j_max[curved] / (3.0 * g2[curved] * v_max)))
    a_max = float(min(a_cands))

    j_num = limits.j_max[active] - g3[active] * v_max**3 \
        - 3.0 * g2[active] * v_max * a_max
    j_max = float(np.min(j_num / g1[active]))
    if v_max <= 0.0 or a_max <= 0.0 or j_max <= 0.0:
        raise ValueError("scalar limit derivation produced a non-positive bound")
    return ScalarLimits(v_max=v_max, a_max=a_max, j_max=j_max)


def derive_scalar_limits(path: GeometricPath, limits: KinematicLimits) -> ScalarLimits:
    """Conservative scalar limits for timing a path within joint limits."""
    if path.degenerate:
        raise ValueError("degenerate path has no scalar limits")
    g1, g2, g3 = path.derivative_bounds()
    return scalar_limits_from_bounds(g1, g2, g3, limits)


def initial_path_speed(path: GeometricPath, dq, scalar_limits: ScalarLimits) -> float:
    """Projection of the current joint velocity onto the path start direction.

    Negative projections clamp to zero (the path only moves forward) and the
    result is capped at the path speed limit.
    """
    if path.degenerate:
        return 0.0
    tangent = path.derivative(0.0, 1)
    denom = float(tangent @ tangent)
    if denom < 1e-18:
        return 0.0
    raw = float(np.asarray(dq, dtype=float) @ tangent) / denom
    return float(np.clip(raw, 0.0, scalar_limits.v_max))


@dataclass(frozen=True)
class Trajectory:
    """A geometric path timed by a scalar profile, anchored at time t0."""

    path: GeometricPath
    profile: ScalarProfile
    scalar_limits: ScalarLimits | None
    t0: float = 0.0

    @property
    def duration(self) -> float:
        return self.profile.duration

    @property
    def end_time(self) -> float:
        return self.t0 + self.profile.duration

    def sample(self, ts):
        """Joint position and first three derivatives at absolute times ts.

        Returns (q, dq, ddq, dddq), each (m, n_joints).
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        s, v, a, j = self.profile.sample(ts - self.t0)
        s = np.atleast_1d(s)
        v = np.atleast_1d(v)
        a = np.atleast_1d(a)
        j = np.atleast_1d(j)
        q = self.path.point(s)
        g1 = self.path.derivative(s, 1)
        g2 = self.path.derivative(s, 2)
        g3 = self.path.derivative(s, 3)
        dq = g1 * v[:, None]
        ddq = g2 * v[:, None]**2 + g1 * a[:, None]
        dddq = g3 * v[:, None]**3 + 3.0 * g2 * (v * a)[:, None] + g1 * j[:, None]
        return q, dq, ddq, dddq

    def state(self, t: float) -> JointState:
        q, dq, ddq, dddq = self.sample(float(t))
        return JointState._trusted(q[0], dq[0], ddq[0], dddq[0])

    def scalar_state(self, t: float) -> tuple[float, float, float]:
        """(s, ds, dds) of the underlying profile at absolute time t."""
        s, v, a, _ = self.profile.sample(float(t) - self.t0)
        return s, v, a

    @classmethod
    def hold(cls, q, duration: float, t0: float = 0.0) -> "Trajectory":
        """Stay at q for the given duration."""
        q = as_joint_vector(q)
        path = GeometricPath(q[None, :])
        return cls(path=path, profile=hold_profile(0.0, duration),
                   scalar_limits=None, t0=t0)


def _joint_box_ok(path: GeometricPath, limits: KinematicLimits,
                  tol: float = 1e-9) -> np.ndarray:
    lo, hi = path.position_extrema()
    return (lo >= limits.q_min - tol) & (hi <= limits.q_max + tol)


def plan_intended(waypoints, dq_start, limits: KinematicLimits,
                  t0: float = 0.0) -> Trajectory:
    """Time-optimal trajectory through the waypoints, ending at rest.

    The first waypoint is the current position. The spline may overshoot
    the joint position box between waypoints; offending segments get a
    clamped midpoint inserted and the path is rebuilt, at most
    _MAX_SUBDIVISIONS times before giving up. A single distinct waypoint
    gives a zero-length hold.
    """
    pts = merge_waypoints(waypoints)
    if pts.shape[0] == 1:
        return Trajectory.hold(pts[0], 0.0, t0=t0)
    if np.any(pts < limits.q_min - 1e-9) or np.any(pts > limits.q_max + 1e-9):
        raise PlanningError("waypoints violate joint position limits")

    path = GeometricPath(pts)
    for _ in range(_MAX_SUBDIVISIONS):
        if np.all(_joint_box_ok(path, limits)):
            break
        pts = path.waypoints
        # Full-path extrema do not localize the offending segment, so pin
        # the midpoint of every segment; extra interior points are harmless.
        mids = 0.5 * (pts[:-1] + pts[1:])
        mids = np.clip(mids, limits.q_min, limits.q_max)
        woven = np.empty((pts.shape[0] * 2 - 1, pts.shape[1]))
        woven[0::2] = pts
        woven[1::2] = mids
        path = GeometricPath(woven)
    else:
        if not np.all(_joint_box_ok(path, limits)):
            raise PlanningError(
                "spline exceeds joint position limits after subdivision")

    scalar_limits = derive_scalar_limits(path, limits)
    ds0 = initial_path_speed(path, dq_start, scalar_limits)
    profile = time_optimal_profile(path.s_total, (0.0, ds0, 0.0), scalar_limits)
    return Trajectory(path=path, profile=profile,
                      scalar_limits=scalar_limits, t0=t0)
