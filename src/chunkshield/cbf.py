"""Reactive velocity-level barrier filter, the comparison baseline.

The filter nudges a desired joint velocity just enough to keep a distance
barrier nonnegative: h(q) = clearance(q) - d_min and the constraint
grad_h . dq >= -gamma * h. Corrections act along the barrier gradient in
joint space, so unlike the path-consistent shield this baseline trades
geometric fidelity for clearance: filtered motion leaves the intended
path whenever an obstacle gets close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (RobotModel, as_joint_vector, capsule_points_batch,
                    point_jacobians_batch)
from .occupancy import segment_closest


@dataclass(frozen=True)
class CbfParams:
    """Barrier gain (1/s) and standoff distance (m)."""

    gamma: float = 5.0
    d_min: float = 0.05

    def __post_init__(self):
        if self.gamma <= 0.0 or self.d_min < 0.0:
            raise ValueError("gamma must be > 0, d_min >= 0")


def _closest_pair(model: RobotModel, q, obstacles):
    """Clearance, then the obstacle, link and link-axis parameter attaining it."""
    pts = capsule_points_batch(model, np.asarray(q, dtype=float)[None, :])[0]
    centers = np.stack([obs.measured_center for obs in obstacles])
    radii = np.array([obs.shape_radius + obs.meas_error for obs in obstacles])
    dist, foot = segment_closest(pts[:, 0], pts[:, 1], centers[:, None, :])
    gaps = dist - np.array([c[3] for c in model.capsules]) - radii[:, None]
    k, c = np.unravel_index(np.argmin(gaps), gaps.shape)
    axis = pts[c, 1] - pts[c, 0]
    t = (foot[k, c] - pts[c, 0]) @ axis / max(axis @ axis, np.finfo(float).tiny)
    return float(gaps[k, c]), k, c, t


def clearance(model: RobotModel, q, obstacles) -> float:
    """Smallest surface distance between any link and any measured obstacle.

    Obstacles enter with their measured center and shape radius plus
    measurement error; the baseline is reactive and does not predict
    obstacle motion.
    """
    return _closest_pair(model, q, obstacles)[0] if obstacles else np.inf


def barrier_value(model: RobotModel, params: CbfParams, q, obstacles) -> float:
    """h(q) = clearance - d_min; nonnegative means the standoff holds."""
    return clearance(model, q, obstacles) - params.d_min


def barrier_gradient(model: RobotModel, params: CbfParams, q,
                     obstacles) -> np.ndarray:
    """(foot - c)/|foot - c| times the chain Jacobian of foot, two FK passes.

    c is the closest obstacle center and foot its closest point on the
    closest link's axis. One-sided where the closest pair switches; zero
    without obstacles or with c on the link axis, which has no direction.
    """
    q = np.asarray(q, dtype=float)
    if obstacles:
        _, k, c, t = _closest_pair(model, q, obstacles)
        joint, a, b, _ = model.capsules[c]
        foot, jac = point_jacobians_batch(model, q[None, :], [joint],
                                          [a + t * (b - a)])
        normal = foot[0, 0] - obstacles[k].measured_center
        dist = np.linalg.norm(normal)
        if dist > 0.0:
            return (normal / dist) @ jac[0, 0]
    return np.zeros(q.shape[0])


def filter_velocity(model: RobotModel, params: CbfParams, q, dq_des,
                    obstacles) -> np.ndarray:
    """Minimal correction of dq_des that satisfies the barrier constraint.

    Solves the one-constraint QP in closed form: if the constraint
    grad . dq >= -gamma*h is already met the input passes through
    unchanged; otherwise the correction is the smallest vector along the
    gradient that restores it.
    """
    dq_des = np.asarray(dq_des, dtype=float)
    if not obstacles:
        return dq_des.copy()
    h = barrier_value(model, params, q, obstacles)
    grad = barrier_gradient(model, params, q, obstacles)
    denom = float(grad @ grad)
    if denom < 1e-12:
        return dq_des.copy()
    slack = -params.gamma * h - float(grad @ dq_des)
    lam = max(0.0, slack / denom)
    return dq_des + lam * grad


class CbfController:
    """Tick-level tracker of an intended trajectory through the barrier filter.

    Each control tick it aims at the intended sample one tick ahead,
    filters the resulting velocity, clamps it to the joint velocity box,
    and integrates. State is just the current commanded configuration.
    """

    def __init__(self, model: RobotModel, params: CbfParams, alpha_s: float, q0):
        if alpha_s <= 0.0:
            raise ValueError("alpha_s must be > 0")
        self.model = model
        self.params = params
        self.alpha_s = float(alpha_s)
        self.q = as_joint_vector(q0, model.n_joints).copy()

    def step(self, q_ref_next, obstacles) -> np.ndarray:
        """Advance one tick toward q_ref_next; returns the new commanded q."""
        q_ref_next = np.asarray(q_ref_next, dtype=float)
        dq_des = (q_ref_next - self.q) / self.alpha_s
        dq = filter_velocity(self.model, self.params, self.q, dq_des, obstacles)
        lim = self.model.limits
        dq = np.clip(dq, -lim.v_max, lim.v_max)
        self.q = np.clip(self.q + dq * self.alpha_s, lim.q_min, lim.q_max)
        return self.q.copy()
