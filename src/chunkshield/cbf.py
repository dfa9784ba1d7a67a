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

from .model import RobotModel, as_joint_vector, capsule_points_batch
from .occupancy import capsule_clearance

# Central finite-difference step (rad) of the barrier gradient.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class CbfParams:
    """Barrier gain (1/s) and standoff distance (m)."""

    gamma: float = 5.0
    d_min: float = 0.05

    def __post_init__(self):
        if self.gamma <= 0.0 or self.d_min < 0.0:
            raise ValueError("gamma must be > 0, d_min >= 0")


def clearance(model: RobotModel, q, obstacles) -> float:
    """Smallest surface distance between any link and any measured obstacle.

    Obstacles enter with their measured center and shape radius plus
    measurement error; the baseline is reactive and does not predict
    obstacle motion.
    """
    q = np.asarray(q, dtype=float)
    pts = capsule_points_batch(model, q[None, :])[0]
    link_r = np.array([c[3] for c in model.capsules])
    best = np.inf
    for obs in obstacles:
        r = obs.shape_radius + obs.meas_error
        best = min(best, float(capsule_clearance(pts[:, 0], pts[:, 1], link_r,
                                                 obs.measured_center, r)))
    return best


def barrier_value(model: RobotModel, params: CbfParams, q, obstacles) -> float:
    """h(q) = clearance - d_min; nonnegative means the standoff holds."""
    return clearance(model, q, obstacles) - params.d_min


def barrier_gradient(model: RobotModel, params: CbfParams, q,
                     obstacles) -> np.ndarray:
    """Central finite-difference gradient of the barrier."""
    q = np.asarray(q, dtype=float)
    grad = np.zeros(q.shape[0])
    for j in range(q.shape[0]):
        step = np.zeros_like(q)
        step[j] = _FD_STEP
        hi = barrier_value(model, params, q + step, obstacles)
        lo = barrier_value(model, params, q - step, obstacles)
        grad[j] = (hi - lo) / (2.0 * _FD_STEP)
    return grad


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
