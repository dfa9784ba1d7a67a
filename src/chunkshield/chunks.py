"""Action chunks of delta joint positions and their waypoint integration.

A chunk is what a chunked policy emits at one inference step: H deltas at
sampling time dt. Only the first h deltas become the waypoint path the
safety layer executes. The scripted planner stands in for a learned
policy; it is deterministic given its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import JointState, KinematicLimits


@dataclass(frozen=True)
class ActionChunk:
    """H delta joint position actions emitted together at one policy step."""

    deltas: np.ndarray
    dt: float
    issued_at: float = 0.0

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.deltas, dtype=float))
        if d.shape[0] < 1:
            raise ValueError("chunk needs at least one action")
        if not np.all(np.isfinite(d)):
            raise ValueError("chunk deltas must be finite")
        if not (self.dt > 0.0):
            raise ValueError("dt must be > 0")
        d.flags.writeable = False
        object.__setattr__(self, "deltas", d)

    @property
    def horizon(self) -> int:
        return self.deltas.shape[0]

    @property
    def n_joints(self) -> int:
        return self.deltas.shape[1]


@dataclass(frozen=True)
class WaypointPath:
    """Integrated positions q0..qh plus a clamp audit flag."""

    waypoints: np.ndarray
    clamped: bool = False

    def __post_init__(self):
        w = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        w.flags.writeable = False
        object.__setattr__(self, "waypoints", w)


def integrate_chunk(q0, chunk: ActionChunk, h: int,
                    limits: KinematicLimits) -> WaypointPath:
    """Prefix sums of the first h deltas from q0, clamped to the joint box.

    waypoints[k] = q0 + sum of deltas[:k] for k = 0..h; any clamp is
    recorded so rollouts can audit out-of-limit actions.
    """
    q0 = np.asarray(q0, dtype=float)
    if not (1 <= h <= chunk.horizon):
        raise ValueError(f"h={h} outside 1..{chunk.horizon}")
    if q0.shape[0] != chunk.n_joints:
        raise ValueError("q0 and chunk joint counts differ")
    raw = np.vstack([q0, q0 + np.cumsum(chunk.deltas[:h], axis=0)])
    clipped = np.clip(raw, limits.q_min, limits.q_max)
    clamped = bool(np.any(clipped != raw))
    return WaypointPath(waypoints=clipped, clamped=clamped)


@dataclass
class ScriptedPlanner:
    """Deterministic goal-seeking chunk source standing in for a policy.

    Each action moves every joint toward the active goal, at most step_cap
    per joint, with optional bounded uniform noise (also capped). The
    active goal advances when the current position is within goal_tol of
    it; at the final goal the planner emits zero chunks.
    """

    goals: np.ndarray
    horizon: int
    dt: float
    step_cap: float
    noise: float = 0.0
    goal_tol: float = 1e-3
    _active: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.goals = np.atleast_2d(np.asarray(self.goals, dtype=float))
        if self.goals.shape[0] < 1:
            raise ValueError("planner needs at least one goal")
        if self.horizon < 1 or self.step_cap <= 0.0:
            raise ValueError("horizon must be >= 1 and step_cap > 0")
        if not (0.0 <= self.noise <= 1.0):
            raise ValueError("noise is a fraction of step_cap in [0, 1]")

    def propose(self, t: float, state: JointState, rng) -> ActionChunk:
        q = state.q
        while (self._active + 1 < self.goals.shape[0]
               and np.abs(q - self.goals[self._active]).max() <= self.goal_tol):
            self._active += 1
        goal = self.goals[self._active]
        at_final = (self._active == self.goals.shape[0] - 1
                    and np.abs(q - goal).max() <= self.goal_tol)
        deltas = np.zeros((self.horizon, q.shape[0]))
        if not at_final:
            pos = q.copy()
            for i in range(self.horizon):
                step = np.clip(goal - pos, -self.step_cap, self.step_cap)
                if self.noise > 0.0:
                    step = step + self.noise * self.step_cap \
                        * rng.uniform(-1.0, 1.0, q.shape[0])
                    step = np.clip(step, -self.step_cap, self.step_cap)
                deltas[i] = step
                pos = pos + step
        return ActionChunk(deltas=deltas, dt=self.dt, issued_at=t)
