"""Serial-chain robot model: capsule link geometry, point-mass energy, limits.

The model is deliberately minimal: a chain of revolute joints, each defined
by a fixed translation offset followed by a rotation about a fixed axis.
Link geometry is a set of capsules attached to joint frames, and the energy
model is a sum of point masses. Everything is immutable after construction
and all operations are pure functions, so models can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def as_joint_vector(values, n: int | None = None) -> np.ndarray:
    """Validate and convert to a 1-D float array of joint values.

    Raises ValueError on wrong dimension, wrong length, or non-finite
    entries. The returned array is a copy marked read-only.
    """
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"joint vector must be 1-D, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise ValueError(f"joint vector has length {v.shape[0]}, expected {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError("joint vector contains non-finite values")
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class KinematicLimits:
    """Per-joint position box and symmetric velocity/acceleration/jerk bounds."""

    q_min: np.ndarray
    q_max: np.ndarray
    v_max: np.ndarray
    a_max: np.ndarray
    j_max: np.ndarray

    def __post_init__(self):
        for name in ("q_min", "q_max", "v_max", "a_max", "j_max"):
            object.__setattr__(self, name, as_joint_vector(getattr(self, name)))
        n = self.q_min.shape[0]
        for name in ("q_max", "v_max", "a_max", "j_max"):
            if getattr(self, name).shape[0] != n:
                raise ValueError("limit vectors must share one joint count")
        if not np.all(self.q_min < self.q_max):
            raise ValueError("q_min must be < q_max elementwise")
        for name in ("v_max", "a_max", "j_max"):
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"{name} must be > 0 elementwise")

    @property
    def n_joints(self) -> int:
        return self.q_min.shape[0]


@dataclass(frozen=True)
class JointState:
    """Full kinematic state of the arm: position and its first three derivatives."""

    q: np.ndarray
    dq: np.ndarray
    ddq: np.ndarray
    dddq: np.ndarray

    def __post_init__(self):
        n = len(np.atleast_1d(self.q))
        for name in ("q", "dq", "ddq", "dddq"):
            object.__setattr__(self, name, as_joint_vector(getattr(self, name), n))

    @classmethod
    def _trusted(cls, q, dq, ddq, dddq) -> "JointState":
        # Construction from already validated internal arrays; skips the
        # per-field checks, which matter on the control-period hot path.
        st = object.__new__(cls)
        object.__setattr__(st, "q", q)
        object.__setattr__(st, "dq", dq)
        object.__setattr__(st, "ddq", ddq)
        object.__setattr__(st, "dddq", dddq)
        return st

    @classmethod
    def rest(cls, q) -> "JointState":
        q = as_joint_vector(q)
        z = np.zeros_like(q)
        return cls(q, z, z, z)


@dataclass(frozen=True)
class RobotModel:
    """Kinematic description of an n-joint serial arm.

    joint_offsets[i] is the fixed translation from frame i-1 to joint i,
    expressed in frame i-1; joint_axes[i] is the unit rotation axis of
    joint i in its own frame. Capsules and point masses attach to joint
    frames (joint index, local coordinates).

    tracking_error is the workspace-space bound (m) on how far the real
    robot may deviate from the commanded configuration; it feeds the
    occupancy inflation.
    """

    joint_offsets: np.ndarray
    joint_axes: np.ndarray
    capsules: tuple[tuple[int, np.ndarray, np.ndarray, float], ...]
    masses: tuple[tuple[int, np.ndarray, float], ...]
    limits: KinematicLimits
    tracking_error: float = 0.0
    motion_bound: float = field(init=False, default=0.0)

    def __post_init__(self):
        offs = np.asarray(self.joint_offsets, dtype=float)
        axes = np.asarray(self.joint_axes, dtype=float)
        if offs.ndim != 2 or offs.shape[1] != 3 or axes.shape != offs.shape:
            raise ValueError("joint_offsets and joint_axes must both be (n, 3)")
        n = offs.shape[0]
        if self.limits.n_joints != n:
            raise ValueError("limits joint count does not match chain length")
        norms = np.linalg.norm(axes, axis=1)
        if np.any(norms < 1e-12):
            raise ValueError("joint axes must be nonzero")
        axes = axes / norms[:, None]
        offs.flags.writeable = False
        axes.flags.writeable = False
        object.__setattr__(self, "joint_offsets", offs)
        object.__setattr__(self, "joint_axes", axes)

        caps = []
        for joint, p0, p1, r in self.capsules:
            joint = int(joint)
            if not (0 <= joint < n):
                raise ValueError(f"capsule joint index {joint} out of range")
            if not (r > 0.0):
                raise ValueError("capsule radius must be > 0")
            caps.append((joint,
                         np.asarray(p0, dtype=float).reshape(3),
                         np.asarray(p1, dtype=float).reshape(3),
                         float(r)))
        if not caps:
            raise ValueError("model needs at least one link capsule")
        object.__setattr__(self, "capsules", tuple(caps))

        ms = []
        for joint, point, mass in self.masses:
            joint = int(joint)
            if not (0 <= joint < n):
                raise ValueError(f"mass joint index {joint} out of range")
            if not (mass > 0.0):
                raise ValueError("point mass must be > 0")
            ms.append((joint, np.asarray(point, dtype=float).reshape(3), float(mass)))
        if not ms:
            raise ValueError("model needs at least one point mass")
        object.__setattr__(self, "masses", tuple(ms))

        if self.tracking_error < 0.0:
            raise ValueError("tracking_error must be >= 0")

        object.__setattr__(self, "motion_bound", self._motion_bound())

        # Index/local-coordinate arrays for batched frame transforms.
        object.__setattr__(self, "_capsule_joints",
                           np.array([c[0] for c in self.capsules]))
        object.__setattr__(self, "_capsule_locals",
                           np.stack([np.stack([c[1], c[2]])
                                     for c in self.capsules]))
        object.__setattr__(self, "_mass_joints",
                           np.array([m[0] for m in self.masses]))
        object.__setattr__(self, "_mass_locals",
                           np.stack([m[1] for m in self.masses]))

    @property
    def n_joints(self) -> int:
        return self.joint_offsets.shape[0]

    def _motion_bound(self) -> float:
        # Workspace Lipschitz constant: rotating joint k by delta moves any
        # capsule surface point by at most (distance to joint k origin)*delta,
        # and that distance is bounded by the chain lengths from k onward.
        off_norm = np.linalg.norm(self.joint_offsets, axis=1)
        worst = 0.0
        for joint, p0, p1, r in self.capsules:
            ext = max(np.linalg.norm(p0), np.linalg.norm(p1)) + r
            total = 0.0
            for k in range(joint + 1):
                total += off_norm[k + 1:joint + 1].sum() + ext
            worst = max(worst, total)
        return float(worst)


def _rodrigues(axis: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rodrigues matrices from precomputed cos/sin; axis broadcasts over c/s."""
    ux, uy, uz = axis[..., 0], axis[..., 1], axis[..., 2]
    rot = np.empty(np.broadcast_shapes(c.shape, ux.shape) + (3, 3))
    cc = 1.0 - c
    rot[..., 0, 0] = c + ux * ux * cc
    rot[..., 0, 1] = ux * uy * cc - uz * s
    rot[..., 0, 2] = ux * uz * cc + uy * s
    rot[..., 1, 0] = uy * ux * cc + uz * s
    rot[..., 1, 1] = c + uy * uy * cc
    rot[..., 1, 2] = uy * uz * cc - ux * s
    rot[..., 2, 0] = uz * ux * cc - uy * s
    rot[..., 2, 1] = uz * uy * cc + ux * s
    rot[..., 2, 2] = c + uz * uz * cc
    return rot


def _chain_frames(model: RobotModel, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """World rotation (m, n, 3, 3) and origin (m, n, 3) of every joint frame."""
    qs = np.atleast_2d(np.asarray(qs, dtype=float))
    m, n = qs.shape
    if n != model.n_joints:
        raise ValueError(f"configuration has {n} joints, model has {model.n_joints}")
    # One fused build of all per-joint local rotations, then a short
    # composition loop; this keeps the per-call numpy dispatch count flat
    # in the joint count.
    local = _rodrigues(model.joint_axes, np.cos(qs), np.sin(qs))
    rots = np.empty((m, n, 3, 3))
    origins = np.empty((m, n, 3))
    r_acc = np.broadcast_to(np.eye(3), (m, 3, 3))
    p_acc = np.zeros((m, 3))
    for j in range(n):
        p_acc = p_acc + r_acc @ model.joint_offsets[j]
        r_acc = r_acc @ local[:, j]
        rots[:, j] = r_acc
        origins[:, j] = p_acc
    return rots, origins


def capsule_points_batch(model: RobotModel, qs: np.ndarray) -> np.ndarray:
    """World capsule endpoints for a batch of configurations.

    Returns an (m, n_capsules, 2, 3) array; row order matches model.capsules.
    """
    rots, origins = _chain_frames(model, qs)
    r = rots[:, model._capsule_joints]
    o = origins[:, model._capsule_joints]
    return o[:, :, None, :] + np.einsum("mcij,cpj->mcpi", r,
                                        model._capsule_locals)


def point_jacobians_batch(model: RobotModel, qs: np.ndarray, joints,
                          local_points) -> tuple[np.ndarray, np.ndarray]:
    """World positions (m, k, 3) and Jacobians (m, k, 3, n) of frame-fixed points.

    Point i sits at local_points[i] in the frame of joint joints[i]. Column
    j of its Jacobian is w_j x (p - o_j) for j <= joints[i], with w_j the
    world axis and o_j the origin of joint j, and zero for later joints.
    """
    rots, origins = _chain_frames(model, qs)
    points = origins[:, joints] + np.einsum("mkij,kj->mki", rots[:, joints],
                                            local_points)
    axes = np.einsum("mnij,nj->mni", rots, model.joint_axes)
    cols = np.cross(axes[:, None], points[:, :, None] - origins[:, None])
    cols[:, np.arange(model.n_joints) > np.asarray(joints)[:, None]] = 0.0
    return points, cols.swapaxes(-1, -2)


def point_velocities_batch(model: RobotModel, qs: np.ndarray, dqs: np.ndarray) -> np.ndarray:
    """Linear velocities of all mass points for a batch of states, (m, n_masses, 3).

    Chain Jacobian times dq from one forward kinematics pass, exact to round-off.
    """
    dqs = np.atleast_2d(np.asarray(dqs, dtype=float))
    if np.atleast_2d(qs).shape != dqs.shape:
        raise ValueError("qs and dqs must have matching shapes")
    _, jac = point_jacobians_batch(model, qs, model._mass_joints,
                                   model._mass_locals)
    return np.einsum("mkin,mn->mki", jac, dqs)


def kinetic_energy_batch(model: RobotModel, qs: np.ndarray, dqs: np.ndarray) -> np.ndarray:
    """Point-mass kinetic energy (J) for a batch of states."""
    vels = point_velocities_batch(model, qs, dqs)
    masses = np.array([m for _, _, m in model.masses])
    return 0.5 * np.einsum("k,mk->m", masses, np.einsum("mki,mki->mk", vels, vels))
