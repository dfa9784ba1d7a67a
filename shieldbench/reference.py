"""Independent geometry and energy reference for the benchmark's checks.

Nothing here imports chunkshield. The robot and scenario YAML files are
read directly, forward kinematics is a plain Rodrigues chain, clearance
is the exact capsule-to-ball surface distance, and kinetic energy comes
from the analytic joint Jacobian of each point mass (omega_i x r), not
from finite differences. The checks compare the library's outputs with
these values, so a fault shared by the library's own audit code and its
verifier cannot hide behind agreement between the two.
"""

from __future__ import annotations

import os

import numpy as np
import yaml


class Robot:
    """Serial chain read from a robot YAML file: offsets, axes, capsules, masses."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        self.offsets = np.array(raw["joint_offsets"], dtype=float)
        axes = np.array(raw["joint_axes"], dtype=float)
        self.axes = axes / np.linalg.norm(axes, axis=1, keepdims=True)
        self.cap_joint = np.array([int(c["joint"]) for c in raw["capsules"]])
        self.cap_local = np.array([[c["p0"], c["p1"]] for c in raw["capsules"]],
                                  dtype=float)
        self.cap_radius = np.array([float(c["radius"]) for c in raw["capsules"]])
        self.mass_joint = np.array([int(m["joint"]) for m in raw["masses"]])
        self.mass_local = np.array([m["point"] for m in raw["masses"]],
                                   dtype=float)
        self.mass = np.array([float(m["mass"]) for m in raw["masses"]])
        lim = raw["limits"]
        self.q_min = np.array(lim["q_min"], dtype=float)
        self.q_max = np.array(lim["q_max"], dtype=float)
        self.v_max = np.array(lim["v_max"], dtype=float)
        self.a_max = np.array(lim["a_max"], dtype=float)

    @property
    def n_joints(self) -> int:
        return self.offsets.shape[0]

    def frames(self, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World rotations (m, n, 3, 3) and origins (m, n, 3) of the joint frames.

        Joint i sits at origin_{i-1} + R_{i-1} offset_i and turns about its
        own axis; R_i = R_{i-1} Rot(axis_i, q_i) by Rodrigues' formula.
        """
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        m, n = qs.shape
        rots = np.empty((m, n, 3, 3))
        origins = np.empty((m, n, 3))
        r = np.broadcast_to(np.eye(3), (m, 3, 3))
        p = np.zeros((m, 3))
        for i in range(n):
            k = _skew(self.axes[i])
            theta = qs[:, i][:, None, None]
            local = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
            p = p + np.einsum("mij,j->mi", r, self.offsets[i])
            r = np.einsum("mij,mjk->mik", r, local)
            rots[:, i] = r
            origins[:, i] = p
        return rots, origins

    def capsule_points(self, qs: np.ndarray) -> np.ndarray:
        """World capsule endpoints, (m, n_capsules, 2, 3)."""
        rots, origins = self.frames(qs)
        r = rots[:, self.cap_joint]
        o = origins[:, self.cap_joint]
        return o[:, :, None, :] + np.einsum("mcij,cpj->mcpi", r, self.cap_local)

    def mass_points(self, qs: np.ndarray) -> np.ndarray:
        """World positions of the point masses, (m, n_masses, 3)."""
        return self._mass_points(*self.frames(qs))

    def _mass_points(self, rots: np.ndarray, origins: np.ndarray) -> np.ndarray:
        return origins[:, self.mass_joint] + np.einsum(
            "mkij,kj->mki", rots[:, self.mass_joint], self.mass_local)

    def mass_velocities(self, qs: np.ndarray, dqs: np.ndarray) -> np.ndarray:
        """Linear velocity of each point mass, (m, n_masses, 3).

        v = sum over joints i up to the mass's frame of
        (omega_i x (p - o_i)) dq_i, with omega_i = R_i axis_i the joint's
        world axis (a rotation leaves its own axis fixed).
        """
        qs = np.atleast_2d(np.asarray(qs, dtype=float))
        dqs = np.atleast_2d(np.asarray(dqs, dtype=float))
        rots, origins = self.frames(qs)
        omega = np.einsum("mnij,nj->mni", rots, self.axes)
        points = self._mass_points(rots, origins)
        out = np.zeros_like(points)
        for k, j in enumerate(self.mass_joint):
            for i in range(j + 1):
                out[:, k] += np.cross(omega[:, i], points[:, k] - origins[:, i]) \
                    * dqs[:, i][:, None]
        return out

    def kinetic_energy(self, qs: np.ndarray, dqs: np.ndarray) -> np.ndarray:
        """Point-mass kinetic energy (J) per state."""
        v = self.mass_velocities(qs, dqs)
        return 0.5 * np.einsum("k,mk->m", self.mass, np.einsum("mki,mki->mk", v, v))


def _skew(u: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -u[2], u[1]],
                     [u[2], 0.0, -u[0]],
                     [-u[1], u[0], 0.0]])


class Scenario:
    """The fields of a scenario YAML file that the checks rely on."""

    def __init__(self, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        self.name = raw["name"]
        self.mode = raw["mode"]
        self.t_safe = float(raw.get("t_safe", 0.0))
        self.alpha_s = float(raw["alpha_s"])
        self.q_start = np.array(raw["q_start"], dtype=float)
        self.obstacle_radius = np.array(
            [float(o["shape_radius"]) for o in raw.get("obstacles") or []])
        self.robot = Robot(os.path.join(os.path.dirname(path), raw["robot"]))


def clearance(robot: Robot, qs: np.ndarray, obstacle_centers: np.ndarray,
              obstacle_radius: np.ndarray) -> np.ndarray:
    """Smallest surface distance between the arm and any obstacle, per tick.

    qs is (m, n_joints) and obstacle_centers (m, n_obs, 3); negative values
    are penetration depth, and +inf means there are no obstacles.
    """
    m = np.atleast_2d(qs).shape[0]
    if obstacle_radius.size == 0:
        return np.full(m, np.inf)
    pts = robot.capsule_points(qs)
    a = pts[:, None, :, 0]
    b = pts[:, None, :, 1]
    x = obstacle_centers[:, :, None, :]
    ab = b - a
    length2 = np.sum(ab * ab, axis=-1)
    frac = np.sum((x - a) * ab, axis=-1) / np.where(length2 > 0.0, length2, 1.0)
    foot = a + np.clip(frac, 0.0, 1.0)[..., None] * ab
    dist = np.linalg.norm(x - foot, axis=-1) \
        - robot.cap_radius[None, None, :] - obstacle_radius[None, :, None]
    return dist.min(axis=(1, 2))
