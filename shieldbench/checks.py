"""Correctness checks of one rollout against the independent reference.

Every check states a property the method must have, not a stored copy of
an earlier output: commands inside the robot's limits, zero true
violations under the shield, a sound verifier, and agreement of the
library's own audit with an independent count of contact ticks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from reference import Scenario, clearance

SHIELDED = ("pacs", "pacs-single")

# Round-off allowances: positions and distances in rad or m, relative
# slack on velocity, acceleration and energy bounds.
ABS_TOL = 1e-9
REL_TOL = 1e-6

# Rows per reference evaluation, so the checks' arrays stay small next to
# the program's own working set (peak_rss_mb measures the process).
CHUNK = 1000


@dataclass
class RolloutCheck:
    """Outcome of the checks on one rollout."""

    problems: list = field(default_factory=list)
    handoff_jumps: int = 0
    path_length: float = 0.0

    def fail(self, what: str) -> None:
        self.problems.append(what)


def fingerprint(trace, metrics) -> str:
    """Digest of everything a rerun of the same (scenario, filter, seed) must repeat."""
    h = hashlib.sha256()
    for arr in (trace.t, trace.q_cmd, trace.dq_cmd, trace.q_true, trace.phase,
                trace.source, trace.adopted, trace.stopped_unsafe,
                trace.min_margin, trace.max_energy, trace.plan_idx,
                trace.obs_true):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr((metrics.violation_ticks, metrics.success,
                   metrics.time_to_goal, trace.rejected_handoffs,
                   trace.planning_failures, trace.clamped_chunks)).encode())
    return h.hexdigest()


def _reference_state(ref: Scenario, trace):
    """Reference clearance and kinetic energy per tick, in row chunks."""
    n = trace.n_ticks
    clear = np.empty(n)
    energy = np.empty(n)
    for a in range(0, n, CHUNK):
        b = min(a + CHUNK, n)
        q = trace.q_true[a:b]
        clear[a:b] = clearance(ref.robot, q, trace.obs_true[a:b],
                               ref.obstacle_radius)
        energy[a:b] = ref.robot.kinetic_energy(q, trace.dq_cmd[a:b])
    return clear, energy


def _contact(ref: Scenario, clear, energy, slack: float) -> np.ndarray:
    """Violating ticks; slack > 0 widens and slack < 0 narrows the set."""
    hit = clear < slack * ABS_TOL
    if ref.mode == "pfl":
        hit &= energy > ref.t_safe * (1.0 - slack * REL_TOL)
    return hit


def check_rollout(ref: Scenario, filter_name: str, trace, metrics) -> RolloutCheck:
    out = RolloutCheck()
    robot = ref.robot
    alpha = trace.alpha_s
    q = trace.q_cmd
    dq = trace.dq_cmd

    steps = np.diff(np.vstack([ref.q_start, q]), axis=0)
    out.path_length = float(np.linalg.norm(steps, axis=1).sum())

    if np.any(q < robot.q_min - ABS_TOL) or np.any(q > robot.q_max + ABS_TOL):
        out.fail("commanded q leaves the joint box")
    over_v = np.abs(dq) > robot.v_max * (1.0 + REL_TOL)
    if np.any(over_v):
        out.fail(f"|dq| over v_max on {int(over_v.any(axis=1).sum())} ticks")
    if filter_name != "cbf":
        # The velocity-level barrier baseline has no acceleration model;
        # every trajectory-based filter must respect a_max within a plan.
        ddq = np.abs(np.diff(np.vstack([np.zeros(q.shape[1]), dq]), axis=0)) / alpha
        over_a = (ddq > robot.a_max * (1.0 + REL_TOL)).any(axis=1)
        handoff = np.diff(np.concatenate([[-1], trace.plan_idx])) != 0
        out.handoff_jumps = int(np.count_nonzero(over_a & handoff))
        within = over_a & ~handoff
        if np.any(within):
            out.fail(f"|ddq| over a_max inside a plan on {int(within.sum())} ticks")

    clear, energy = _reference_state(ref, trace)
    exact = _contact(ref, clear, energy, 0.0)
    library = np.zeros(trace.n_ticks, dtype=bool)
    library[list(metrics.violation_ticks)] = True
    narrow = _contact(ref, clear, energy, -1.0)
    wide = _contact(ref, clear, energy, 1.0)
    if np.any(narrow & ~library) or np.any(library & ~wide):
        out.fail(f"ground_truth_check flags {int(library.sum())} ticks, "
                 f"the reference {int(exact.sum())}")

    if filter_name in SHIELDED:
        if np.any(exact):
            out.fail(f"{int(exact.sum())} true violations under the shield")
        adopted = trace.adopted
        unsound = adopted & (clear < trace.min_margin - ABS_TOL)
        if np.any(unsound):
            out.fail(f"true clearance below the verified margin on "
                     f"{int(unsound.sum())} adopted ticks")
    return out
