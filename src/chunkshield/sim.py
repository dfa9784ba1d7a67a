"""Deterministic scenario rollouts: scripted obstacles, filters, audits.

One rollout advances a scripted chunk policy, a safety filter, and a set
of scripted ball obstacles on a shared control clock. Everything that
influences recorded numbers is seeded, so the same (scenario, seed) pair
reproduces the same trace byte for byte; wall-clock timings are kept in
memory only and never written to files.

Obstacles yield to the robot: each tick they move toward their nominal
pattern position by at most v_max_obj * alpha_s, then get pushed out of
the robot body to a small standoff, with the total displacement capped
again. The declared v_max_obj therefore always dominates the true speed,
which is what the verifier assumes; penetration can only happen when the
robot closes in faster than the obstacle can retreat.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .cbf import CbfController, CbfParams
from .chunks import ActionChunk, ScriptedPlanner, integrate_chunk
from .model import (JointState, RobotModel, capsule_points_batch,
                    kinetic_energy_batch)
from .occupancy import ObstacleState, capsule_clearance, segment_closest
from .scenario import (FILTERS, ObstacleSpec, ScenarioConfig, ScenarioError,
                       write_trace)
from .shield import SafetySpec, Shield
from .trajectory import PlanningError, Trajectory, plan_intended

PHASES = ("INTENDED", "FAILSAFE")
SOURCES = ("staged", "continue", "recover", "hold", "none")
_PHASE_CODE = {name: i for i, name in enumerate(PHASES)}
_SOURCE_CODE = {name: i for i, name in enumerate(SOURCES)}


def _nearest_surface(cap_p0, cap_p1, cap_r, x):
    """Distance from x to the nearest capsule surface and the axis foot point."""
    dist, feet = segment_closest(cap_p0, cap_p1, x)
    dist = dist - cap_r
    i = int(np.argmin(dist))
    return float(dist[i]), feet[i]


class ObstacleScript:
    """Executes one obstacle pattern with robot-yielding anti-penetration."""

    def __init__(self, spec: ObstacleSpec, standoff: float):
        self.spec = spec
        self.standoff = float(standoff)
        self.pos = self._nominal(0.0)

    def _nominal(self, t: float) -> np.ndarray:
        spec = self.spec
        if spec.pattern == "linear_patrol":
            p0 = np.asarray(spec.p0, dtype=float)
            seg = np.asarray(spec.p1, dtype=float) - p0
            length = float(np.linalg.norm(seg))
            if length < 1e-12 or spec.speed == 0.0:
                return p0.copy()
            u = (spec.speed * t) % (2.0 * length)
            frac = u if u <= length else 2.0 * length - u
            return p0 + seg * (frac / length)
        if spec.pattern == "circle":
            ang = spec.omega * t + spec.phase
            offset = spec.radius_path * np.array([np.cos(ang), np.sin(ang), 0.0])
            return np.asarray(spec.center, dtype=float) + offset
        return np.asarray(spec.p0, dtype=float).copy()

    def advance(self, t_next: float, dt: float, cap_p0, cap_p1, cap_r) -> None:
        """One tick of motion toward the pattern target, yielding to the robot."""
        spec = self.spec
        cap = spec.v_max_obj * dt
        if spec.pattern == "chase":
            _, target = _nearest_surface(cap_p0, cap_p1, cap_r, self.pos)
            step_len = min(spec.speed * dt, cap)
        else:
            target = self._nominal(t_next)
            step_len = cap
        step = target - self.pos
        norm = float(np.linalg.norm(step))
        if norm > step_len:
            step = np.zeros(3) if step_len == 0.0 else step * (step_len / norm)
        cand = self.pos + step
        dist, foot = _nearest_surface(cap_p0, cap_p1, cap_r, cand)
        gap = dist - spec.shape_radius - self.standoff
        if gap < 0.0:
            away = cand - foot
            away_n = float(np.linalg.norm(away))
            if away_n < 1e-12:
                away = self.pos - foot
                away_n = float(np.linalg.norm(away))
            if away_n >= 1e-12:
                cand = cand - away * (gap / away_n)
            delta = cand - self.pos
            dn = float(np.linalg.norm(delta))
            if dn > cap and dn > 0.0:
                cand = self.pos + delta * (cap / dn)
        self.pos = cand


def _corrupt(rng, center: np.ndarray, meas_error: float) -> np.ndarray:
    """Measured center: the true one plus noise bounded by meas_error."""
    vec = rng.uniform(-1.0, 1.0, 3)
    n = float(np.linalg.norm(vec))
    if n > 1.0:
        vec = vec / n
    return center + meas_error * vec


@dataclass
class RolloutTrace:
    """Per-tick record of one rollout; row k is the state at time t[k]."""

    scenario: str
    filter_name: str
    seed: int
    alpha_s: float
    mode: str
    t_safe: float
    t: np.ndarray
    q_cmd: np.ndarray
    dq_cmd: np.ndarray
    q_true: np.ndarray
    phase: np.ndarray
    source: np.ndarray
    adopted: np.ndarray
    stopped_unsafe: np.ndarray
    min_margin: np.ndarray
    max_energy: np.ndarray
    plan_idx: np.ndarray
    obs_true: np.ndarray
    plans: list
    chunks: list
    rejected_handoffs: int
    planning_failures: int
    clamped_chunks: int
    wall_times: np.ndarray

    @property
    def n_ticks(self) -> int:
        return self.t.shape[0]


def run_rollout(cfg: ScenarioConfig, model: RobotModel, filter_name: str,
                seed: int) -> RolloutTrace:
    """Simulate one seeded episode of the scenario under the given filter."""
    if filter_name not in FILTERS:
        raise ScenarioError(f"unknown filter {filter_name!r}")
    n = model.n_joints
    q0 = np.asarray(cfg.q_start, dtype=float)
    if q0.shape != (n,):
        raise ScenarioError(f"q_start has length {q0.shape[0]}, robot has {n} joints")
    if np.any(q0 < model.limits.q_min) or np.any(q0 > model.limits.q_max):
        raise ScenarioError("q_start violates joint position limits")
    goals = np.atleast_2d(np.asarray(cfg.planner.goals, dtype=float))
    if goals.shape[1] != n:
        raise ScenarioError("planner goals do not match the robot joint count")

    root = np.random.SeedSequence(entropy=(int(seed), zlib.crc32(cfg.name.encode())))
    planner_ss, meas_ss, dist_ss = root.spawn(3)
    planner_rng = np.random.default_rng(planner_ss)
    meas_rng = np.random.default_rng(meas_ss)

    bias = np.zeros(n)
    if cfg.disturbance:
        if model.tracking_error <= 0.0 or model.motion_bound <= 0.0:
            raise ScenarioError("disturbance needs tracking_error > 0")
        # Constant per-episode joint offset whose workspace effect stays
        # within the tracking_error budget the occupancies already carry.
        bias = np.random.default_rng(dist_ss).uniform(-1.0, 1.0, n) \
            * (model.tracking_error / model.motion_bound)

    planner = ScriptedPlanner(goals=goals, horizon=cfg.horizon,
                              dt=cfg.dt_action, step_cap=cfg.planner.step_cap,
                              noise=cfg.planner.noise, goal_tol=cfg.goal_tol)
    scripts = [ObstacleScript(o, cfg.standoff) for o in cfg.obstacles]
    movable = [sc for sc in scripts
               if not (sc.spec.pattern == "static" and sc.spec.v_max_obj == 0.0)]
    cap_r = np.array([c[3] for c in model.capsules])

    alpha = cfg.alpha_s
    tpc = cfg.ticks_per_chunk
    n_ticks = cfg.n_ticks
    n_obs = len(scripts)
    uses_meas = filter_name != "off"

    t_row = np.empty(n_ticks)
    q_cmd = np.empty((n_ticks, n))
    dq_cmd = np.empty((n_ticks, n))
    q_true = np.empty((n_ticks, n))
    phase = np.zeros(n_ticks, dtype=np.int64)
    source = np.full(n_ticks, _SOURCE_CODE["none"], dtype=np.int64)
    adopted = np.ones(n_ticks, dtype=bool)  # cbf and off adopt every tick
    stopped = np.zeros(n_ticks, dtype=bool)
    min_margin = np.full(n_ticks, np.nan)
    max_energy = np.full(n_ticks, np.nan)
    plan_col = np.full(n_ticks, -1, dtype=np.int64)
    obs_true = np.empty((n_ticks, n_obs, 3))
    wall = np.zeros(n_ticks)
    plans: list[Trajectory] = []
    chunks: list[ActionChunk] = []
    planning_failures = 0
    clamped_chunks = 0
    cur_plan = -1
    zeros = np.zeros(n)

    # Every filter plans each chunk from the row it last commanded, which
    # starts at rest at q0. cbf and off follow the last plan they made; the
    # shield verifies a plan before adopting it.
    shield = ctl = None
    if filter_name in ("pacs", "pacs-single"):
        spec = SafetySpec(mode=cfg.mode, t_safe=cfg.t_safe,
                          energy_margin=cfg.energy_margin)
        shield = Shield(model, spec, alpha, q0)
    elif filter_name == "cbf":
        ctl = CbfController(model, CbfParams(), alpha, q0)
    single = filter_name == "pacs-single"
    h_exec = 1 if single else cfg.exec_steps
    q_last, dq_last = q0, zeros
    followed = Trajectory.hold(q0, 0.0, 0.0)
    adopted_end = -np.inf

    t = 0.0
    for k in range(n_ticks):
        t_next = t + alpha
        measured = None
        if uses_meas:
            measured = [ObstacleState(
                measured_center=_corrupt(meas_rng, sc.pos, sc.spec.meas_error),
                shape_radius=sc.spec.shape_radius,
                v_max_obj=sc.spec.v_max_obj,
                meas_error=sc.spec.meas_error,
                meas_time=t) for sc in scripts]

        # pacs-single replans once its adopted one-action plan has run out.
        if (t + 1e-12 >= adopted_end) if single else (k % tpc == 0):
            state = JointState._trusted(q_last, dq_last, zeros, zeros)
            chunk = planner.propose(t, state, planner_rng)
            chunks.append(chunk)
            wp = integrate_chunk(q_last, chunk, h_exec, model.limits)
            clamped_chunks += int(wp.clamped)
            try:
                traj = plan_intended(wp.waypoints, dq_last, model.limits, t0=t)
            except PlanningError:
                planning_failures += 1
            else:
                if shield is None:
                    followed = traj
                    plans.append(traj)
                    cur_plan = len(plans) - 1
                elif shield.set_trajectory(traj):
                    plans.append(traj)

        if shield is not None:
            cmd, info = shield.step(measured)
            if info.source == "staged" and info.adopted:
                # Only this tick's plan can have been staged.
                cur_plan = len(plans) - 1
                adopted_end = plans[cur_plan].end_time
            phase[k] = _PHASE_CODE[info.phase]
            source[k] = _SOURCE_CODE[info.source]
            adopted[k] = info.adopted
            stopped[k] = info.stopped_unsafe
            min_margin[k] = info.verdict.min_margin
            max_energy[k] = info.verdict.max_energy
            wall[k] = info.wall_time
        elif ctl is not None:
            # Until a first plan exists, cbf aims at its own last command.
            q_ref = followed.state(t_next).q if cur_plan >= 0 else q_last
            q = ctl.step(q_ref, measured)
            cmd = JointState._trusted(q, (q - q_last) / alpha, zeros, zeros)
        else:
            cmd = followed.state(t_next)
        q_last, dq_last = cmd.q, cmd.dq
        q_cmd[k], dq_cmd[k] = q_last, dq_last

        plan_col[k] = cur_plan
        q_true[k] = q_cmd[k] + bias
        if movable:
            caps = capsule_points_batch(model, q_true[k][None])[0]
            for sc in movable:
                sc.advance(t_next, alpha, caps[:, 0], caps[:, 1], cap_r)
        for j, sc in enumerate(scripts):
            obs_true[k, j] = sc.pos
        t_row[k] = t_next
        t = t_next

    return RolloutTrace(
        scenario=cfg.name, filter_name=filter_name, seed=int(seed),
        alpha_s=alpha, mode=cfg.mode, t_safe=cfg.t_safe,
        t=t_row, q_cmd=q_cmd, dq_cmd=dq_cmd, q_true=q_true,
        phase=phase, source=source, adopted=adopted, stopped_unsafe=stopped,
        min_margin=min_margin, max_energy=max_energy, plan_idx=plan_col,
        obs_true=obs_true, plans=plans, chunks=chunks,
        rejected_handoffs=shield.rejected_handoffs if shield is not None else 0,
        planning_failures=planning_failures, clamped_chunks=clamped_chunks,
        wall_times=wall)


# ---------------------------------------------------------------------------
# Audits and metrics


def true_clearances(trace: RolloutTrace, model: RobotModel,
                    cfg: ScenarioConfig) -> np.ndarray:
    """Per-tick surface clearance between the true robot and every obstacle."""
    n_ticks = trace.n_ticks
    if not cfg.obstacles:
        return np.full(n_ticks, np.inf)
    caps = capsule_points_batch(model, trace.q_true)
    cap_r = np.array([c[3] for c in model.capsules])
    out = np.full(n_ticks, np.inf)
    for j, spec in enumerate(cfg.obstacles):
        clear = capsule_clearance(caps[:, :, 0], caps[:, :, 1], cap_r,
                                  trace.obs_true[:, j][:, None, :],
                                  spec.shape_radius)
        out = np.minimum(out, clear)
    return out


def ground_truth_check(trace: RolloutTrace, model: RobotModel,
                       cfg: ScenarioConfig) -> list[int]:
    """Ticks where the true state violates the active safety notion.

    Clearance < 0 is a violation outright in ssm mode; in pfl mode only
    while the robot's kinetic energy exceeds the t_safe threshold.
    """
    if not cfg.obstacles:
        return []
    contact = true_clearances(trace, model, cfg) < 0.0
    if cfg.mode == "pfl":
        ke = kinetic_energy_batch(model, trace.q_true, trace.dq_cmd)
        contact &= ke > cfg.t_safe
    return np.nonzero(contact)[0].tolist()


def path_deviation(trace: RolloutTrace) -> np.ndarray:
    """Distance from each commanded sample to its active intended path.

    Evaluated once per trace and kept on it, read-only, so the metrics and
    the trace file of one episode share the pass.
    """
    dev = getattr(trace, "_path_dev", None)
    if dev is None:
        dev = np.full(trace.n_ticks, np.nan)
        for i, plan in enumerate(trace.plans):
            ticks = np.nonzero(trace.plan_idx == i)[0]
            for k in ticks:
                dev[k] = plan.path.distance_to(trace.q_cmd[k])
        dev.flags.writeable = False
        trace._path_dev = dev
    return dev


@dataclass(frozen=True)
class Metrics:
    """Episode summary derived purely from the recorded trace."""

    violation_ticks: tuple
    success: bool
    time_to_goal: float
    min_clearance: float
    max_path_dev: float
    interventions: int
    stopped_ticks: int
    rejected_handoffs: int
    planning_failures: int

    @property
    def violations(self) -> int:
        return len(self.violation_ticks)


def compute_metrics(trace: RolloutTrace, model: RobotModel,
                    cfg: ScenarioConfig, path_dev: bool = False) -> Metrics:
    violations = ground_truth_check(trace, model, cfg)
    clear = true_clearances(trace, model, cfg)

    goals = np.atleast_2d(np.asarray(cfg.planner.goals, dtype=float))
    idx = 0
    success = True
    time_to_goal = float(cfg.duration)
    for g in goals:
        within = np.abs(trace.q_true[idx:] - g[None, :]).max(axis=1) <= cfg.goal_tol
        hits = np.nonzero(within)[0]
        if hits.size == 0:
            success = False
            break
        idx += int(hits[0])
    if success:
        time_to_goal = float(trace.t[idx])

    max_dev = np.nan
    if path_dev:
        dev = path_deviation(trace)
        if np.any(np.isfinite(dev)):
            max_dev = float(np.nanmax(dev))

    return Metrics(
        violation_ticks=tuple(violations),
        success=success,
        time_to_goal=time_to_goal,
        min_clearance=float(clear.min()),
        max_path_dev=max_dev,
        interventions=int(np.count_nonzero(trace.phase == _PHASE_CODE["FAILSAFE"])),
        stopped_ticks=int(np.count_nonzero(trace.stopped_unsafe)),
        rejected_handoffs=trace.rejected_handoffs,
        planning_failures=trace.planning_failures)


def run_suite(cfg: ScenarioConfig, model: RobotModel, filter_name: str,
              seeds, path_dev: bool = False):
    """Yield (trace, metrics) per seed, in order, holding one trace at a time."""
    for seed in seeds:
        trace = run_rollout(cfg, model, filter_name, int(seed))
        yield trace, compute_metrics(trace, model, cfg, path_dev=path_dev)


# ---------------------------------------------------------------------------
# Trace files


def save_rollout_trace(path: str, trace: RolloutTrace,
                       extra_header: dict | None = None) -> None:
    """Write the per-tick trace as a deterministic CSV.

    The path_dev column is derived data from path_deviation; wall times
    are deliberately not part of the file.
    """
    n_ticks, n = trace.q_cmd.shape
    n_obs = trace.obs_true.shape[1]
    dev = path_deviation(trace)
    columns = (["tick", "t"]
               + [f"q{j}" for j in range(n)]
               + [f"q_true{j}" for j in range(n)]
               + [f"dq{j}" for j in range(n)]
               + ["phase", "source", "adopted", "stopped_unsafe",
                  "min_margin", "max_energy", "plan", "path_dev"])
    for i in range(n_obs):
        columns += [f"obs{i}_x", f"obs{i}_y", f"obs{i}_z"]
    blocks = [np.arange(n_ticks, dtype=float)[:, None], trace.t[:, None],
              trace.q_cmd, trace.q_true, trace.dq_cmd,
              trace.phase[:, None].astype(float),
              trace.source[:, None].astype(float),
              trace.adopted[:, None].astype(float),
              trace.stopped_unsafe[:, None].astype(float),
              trace.min_margin[:, None], trace.max_energy[:, None],
              trace.plan_idx[:, None].astype(float), dev[:, None]]
    if n_obs:
        blocks.append(trace.obs_true.reshape(n_ticks, -1))
    rows = np.hstack(blocks)
    header = {
        "scenario": trace.scenario,
        "filter": trace.filter_name,
        "seed": trace.seed,
        "mode": trace.mode,
        "t_safe": repr(trace.t_safe),
        "alpha_s": repr(trace.alpha_s),
        "n_joints": n,
        "n_obstacles": n_obs,
        "rejected_handoffs": trace.rejected_handoffs,
        "planning_failures": trace.planning_failures,
    }
    if extra_header:
        header.update(extra_header)
    phase_col = 2 + 3 * n
    write_trace(path, header, columns, rows,
                str_cols={phase_col: list(PHASES), phase_col + 1: list(SOURCES)})
