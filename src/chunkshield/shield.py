"""Real-time safety shield for path-consistent filtering of chunked policies.

The shield owns one committed trajectory that was verified safe: some
prefix of the intended trajectory followed by a braking profile on the
same path. Each safety step it builds a candidate that follows the
intended motion one step longer before braking, verifies the candidate
against set-based occupancies, and either commits it or keeps executing
the already verified failsafe. By induction a verified failsafe always
exists, so interventions only ever change the timing along the path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .model import JointState, RobotModel, kinetic_energy_batch
from .occupancy import ObstacleState, TimeInterval, robot_occupancy
from .profiles import append_brake, time_optimal_profile
from .trajectory import Trajectory

# Maximum positional gap (rad) tolerated when handing off a new intended
# trajectory; larger gaps mean the chunk was integrated from stale state.
HANDOFF_TOL = 1e-6

# Most subintervals one verification splits its window into; longer
# windows merge safety steps proportionally.
_N_SUB_CAP = 64


@dataclass(frozen=True)
class SafetySpec:
    """Constraint mode and thresholds the verifier enforces.

    mode "ssm" forbids any possible contact; "pfl" allows contact while
    the robot's kinetic energy bound stays at or below t_safe. delta_e is
    the multiplicative margin covering interior energy variation between
    sampled interval endpoints. t_safe, energy_margin and delta_e must be
    finite and >= 0, since a NaN threshold would pass every comparison.
    """

    mode: str
    t_safe: float = 0.0
    energy_margin: float = 0.0
    delta_e: float = 0.05

    def __post_init__(self):
        if self.mode not in ("ssm", "pfl"):
            raise ValueError(f"unknown safety mode {self.mode!r}")
        if not all(math.isfinite(x) and x >= 0.0
                   for x in (self.t_safe, self.energy_margin, self.delta_e)):
            raise ValueError("thresholds and margins must be finite and >= 0")
        if self.mode == "ssm" and self.t_safe != 0.0:
            raise ValueError("ssm requires t_safe == 0")


@dataclass(frozen=True)
class Verdict:
    """Outcome of verifying one monitored trajectory.

    min_margin is a lower bound on the occupancy distance over all
    subintervals and obstacles; max_energy is the largest per-interval
    kinetic energy bound among intervals that may intersect (0 if none).
    """

    safe: bool
    min_margin: float
    max_energy: float
    first_violation: tuple[int, int, float, float] | None
    n_intervals: int


@dataclass(frozen=True)
class StepInfo:
    """Diagnostics for one shield step; wall_time never enters trace files."""

    verdict: Verdict
    phase: str
    source: str
    adopted: bool
    stopped_unsafe: bool
    wall_time: float


def steps_per_chunk(h: int, dt_action: float, alpha_s: float) -> int:
    """Number of safety steps per executed chunk window, h*dt/alpha_s.

    The ratio must be an integer; anything else is a configuration error
    because the loops would drift apart.
    """
    raw = h * dt_action / alpha_s
    n = round(raw)
    if n < 1 or abs(raw - n) > 1e-6:
        raise ValueError(
            f"h*dt_action must be an integer multiple of alpha_s, got {raw}")
    return n


def verify(model: RobotModel, traj: Trajectory, window: TimeInterval,
           obstacles, spec: SafetySpec, alpha_s: float,
           cache: dict | None = None) -> Verdict:
    """Check one monitored trajectory against all obstacle occupancies.

    The window is split into one subinterval per safety step, capped at
    _N_SUB_CAP with proportional merging. SSM fails on any possible
    intersection; PFL tolerates intersecting intervals whose robot
    kinetic-energy upper bound plus margin stays within t_safe.

    The check fails closed. A margin that is not a finite positive number
    counts as possibly intersecting, and so does every subinterval of an
    obstacle measured after window.t_a, whose occupancy ball would shrink
    backwards in time. A PFL energy bound not <= t_safe (NaN too) is over.

    cache, when given, carries the occupancy (stored with window-relative
    times) and edge energies across calls whose candidate differs only by
    a uniform time shift; the caller owns invalidation.
    """
    span = window.t_b - window.t_a
    n_sub = int(np.clip(np.ceil(span / alpha_s) if span > 0.0 else 1,
                        1, _N_SUB_CAP))
    if not obstacles:
        return Verdict(safe=True, min_margin=np.inf, max_energy=0.0,
                       first_violation=None, n_intervals=n_sub)

    occ = None
    if cache is not None:
        rel = cache.get("occ")
        if rel is not None:
            occ = replace(rel, t_edges=rel.t_edges + window.t_a)
    if occ is None:
        occ = robot_occupancy(model, traj, window, n_sub)
        if cache is not None:
            cache["occ"] = replace(occ, t_edges=occ.t_edges - window.t_a)

    margins = occ.margins_batch(obstacles)
    for k, o in enumerate(obstacles):
        if o.meas_time > window.t_a:
            margins[k] = -np.inf
    min_margin = float(margins.min())

    max_energy = 0.0
    energies = cache.get("energies") if cache is not None else None
    first_violation = None
    safe = True
    for k in range(len(obstacles)):
        # Not "margins <= 0": a NaN margin must count as intersecting.
        bad = np.flatnonzero(~(margins[k] > 0.0))
        if bad.size == 0:
            continue
        if spec.mode == "ssm":
            safe = False
            if first_violation is None:
                i = int(bad[0])
                first_violation = (k, i, float(occ.t_edges[i]),
                                   float(occ.t_edges[i + 1]))
            continue
        if energies is None:
            dq = traj.path.derivative(occ.s_edges, 1) * occ.v_edges[:, None]
            q = traj.path.point(occ.s_edges)
            energies = kinetic_energy_batch(model, q, dq)
            if cache is not None:
                cache["energies"] = energies
        bounds = (1.0 + spec.delta_e) * np.maximum(energies[bad],
                                                   energies[bad + 1])
        max_energy = max(max_energy, float(bounds.max()))
        over = ~(bounds + spec.energy_margin <= spec.t_safe)
        if np.any(over):
            safe = False
            if first_violation is None:
                i = int(bad[np.argmax(over)])
                first_violation = (k, i, float(occ.t_edges[i]),
                                   float(occ.t_edges[i + 1]))
    return Verdict(safe=safe, min_margin=min_margin,
                   max_energy=max_energy, first_violation=first_violation,
                   n_intervals=occ.n_intervals)


class Shield:
    """Owner of the verify-then-command loop at period alpha_s."""

    def __init__(self, model: RobotModel, spec: SafetySpec, alpha_s: float,
                 q0, t0: float = 0.0):
        if alpha_s <= 0.0:
            raise ValueError("alpha_s must be > 0")
        self.model = model
        self.spec = spec
        self.alpha_s = float(alpha_s)
        self._t = float(t0)
        self._committed = Trajectory.hold(np.asarray(q0, dtype=float), 0.0, t0)
        self._intended: Trajectory | None = None
        self._staged: Trajectory | None = None
        self._switch = float(t0)
        self.rejected_handoffs = 0
        self._recover_src: Trajectory | None = None
        self._recover_state: tuple | None = None
        self._recover_profile = None
        self._recover_vcache: dict = {}

    @property
    def t(self) -> float:
        return self._t

    def commanded_state(self) -> JointState:
        return self._committed.state(self._t)

    def set_trajectory(self, traj: Trajectory) -> bool:
        """Stage a new intended trajectory; False if the handoff gap is too big.

        A rejected handoff leaves the committed trajectory running; the
        caller learns about it through the return value and the counter.
        """
        q_now = self.commanded_state().q
        q_start = traj.state(traj.t0).q
        if np.abs(q_start - q_now).max() > HANDOFF_TOL:
            self.rejected_handoffs += 1
            return False
        self._staged = traj
        return True

    def _candidate_base(self) -> tuple[str, Trajectory]:
        if self._staged is not None:
            return "staged", self._staged
        if self._intended is None:
            return "hold", self._committed
        if self._switch >= self._t or self._intended.scalar_limits is None:
            # Still on the intended timeline (or holding still, which needs
            # no re-timing): extend the brake switch.
            return "continue", self._intended
        # Braking already began: recover by re-timing the remaining path
        # from the current scalar state. While the robot rests blocked the
        # scalar state repeats every step, so the re-timed profile is cached.
        s, v, a = self._committed.scalar_state(self._t)
        if (self._recover_src is self._intended
                and self._recover_state == (s, v, a)):
            profile = self._recover_profile
        else:
            profile = time_optimal_profile(self._intended.path.s_total,
                                           (s, v, a),
                                           self._intended.scalar_limits)
            self._recover_src = self._intended
            self._recover_state = (s, v, a)
            self._recover_profile = profile
            self._recover_vcache = {}
        recovered = Trajectory(path=self._intended.path, profile=profile,
                               scalar_limits=self._intended.scalar_limits,
                               t0=self._t)
        return "recover", recovered

    def _monitored(self, base: Trajectory, t_switch: float) -> Trajectory:
        if base.scalar_limits is None:
            return base
        combined, _ = append_brake(base.profile, t_switch - base.t0,
                                   base.scalar_limits)
        return Trajectory(path=base.path, profile=combined,
                          scalar_limits=base.scalar_limits, t0=base.t0)

    def step(self, obstacles) -> tuple[JointState, StepInfo]:
        """One safety step: verify a one-step-longer candidate, then command.

        Safe candidate: commit it and emit its sample at t + alpha_s.
        Unsafe: emit the next sample of the already verified committed
        trajectory, which brakes to a stop on the path.
        """
        start = time.perf_counter()
        t_next = self._t + self.alpha_s
        source, base = self._candidate_base()
        candidate = self._monitored(base, t_next)
        window = TimeInterval(self._t, max(candidate.end_time, t_next))
        # A recover candidate repeats across rest ticks up to a uniform
        # time shift, so its occupancy and energies are reusable.
        verdict = verify(self.model, candidate, window, obstacles,
                         self.spec, self.alpha_s,
                         cache=self._recover_vcache
                         if source == "recover" else None)
        if verdict.safe:
            self._committed = candidate
            self._switch = t_next
            if source in ("staged", "recover"):
                self._intended = base
        if self._staged is not None:
            # Staged chunks get exactly one verification attempt; on
            # failure the old committed failsafe keeps running and the
            # next chunk proposes from wherever the robot ends up.
            self._staged = None
        command = self._committed.state(t_next)
        stopped_unsafe = (not verdict.safe
                          and float(np.abs(command.dq).max()) == 0.0)
        self._t = t_next
        phase = "INTENDED" if verdict.safe else "FAILSAFE"
        info = StepInfo(verdict=verdict, phase=phase, source=source,
                        adopted=verdict.safe, stopped_unsafe=stopped_unsafe,
                        wall_time=time.perf_counter() - start)
        return command, info
