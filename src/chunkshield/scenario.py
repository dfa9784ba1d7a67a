"""Scenario and robot configuration files and trace serialization.

Configs are YAML; numbers round-trip exactly because emission uses
shortest-repr floats. Trace files are deterministic CSV: given the same
scenario and seed, reruns produce byte-identical bytes, so wall-clock
measurements never enter them.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .model import KinematicLimits, RobotModel
from .shield import steps_per_chunk


class ScenarioError(ValueError):
    """Malformed configuration content (exit code 2 territory)."""


FILTERS = ("pacs", "pacs-single", "cbf", "off")
MODES = ("ssm", "pfl")
PATTERNS = ("static", "linear_patrol", "circle", "chase")


def _float_list(x, what, n=None):
    try:
        vals = tuple(float(v) for v in x)
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"{what} must be a number sequence") from e
    if n is not None and len(vals) != n:
        raise ScenarioError(f"{what} must have length {n}")
    if not all(np.isfinite(vals)):
        raise ScenarioError(f"{what} contains non-finite values")
    return vals


@dataclass(frozen=True)
class ObstacleSpec:
    """One scripted ball obstacle.

    pattern selects the nominal motion; p0/p1 bound a patrol segment,
    center/radius_path/omega/phase describe a circle, and chase needs no
    geometry beyond the start point p0. speed is the nominal pattern
    speed; v_max_obj is the bound the verifier is told, which must
    dominate every actual displacement rate.
    """

    pattern: str
    shape_radius: float
    v_max_obj: float
    meas_error: float = 0.0
    p0: tuple = ()
    p1: tuple = ()
    center: tuple = ()
    radius_path: float = 0.0
    omega: float = 0.0
    phase: float = 0.0
    speed: float = 0.0

    def __post_init__(self):
        if self.pattern not in PATTERNS:
            raise ScenarioError(f"unknown obstacle pattern {self.pattern!r}")
        for name in ("shape_radius", "v_max_obj", "meas_error", "speed",
                     "radius_path"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ScenarioError(f"obstacle {name} must be finite and >= 0")
        if not all(map(math.isfinite, (self.omega, self.phase, *self.p0,
                                       *self.p1, *self.center))):
            raise ScenarioError("obstacle geometry must be finite")
        if self.pattern in ("linear_patrol",):
            if len(self.p0) != 3 or len(self.p1) != 3:
                raise ScenarioError("linear_patrol needs p0 and p1")
        if self.pattern == "circle" and len(self.center) != 3:
            raise ScenarioError("circle needs a center")
        if self.pattern in ("static", "chase") and len(self.p0) != 3:
            raise ScenarioError(f"{self.pattern} needs a start point p0")
        if self.pattern != "static" and self.speed > self.v_max_obj + 1e-12:
            raise ScenarioError("pattern speed exceeds declared v_max_obj")
        if (self.pattern == "circle"
                and self.radius_path * abs(self.omega) > self.v_max_obj + 1e-12):
            raise ScenarioError("circle tangential speed exceeds v_max_obj")


@dataclass(frozen=True)
class PlannerSpec:
    """Scripted chunk policy: goal list, per-action step cap, noise fraction."""

    goals: tuple
    step_cap: float
    noise: float = 0.0

    def __post_init__(self):
        if not self.goals:
            raise ScenarioError("planner needs at least one goal")
        if self.step_cap <= 0.0:
            raise ScenarioError("planner step_cap must be > 0")
        if not (0.0 <= self.noise <= 1.0):
            raise ScenarioError("planner noise must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one rollout needs except the filter choice and the seed."""

    name: str
    robot: str
    mode: str
    t_safe: float
    horizon: int
    exec_steps: int
    dt_action: float
    alpha_s: float
    duration: float
    q_start: tuple
    planner: PlannerSpec
    obstacles: tuple = ()
    energy_margin: float = 0.0
    goal_tol: float = 0.02
    standoff: float = 0.002
    disturbance: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"unknown safety mode {self.mode!r}")
        if not all(math.isfinite(x) and x >= 0.0
                   for x in (self.t_safe, self.energy_margin)):
            raise ScenarioError("t_safe and energy_margin must be finite and >= 0")
        if self.mode == "ssm" and self.t_safe != 0.0:
            raise ScenarioError("ssm requires t_safe == 0")
        if self.horizon < 1 or not (1 <= self.exec_steps <= self.horizon):
            raise ScenarioError("need 1 <= exec_steps <= horizon")
        if not all(math.isfinite(x) and x > 0.0
                   for x in (self.dt_action, self.alpha_s, self.duration)):
            raise ScenarioError(
                "dt_action, alpha_s and duration must be finite and > 0")
        if self.goal_tol <= 0.0 or self.standoff < 0.0:
            raise ScenarioError("goal_tol must be > 0 and standoff >= 0")
        try:
            steps_per_chunk(self.exec_steps, self.dt_action, self.alpha_s)
        except ValueError as e:
            raise ScenarioError(str(e)) from e

    @property
    def ticks_per_chunk(self) -> int:
        return steps_per_chunk(self.exec_steps, self.dt_action, self.alpha_s)

    @property
    def n_ticks(self) -> int:
        return int(round(self.duration / self.alpha_s))


def _tuplify(x):
    if isinstance(x, (list, tuple)):
        return tuple(_tuplify(v) for v in x)
    return x


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario document must be a mapping")
    data = dict(raw)
    try:
        planner_raw = data.pop("planner")
        obstacles_raw = data.pop("obstacles", [])
        planner = PlannerSpec(
            goals=_tuplify([_float_list(g, "goal") for g in planner_raw["goals"]]),
            step_cap=float(planner_raw["step_cap"]),
            noise=float(planner_raw.get("noise", 0.0)),
        )
        obstacles = tuple(
            ObstacleSpec(
                pattern=str(o["pattern"]),
                shape_radius=float(o["shape_radius"]),
                v_max_obj=float(o["v_max_obj"]),
                meas_error=float(o.get("meas_error", 0.0)),
                p0=_float_list(o["p0"], "p0", 3) if "p0" in o else (),
                p1=_float_list(o["p1"], "p1", 3) if "p1" in o else (),
                center=_float_list(o["center"], "center", 3) if "center" in o else (),
                radius_path=float(o.get("radius_path", 0.0)),
                omega=float(o.get("omega", 0.0)),
                phase=float(o.get("phase", 0.0)),
                speed=float(o.get("speed", 0.0)),
            ) for o in obstacles_raw)
        cfg = ScenarioConfig(
            name=str(data.pop("name")),
            robot=str(data.pop("robot")),
            mode=str(data.pop("mode")),
            t_safe=float(data.pop("t_safe", 0.0)),
            energy_margin=float(data.pop("energy_margin", 0.0)),
            horizon=int(data.pop("horizon")),
            exec_steps=int(data.pop("exec_steps")),
            dt_action=float(data.pop("dt_action")),
            alpha_s=float(data.pop("alpha_s")),
            duration=float(data.pop("duration")),
            q_start=_float_list(data.pop("q_start"), "q_start"),
            goal_tol=float(data.pop("goal_tol", 0.02)),
            standoff=float(data.pop("standoff", 0.002)),
            disturbance=bool(data.pop("disturbance", False)),
            planner=planner,
            obstacles=obstacles,
        )
    except KeyError as e:
        raise ScenarioError(f"scenario is missing required field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        if isinstance(e, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario field: {e}") from e
    if data:
        raise ScenarioError(f"unknown scenario fields: {sorted(data)}")
    return cfg


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    planner = {"goals": [list(g) for g in cfg.planner.goals],
               "step_cap": cfg.planner.step_cap,
               "noise": cfg.planner.noise}
    obstacles = []
    for o in cfg.obstacles:
        entry = {"pattern": o.pattern, "shape_radius": o.shape_radius,
                 "v_max_obj": o.v_max_obj, "meas_error": o.meas_error}
        if o.p0:
            entry["p0"] = list(o.p0)
        if o.p1:
            entry["p1"] = list(o.p1)
        if o.center:
            entry["center"] = list(o.center)
        if o.radius_path:
            entry["radius_path"] = o.radius_path
        if o.omega:
            entry["omega"] = o.omega
        if o.phase:
            entry["phase"] = o.phase
        if o.speed:
            entry["speed"] = o.speed
        obstacles.append(entry)
    return {
        "name": cfg.name,
        "robot": cfg.robot,
        "mode": cfg.mode,
        "t_safe": cfg.t_safe,
        "energy_margin": cfg.energy_margin,
        "horizon": cfg.horizon,
        "exec_steps": cfg.exec_steps,
        "dt_action": cfg.dt_action,
        "alpha_s": cfg.alpha_s,
        "duration": cfg.duration,
        "q_start": list(cfg.q_start),
        "goal_tol": cfg.goal_tol,
        "standoff": cfg.standoff,
        "disturbance": cfg.disturbance,
        "planner": planner,
        "obstacles": obstacles,
    }


def emit_scenario(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False,
                          default_flow_style=None)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError(f"invalid YAML in {path}: {e}") from e
    return scenario_from_dict(raw)


def save_scenario(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_scenario(cfg))


def robot_from_dict(raw: dict) -> RobotModel:
    if not isinstance(raw, dict):
        raise ScenarioError("robot document must be a mapping")
    try:
        limits_raw = raw["limits"]
        limits = KinematicLimits(
            q_min=limits_raw["q_min"], q_max=limits_raw["q_max"],
            v_max=limits_raw["v_max"], a_max=limits_raw["a_max"],
            j_max=limits_raw["j_max"])
        return RobotModel(
            joint_offsets=raw["joint_offsets"],
            joint_axes=raw["joint_axes"],
            capsules=tuple((int(c["joint"]), c["p0"], c["p1"],
                            float(c["radius"])) for c in raw["capsules"]),
            masses=tuple((int(m["joint"]), m["point"], float(m["mass"]))
                         for m in raw["masses"]),
            limits=limits,
            tracking_error=float(raw.get("tracking_error", 0.0)),
        )
    except KeyError as e:
        raise ScenarioError(f"robot is missing required field {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise ScenarioError(f"malformed robot field: {e}") from e


def load_robot(path: str) -> RobotModel:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError(f"invalid YAML in {path}: {e}") from e
    return robot_from_dict(raw)


def resolve_robot_path(scenario_path: str, cfg: ScenarioConfig) -> str:
    """Robot paths are relative to the scenario file location."""
    if os.path.isabs(cfg.robot):
        return cfg.robot
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(
        scenario_path)), cfg.robot))


# ---------------------------------------------------------------------------
# Trace files


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace(path: str, header: dict, columns: list[str],
                rows: np.ndarray, str_cols: dict[int, list[str]] | None = None) -> None:
    """Deterministic CSV: comment header, column list, shortest-repr floats.

    str_cols maps column indices rendered as strings (e.g. phase labels)
    instead of numbers; rows still stores their integer codes.
    """
    str_cols = str_cols or {}
    buf = io.StringIO()
    buf.write("# chunkshield-trace v1\n")
    for key, value in header.items():
        buf.write(f"# {key}: {value}\n")
    buf.write(",".join(columns) + "\n")
    for r in range(rows.shape[0]):
        parts = []
        for c in range(rows.shape[1]):
            if c in str_cols:
                parts.append(str_cols[c][int(rows[r, c])])
            else:
                parts.append(_fmt(rows[r, c]))
        buf.write(",".join(parts) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(buf.getvalue())


def read_trace(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """Header mapping, column names, and raw string rows of a trace file."""
    header = {}
    columns = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body and not body.startswith("chunkshield-trace"):
                    key, value = body.split(":", 1)
                    header[key.strip()] = value.strip()
                continue
            if columns is None:
                columns = line.split(",")
                continue
            rows.append(line.split(","))
    if columns is None:
        raise ScenarioError(f"trace file {path} has no column header")
    return header, columns, rows

