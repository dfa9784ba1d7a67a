"""Path-consistent safety filtering for action-chunked robot policies.

The pipeline: a policy emits chunks of delta joint actions; the executed
prefix of each chunk is integrated into waypoints and re-timed into a
jerk-limited, time-optimal intended trajectory along a fixed geometric
path. A high-frequency shield verifies a monitored candidate (one more
step of intended motion, then a failsafe stop on the same path) against
set-based reachable occupancies of measured obstacles, under either a
no-contact rule or a kinetic-energy budget. Interventions only re-time
motion along the path, never bend it.
"""

from .chunks import (
    ActionChunk,
    ScriptedPlanner,
    WaypointPath,
    integrate_chunk,
)
from .cbf import CbfController, CbfParams
from .model import (
    JointState,
    KinematicLimits,
    RobotModel,
    capsule_points_batch,
    kinetic_energy_batch,
)
from .occupancy import (
    ObstacleState,
    RobotOccupancy,
    TimeInterval,
    robot_occupancy,
)
from .profiles import (
    ScalarLimits,
    ScalarProfile,
    append_brake,
    brake_profile,
    hold_profile,
    time_optimal_profile,
)
from .scenario import (
    ObstacleSpec,
    PlannerSpec,
    ScenarioConfig,
    ScenarioError,
    load_robot,
    load_scenario,
    save_scenario,
)
from .shield import SafetySpec, Shield, StepInfo, Verdict, verify
from .sim import (
    Metrics,
    RolloutTrace,
    compute_metrics,
    ground_truth_check,
    run_rollout,
    run_suite,
    save_rollout_trace,
)
from .trajectory import GeometricPath, PlanningError, Trajectory, plan_intended

__version__ = "0.1.0"

__all__ = [
    "ActionChunk",
    "CbfController",
    "CbfParams",
    "GeometricPath",
    "JointState",
    "KinematicLimits",
    "Metrics",
    "ObstacleSpec",
    "ObstacleState",
    "PlannerSpec",
    "PlanningError",
    "RobotModel",
    "RobotOccupancy",
    "RolloutTrace",
    "SafetySpec",
    "ScalarLimits",
    "ScalarProfile",
    "ScenarioConfig",
    "ScenarioError",
    "ScriptedPlanner",
    "Shield",
    "StepInfo",
    "TimeInterval",
    "Trajectory",
    "Verdict",
    "WaypointPath",
    "append_brake",
    "brake_profile",
    "capsule_points_batch",
    "compute_metrics",
    "ground_truth_check",
    "hold_profile",
    "integrate_chunk",
    "kinetic_energy_batch",
    "load_robot",
    "load_scenario",
    "plan_intended",
    "robot_occupancy",
    "run_rollout",
    "run_suite",
    "save_rollout_trace",
    "save_scenario",
    "time_optimal_profile",
    "verify",
]
