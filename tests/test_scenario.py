"""Config parsing, robot loading, and trace serialization tests."""

import os

import numpy as np
import pytest

from chunkshield.model import RobotModel, KinematicLimits, capsule_points_batch
from chunkshield.scenario import (
    ObstacleSpec,
    PlannerSpec,
    ScenarioConfig,
    ScenarioError,
    load_robot,
    load_scenario,
    read_trace,
    resolve_robot_path,
    robot_from_dict,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_trace,
)


def sample_config():
    return ScenarioConfig(
        name="patrol-demo",
        robot="robots/arm7.yaml",
        mode="pfl",
        t_safe=0.014,
        horizon=16,
        exec_steps=2,
        dt_action=0.1,
        alpha_s=0.001,
        duration=1.0 + 1.0 / 3.0,
        q_start=(0.0, -0.3, 0.1, -1.7, 0.05, 1.9, 0.7),
        planner=PlannerSpec(goals=((0.4, 0.2, -0.1, -1.2, 0.0, 1.5, 0.5),
                                   (-0.2, 0.1, 0.3, -1.0, 0.2, 1.2, 0.0)),
                            step_cap=0.05, noise=0.25),
        obstacles=(
            ObstacleSpec(pattern="linear_patrol", shape_radius=0.1,
                         v_max_obj=0.5, meas_error=0.003,
                         p0=(0.5, -0.2, 0.4), p1=(0.5, 0.6, 0.4), speed=0.3),
            ObstacleSpec(pattern="static", shape_radius=0.07, v_max_obj=0.0,
                         p0=(0.1, 0.55, 0.3)),
            ObstacleSpec(pattern="circle", shape_radius=0.05, v_max_obj=0.4,
                         center=(0.3, 0.3, 0.5), radius_path=0.2, omega=1.5,
                         phase=0.7),
            ObstacleSpec(pattern="chase", shape_radius=0.06, v_max_obj=0.25,
                         p0=(-0.4, 0.4, 0.6), speed=0.25),
        ),
        energy_margin=0.001,
        disturbance=True,
    )


def test_scenario_roundtrip_exact(tmp_path):
    cfg = sample_config()
    path = tmp_path / "demo.yaml"
    save_scenario(cfg, str(path))
    loaded = load_scenario(str(path))
    # Equality is exact: floats emit as shortest repr and parse back
    # bit-identically, tuples compare elementwise.
    assert loaded == cfg


def test_scenario_derived_quantities():
    cfg = sample_config()
    assert cfg.ticks_per_chunk == 200
    assert cfg.n_ticks == round(cfg.duration / cfg.alpha_s)


def test_scenario_rejects_unknown_fields():
    raw = scenario_to_dict(sample_config())
    raw["extra_knob"] = 1.0
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        scenario_from_dict(raw)


def test_scenario_missing_field():
    raw = scenario_to_dict(sample_config())
    del raw["duration"]
    with pytest.raises(ScenarioError, match="duration"):
        scenario_from_dict(raw)


def test_scenario_validation_errors():
    base = scenario_to_dict(sample_config())

    bad = dict(base, mode="both")
    with pytest.raises(ScenarioError, match="mode"):
        scenario_from_dict(bad)

    bad = dict(base, mode="ssm")  # keeps t_safe 0.014
    with pytest.raises(ScenarioError, match="t_safe"):
        scenario_from_dict(bad)

    bad = dict(base, exec_steps=32)
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)

    # 3 * 0.0105 / 0.001 is not an integer number of safety steps.
    bad = dict(base, dt_action=0.0105, exec_steps=3)
    with pytest.raises(ScenarioError):
        scenario_from_dict(bad)


def test_obstacle_validation():
    with pytest.raises(ScenarioError, match="p0 and p1"):
        ObstacleSpec(pattern="linear_patrol", shape_radius=0.1, v_max_obj=0.5,
                     p0=(0.0, 0.0, 0.0))
    with pytest.raises(ScenarioError, match="center"):
        ObstacleSpec(pattern="circle", shape_radius=0.1, v_max_obj=0.5)
    with pytest.raises(ScenarioError, match="start point"):
        ObstacleSpec(pattern="chase", shape_radius=0.1, v_max_obj=0.5)
    with pytest.raises(ScenarioError, match="speed exceeds"):
        ObstacleSpec(pattern="chase", shape_radius=0.1, v_max_obj=0.2,
                     p0=(0.0, 0.0, 0.0), speed=0.3)
    with pytest.raises(ScenarioError, match="tangential"):
        ObstacleSpec(pattern="circle", shape_radius=0.1, v_max_obj=0.2,
                     center=(0.0, 0.0, 0.0), radius_path=0.5, omega=1.0)
    with pytest.raises(ScenarioError, match=">= 0"):
        ObstacleSpec(pattern="static", shape_radius=-0.1, v_max_obj=0.0,
                     p0=(0.0, 0.0, 0.0))
    with pytest.raises(ScenarioError, match="pattern"):
        ObstacleSpec(pattern="teleport", shape_radius=0.1, v_max_obj=0.5)


def test_obstacle_rejects_non_finite_values():
    good = dict(pattern="circle", shape_radius=0.05, v_max_obj=0.4,
                center=(0.3, 0.3, 0.5), radius_path=0.2, omega=1.5, phase=0.7)
    ObstacleSpec(**good)
    for name, bad in [("shape_radius", float("nan")), ("v_max_obj", float("inf")),
                      ("meas_error", float("nan")), ("radius_path", float("nan")),
                      ("omega", float("nan")), ("phase", float("inf")),
                      ("center", (0.3, float("nan"), 0.5))]:
        with pytest.raises(ScenarioError):
            ObstacleSpec(**dict(good, **{name: bad}))
    with pytest.raises(ScenarioError):
        ObstacleSpec(pattern="static", shape_radius=0.05, v_max_obj=0.0,
                     p0=(float("inf"), 0.0, 0.0))


def test_scenario_rejects_non_finite_values():
    import dataclasses

    cfg = sample_config()
    for name in ("t_safe", "energy_margin", "dt_action", "alpha_s", "duration"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ScenarioError, match=name):
                dataclasses.replace(cfg, **{name: bad})
    raw = dict(scenario_to_dict(cfg), t_safe=float("nan"))
    with pytest.raises(ScenarioError, match="t_safe"):
        scenario_from_dict(raw)


def _robot_dict():
    return {
        "joint_offsets": [[0.0, 0.0, 0.4], [0.0, 0.0, 0.0]],
        "joint_axes": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
        "capsules": [
            {"joint": 0, "p0": [0.0, 0.0, -0.4], "p1": [0.0, 0.0, 0.0],
             "radius": 0.05},
            {"joint": 1, "p0": [0.0, 0.0, 0.0], "p1": [0.3, 0.0, 0.0],
             "radius": 0.04},
        ],
        "masses": [{"joint": 1, "point": [0.3, 0.0, 0.0], "mass": 1.5}],
        "limits": {"q_min": [-3.0, -3.0], "q_max": [3.0, 3.0],
                   "v_max": [2.0, 2.0], "a_max": [10.0, 10.0],
                   "j_max": [400.0, 400.0]},
        "tracking_error": 0.002,
    }


def test_robot_loading(tmp_path):
    import yaml

    raw = _robot_dict()
    path = tmp_path / "robot.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    model = load_robot(str(path))
    assert model.n_joints == 2
    assert len(model.capsules) == 2
    assert model.tracking_error == 0.002

    reference = RobotModel(
        joint_offsets=raw["joint_offsets"],
        joint_axes=raw["joint_axes"],
        capsules=((0, [0.0, 0.0, -0.4], [0.0, 0.0, 0.0], 0.05),
                  (1, [0.0, 0.0, 0.0], [0.3, 0.0, 0.0], 0.04)),
        masses=((1, [0.3, 0.0, 0.0], 1.5),),
        limits=KinematicLimits(**raw["limits"]),
        tracking_error=0.002,
    )
    q = np.array([[0.4, -0.8], [1.1, 0.3]])
    assert np.array_equal(capsule_points_batch(model, q),
                          capsule_points_batch(reference, q))


def test_robot_missing_field(tmp_path):
    raw = _robot_dict()
    del raw["masses"]
    with pytest.raises(ScenarioError, match="masses"):
        robot_from_dict(raw)


def test_resolve_robot_path(tmp_path):
    cfg = sample_config()
    scen_path = tmp_path / "scenarios" / "demo.yaml"
    resolved = resolve_robot_path(str(scen_path), cfg)
    assert resolved == str(tmp_path / "scenarios" / "robots" / "arm7.yaml")

    import dataclasses

    abs_cfg = dataclasses.replace(cfg, robot="/opt/models/arm.yaml")
    assert resolve_robot_path(str(scen_path), abs_cfg) == "/opt/models/arm.yaml"


def test_trace_roundtrip(tmp_path):
    header = {"scenario": "patrol-demo", "filter": "pacs", "seed": "17"}
    columns = ["tick", "t", "q0", "phase"]
    rows = np.array([
        [0.0, 0.001, 0.1 + 1e-16, 0.0],
        [1.0, 0.002, -0.25, 1.0],
    ])
    labels = ["INTENDED", "FAILSAFE"]
    path = tmp_path / "run.csv"
    write_trace(str(path), header, columns, rows, str_cols={3: labels})

    got_header, got_columns, got_rows = read_trace(str(path))
    assert got_header == header
    assert got_columns == columns
    assert [r[3] for r in got_rows] == ["INTENDED", "FAILSAFE"]
    parsed = np.array([[float(v) for v in r[:3]] for r in got_rows])
    assert np.array_equal(parsed, rows[:, :3])

    # Byte determinism: a rewrite of the same data is identical.
    other = tmp_path / "run2.csv"
    write_trace(str(other), header, columns, rows, str_cols={3: labels})
    assert path.read_bytes() == other.read_bytes()


def test_trace_requires_columns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# chunkshield-trace v1\n", encoding="utf-8")
    with pytest.raises(ScenarioError, match="column header"):
        read_trace(str(path))
