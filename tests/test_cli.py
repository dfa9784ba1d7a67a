"""End-to-end tests of the command line interface.

Each test drives main() with real argv lists against small two-link
scenarios written to a temp directory, checking files, outputs, and the
documented exit codes (0 ok, 1 safety assertion, 2 bad config, 3 io).
"""

import json
import os

import numpy as np
import pytest
import yaml

from chunkshield.cli import bench_scenario, main
from chunkshield.scenario import (
    ObstacleSpec,
    PlannerSpec,
    ScenarioConfig,
    load_robot,
    load_scenario,
    read_trace,
    save_scenario,
)
from chunkshield.trajectory import GeometricPath

ROBOT2 = {
    "joint_offsets": [[0.0, 0.0, 0.0], [0.4, 0.0, 0.0]],
    "joint_axes": [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]],
    "capsules": [
        {"joint": 0, "p0": [0.0, 0.0, 0.0], "p1": [0.4, 0.0, 0.0],
         "radius": 0.05},
        {"joint": 1, "p0": [0.0, 0.0, 0.0], "p1": [0.3, 0.0, 0.0],
         "radius": 0.04},
    ],
    "masses": [{"joint": 1, "point": [0.3, 0.0, 0.0], "mass": 1.5}],
    "limits": {
        "q_min": [-3.14159, -3.14159], "q_max": [3.14159, 3.14159],
        "v_max": [2.0, 2.0], "a_max": [10.0, 10.0], "j_max": [400.0, 400.0],
    },
    "tracking_error": 0.002,
}


@pytest.fixture
def workspace(tmp_path):
    """Temp dir holding a robot file plus blocked and free scenarios."""
    robot_path = tmp_path / "robot2.yaml"
    robot_path.write_text(yaml.safe_dump(ROBOT2), encoding="utf-8")

    # Start pose keeps every link clear of the ball; the sweep toward the
    # goal passes straight through it.
    common = dict(
        robot="robot2.yaml", horizon=8, exec_steps=2, dt_action=0.05,
        alpha_s=0.001, duration=1.0, q_start=(-0.6, 0.3),
        planner=PlannerSpec(goals=((1.2, -0.3),), step_cap=0.05, noise=0.3),
        disturbance=True)
    blocked = ScenarioConfig(
        name="blocked", mode="ssm", t_safe=0.0,
        obstacles=(ObstacleSpec(pattern="static", shape_radius=0.08,
                                v_max_obj=0.0, meas_error=0.002,
                                p0=(0.7, 0.0, 0.0)),),
        **common)
    free = ScenarioConfig(name="free", mode="ssm", t_safe=0.0,
                          obstacles=(), **common)
    save_scenario(blocked, str(tmp_path / "blocked.yaml"))
    save_scenario(free, str(tmp_path / "free.yaml"))
    return tmp_path


def test_run_writes_metrics_and_traces(workspace, capsys):
    out = workspace / "out"
    rc = main(["run", "--scenario", str(workspace / "blocked.yaml"),
               "--filter", "pacs", "--seed", "3", "--reps", "2",
               "--out", str(out), "--trace"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "seed=3" in printed and "seed=4" in printed

    with open(out / "blocked_pacs_metrics.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["scenario"] == "blocked"
    assert summary["filter"] == "pacs"
    assert summary["reps"] == 2
    assert summary["total_violations"] == 0
    assert len(summary["episodes"]) == 2
    assert {e["seed"] for e in summary["episodes"]} == {3, 4}
    for ep in summary["episodes"]:
        assert ep["violations"] == 0
        assert ep["first_violation_tick"] is None
        assert ep["interventions"] > 0
        assert ep["max_path_dev"] <= 1e-6

    for seed in (3, 4):
        header, columns, rows = read_trace(str(out / f"blocked_pacs_{seed}.csv"))
        assert header["scenario"] == "blocked"
        assert os.path.isfile(header["scenario_path"])
        assert len(rows) == 1000


def test_run_trace_evaluates_path_deviation_once(workspace, monkeypatch):
    # The metrics and the trace file of an episode share one pass of
    # path_deviation: one distance evaluation per tick that follows a plan.
    calls = []
    distance_to = GeometricPath.distance_to

    def counting(path, q):
        calls.append(1)
        return distance_to(path, q)

    monkeypatch.setattr(GeometricPath, "distance_to", counting)
    out = workspace / "out"
    assert main(["run", "--scenario", str(workspace / "free.yaml"),
                 "--filter", "pacs", "--out", str(out), "--trace"]) == 0
    _, columns, rows = read_trace(str(out / "free_pacs_0.csv"))
    plan = columns.index("plan")
    planned = sum(float(r[plan]) >= 0 for r in rows)
    assert planned > 0
    assert len(calls) == planned


def test_run_assert_safe_flags_violations(workspace):
    out = workspace / "out"
    argv = ["run", "--scenario", str(workspace / "blocked.yaml"),
            "--filter", "off", "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv + ["--assert-safe"]) == 1
    with open(out / "blocked_off_metrics.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["total_violations"] > 0
    assert summary["episodes"][0]["first_violation_tick"] is not None


def test_run_assert_safe_passes_when_clean(workspace):
    rc = main(["run", "--scenario", str(workspace / "blocked.yaml"),
               "--filter", "pacs", "--out", str(workspace / "out"),
               "--assert-safe"])
    assert rc == 0


def test_exit_code_bad_config(workspace, capsys):
    rc = main(["run", "--scenario", str(workspace / "robot2.yaml"),
               "--out", str(workspace / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    rc = main(["run", "--scenario", str(workspace / "blocked.yaml"),
               "--reps", "0", "--out", str(workspace / "out")])
    assert rc == 2


def test_exit_code_io_error(workspace, capsys):
    missing = workspace / "nope" / "deep.yaml"
    rc = main(["run", "--scenario", str(missing),
               "--out", str(workspace / "out")])
    assert rc == 3
    assert "io error:" in capsys.readouterr().err


def test_bench_smoke(workspace, capsys):
    rc = main(["bench", "--scenario", str(workspace / "blocked.yaml"),
               "--iters", "80", "--builds", "6"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "shield_step_ms" in printed and "plan_build_ms" in printed

    cfg = load_scenario(str(workspace / "blocked.yaml"))
    model = load_robot(str(workspace / "robot2.yaml"))
    r = bench_scenario(cfg, model, iters=80, builds=6, seed=0)
    assert r["n_steps"] == 80
    assert r["n_builds"] + r["build_failures"] == 6
    assert 0.0 < r["step_ms_median"] <= r["step_ms_p90"] <= r["step_ms_max"]
    assert r["build_ms_median"] > 0.0


def test_plotdata_flattens_traces(workspace):
    out = workspace / "out"
    assert main(["run", "--scenario", str(workspace / "blocked.yaml"),
                 "--filter", "pacs", "--reps", "2", "--out", str(out),
                 "--trace"]) == 0
    plot = out / "plot.csv"
    rc = main(["plotdata",
               "--trace", str(out / "blocked_pacs_0.csv"),
               str(out / "blocked_pacs_1.csv"),
               "--out", str(plot)])
    assert rc == 0

    header, columns, rows = read_trace(str(plot))
    assert header["kind"] == "plotdata"
    assert columns[:3] == ["series", "tick", "t"]
    for name in ("q0", "q1", "ee_x", "ee_y", "ee_z", "ee_speed", "phase",
                 "min_obstacle_dist", "path_dev"):
        assert name in columns
    assert len(rows) == 2000
    series = {r[0] for r in rows}
    assert series == {"blocked_pacs_0.csv", "blocked_pacs_1.csv"}
    ee = np.array([[float(r[columns.index(c)]) for c in
                    ("ee_x", "ee_y", "ee_z")] for r in rows[:50]])
    assert np.all(np.isfinite(ee))
    # Two-link arm: the end effector stays within total reach of the base.
    assert np.linalg.norm(ee, axis=1).max() <= 0.7 + 1e-9
    phases = {r[columns.index("phase")] for r in rows}
    assert phases <= {"INTENDED", "FAILSAFE"}


def test_plotdata_rejects_mismatched_joint_counts(workspace, tmp_path):
    out = workspace / "out"
    assert main(["run", "--scenario", str(workspace / "blocked.yaml"),
                 "--filter", "pacs", "--out", str(out), "--trace"]) == 0
    trace = str(out / "blocked_pacs_0.csv")
    # Forge a second trace claiming a different joint count.
    lines = open(trace, encoding="utf-8").read().splitlines()
    forged = [ln.replace("n_joints: 2", "n_joints: 3") if ln.startswith("#")
              else ln for ln in lines]
    bad = tmp_path / "forged.csv"
    bad.write_text("\n".join(forged) + "\n", encoding="utf-8")
    rc = main(["plotdata", "--trace", trace, str(bad),
               "--out", str(out / "p.csv")])
    assert rc == 2
