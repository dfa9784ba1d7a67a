"""Command line interface: run scenarios, benchmark hot paths, extract plot data.

Exit codes: 0 success, 1 safety assertion failed, 2 malformed configuration
or arguments, 3 file system trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from .chunks import ScriptedPlanner, integrate_chunk
from .model import JointState, capsule_points_batch
from .occupancy import capsule_clearance
from .scenario import (FILTERS, ScenarioError, load_robot, load_scenario,
                       read_trace, resolve_robot_path, write_trace)
from .sim import PHASES, run_rollout, run_suite, save_rollout_trace
from .trajectory import PlanningError, plan_intended


def _nan_to_none(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    return x


def cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    model = load_robot(resolve_robot_path(args.scenario, cfg))
    if args.reps < 1:
        raise ScenarioError("--reps must be >= 1")
    os.makedirs(args.out, exist_ok=True)

    episodes = []
    total_violations = 0
    seeds = range(args.seed, args.seed + args.reps)
    for trace, m in run_suite(cfg, model, args.filter, seeds, path_dev=True):
        seed = trace.seed
        total_violations += m.violations
        episodes.append({
            "seed": seed,
            "violations": m.violations,
            "first_violation_tick": (int(m.violation_ticks[0])
                                     if m.violation_ticks else None),
            "success": m.success,
            "time_to_goal": m.time_to_goal,
            "min_clearance": _nan_to_none(m.min_clearance),
            "max_path_dev": _nan_to_none(m.max_path_dev),
            "interventions": m.interventions,
            "stopped_ticks": m.stopped_ticks,
            "rejected_handoffs": m.rejected_handoffs,
            "planning_failures": m.planning_failures,
        })
        print(f"{cfg.name} filter={args.filter} seed={seed} "
              f"violations={m.violations} success={m.success} "
              f"t_goal={m.time_to_goal:.3f} interventions={m.interventions}")
        if args.trace:
            name = f"{cfg.name}_{args.filter}_{seed}.csv"
            save_rollout_trace(
                os.path.join(args.out, name), trace,
                extra_header={"scenario_path": os.path.abspath(args.scenario)})

    succ = [e for e in episodes if e["success"]]
    summary = {
        "scenario": cfg.name,
        "filter": args.filter,
        "reps": args.reps,
        "first_seed": args.seed,
        "total_violations": total_violations,
        "success_rate": len(succ) / len(episodes),
        "mean_time_to_goal": float(np.mean([e["time_to_goal"]
                                            for e in episodes])),
        "episodes": episodes,
    }
    out_path = os.path.join(args.out, f"{cfg.name}_{args.filter}_metrics.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"violations={total_violations} "
          f"success_rate={summary['success_rate']:.2f} metrics={out_path}")
    if args.assert_safe and total_violations > 0:
        print("safety assertion failed", file=sys.stderr)
        return 1
    return 0


def bench_scenario(cfg, model, iters: int = 10000, builds: int = 200,
                   seed: int = 0) -> dict:
    """Timing medians for the two hot paths, measured on live rollout states.

    Shield steps come from one long rollout of the scenario (patterns keep
    cycling past the nominal duration); trajectory builds re-plan chunks
    proposed from states sampled along that rollout.
    """
    bench_cfg = dataclasses.replace(cfg, duration=iters * cfg.alpha_s)
    trace = run_rollout(bench_cfg, model, "pacs", seed)
    step_ms = trace.wall_times * 1e3

    goals = np.atleast_2d(np.asarray(cfg.planner.goals, dtype=float))
    planner = ScriptedPlanner(goals=goals, horizon=cfg.horizon,
                              dt=cfg.dt_action, step_cap=cfg.planner.step_cap,
                              noise=cfg.planner.noise, goal_tol=cfg.goal_tol)
    rng = np.random.default_rng(seed + 1)
    zeros = np.zeros(model.n_joints)
    build_s = []
    failures = 0
    for b in range(builds):
        k = (b * 997) % trace.n_ticks
        q, dq = trace.q_cmd[k], trace.dq_cmd[k]
        state = JointState._trusted(q, dq, zeros, zeros)
        chunk = planner.propose(0.0, state, rng)
        wp = integrate_chunk(q, chunk, cfg.exec_steps, model.limits)
        t0 = time.perf_counter()
        try:
            plan_intended(wp.waypoints, dq, model.limits)
        except PlanningError:
            failures += 1
            continue
        build_s.append(time.perf_counter() - t0)
    build_ms = np.asarray(build_s) * 1e3
    return {
        "n_steps": int(step_ms.shape[0]),
        "step_ms_median": float(np.median(step_ms)),
        "step_ms_p90": float(np.percentile(step_ms, 90)),
        "step_ms_max": float(step_ms.max()),
        "n_builds": int(build_ms.shape[0]),
        "build_ms_median": float(np.median(build_ms)),
        "build_ms_p90": float(np.percentile(build_ms, 90)),
        "build_failures": failures,
    }


def cmd_bench(args) -> int:
    cfg = load_scenario(args.scenario)
    model = load_robot(resolve_robot_path(args.scenario, cfg))
    if args.iters < 1 or args.builds < 1:
        raise ScenarioError("--iters and --builds must be >= 1")
    r = bench_scenario(cfg, model, iters=args.iters, builds=args.builds,
                       seed=args.seed)
    print(f"scenario={cfg.name} joints={model.n_joints} "
          f"obstacles={len(cfg.obstacles)}")
    print(f"shield_step_ms n={r['n_steps']} median={r['step_ms_median']:.4f} "
          f"p90={r['step_ms_p90']:.4f} max={r['step_ms_max']:.4f}")
    print(f"plan_build_ms n={r['n_builds']} median={r['build_ms_median']:.4f} "
          f"p90={r['build_ms_p90']:.4f} failures={r['build_failures']}")
    return 0


def _column_index(columns: list[str], name: str, path: str) -> int:
    try:
        return columns.index(name)
    except ValueError:
        raise ScenarioError(f"trace {path} lacks column {name!r}") from None


def cmd_plotdata(args) -> int:
    out_rows = []
    labels = []
    n_ref = None
    for idx, path in enumerate(args.trace):
        header, columns, rows = read_trace(path)
        try:
            n = int(header["n_joints"])
            n_obs = int(header["n_obstacles"])
            alpha = float(header["alpha_s"])
        except (KeyError, ValueError) as e:
            raise ScenarioError(f"trace {path} has a malformed header: {e}") from e
        if n_ref is None:
            n_ref = n
        elif n != n_ref:
            raise ScenarioError("all traces must share the robot joint count")
        scen_path = header.get("scenario_path")
        if not scen_path:
            raise ScenarioError(
                f"trace {path} lacks the scenario_path header needed for FK")
        cfg = load_scenario(scen_path)
        model = load_robot(resolve_robot_path(scen_path, cfg))
        if model.n_joints != n:
            raise ScenarioError(f"robot in {scen_path} does not match trace {path}")

        def col(name):
            i = _column_index(columns, name, path)
            return np.array([float(r[i]) for r in rows])

        tick = col("tick")
        t = col("t")
        q_cmd = np.column_stack([col(f"q{j}") for j in range(n)])
        q_true = np.column_stack([col(f"q_true{j}") for j in range(n)])
        dev = col("path_dev")
        phase_i = _column_index(columns, "phase", path)
        phase = np.array([PHASES.index(r[phase_i]) for r in rows], dtype=float)

        caps_cmd = capsule_points_batch(model, q_cmd)
        ee = caps_cmd[:, -1, 1, :]
        speed = np.zeros(ee.shape[0])
        if ee.shape[0] > 1:
            speed[1:] = np.linalg.norm(np.diff(ee, axis=0), axis=1) / alpha

        clear = np.full(ee.shape[0], np.inf)
        if n_obs:
            caps_true = capsule_points_batch(model, q_true)
            cap_r = np.array([c[3] for c in model.capsules])
            for j, spec in enumerate(cfg.obstacles[:n_obs]):
                center = np.column_stack([col(f"obs{j}_x"), col(f"obs{j}_y"),
                                          col(f"obs{j}_z")])
                clear = np.minimum(clear, capsule_clearance(
                    caps_true[:, :, 0], caps_true[:, :, 1], cap_r,
                    center[:, None, :], spec.shape_radius))

        labels.append(os.path.basename(path))
        series = np.full(tick.shape[0], float(idx))
        out_rows.append(np.column_stack(
            [series, tick, t, q_cmd, ee, speed, phase, clear, dev]))

    columns = (["series", "tick", "t"]
               + [f"q{j}" for j in range(n_ref)]
               + ["ee_x", "ee_y", "ee_z", "ee_speed", "phase",
                  "min_obstacle_dist", "path_dev"])
    mat = np.vstack(out_rows)
    phase_col = 3 + n_ref + 4
    write_trace(args.out, {"kind": "plotdata", "sources": ";".join(labels)},
                columns, mat,
                str_cols={0: labels, phase_col: list(PHASES)})
    print(f"wrote {mat.shape[0]} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkshield",
        description="Path-consistent safety filtering for action-chunked "
                    "policies: scenario rollouts, benchmarks, plot extraction.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario under a filter")
    p_run.add_argument("--scenario", required=True, help="scenario YAML path")
    p_run.add_argument("--reps", type=int, default=1,
                       help="number of episodes, seeds counting up from --seed")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--filter", choices=list(FILTERS), default="pacs")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--assert-safe", action="store_true",
                       help="exit 1 if any episode has a true violation")
    p_run.add_argument("--trace", action="store_true",
                       help="write one CSV trace per episode")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="time the shield step and planner")
    p_bench.add_argument("--scenario", required=True)
    p_bench.add_argument("--iters", type=int, default=10000,
                         help="number of shield steps to time")
    p_bench.add_argument("--builds", type=int, default=200,
                         help="number of trajectory builds to time")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=cmd_bench)

    p_plot = sub.add_parser("plotdata",
                            help="flatten traces into plot-ready columns")
    p_plot.add_argument("--trace", required=True, nargs="+",
                        help="one or more trace CSV files")
    p_plot.add_argument("--out", required=True, help="output CSV path")
    p_plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
