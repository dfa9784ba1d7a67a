"""Spans around chunkshield's public functions, recorded from outside.

A Recorder replaces each named function or method with a wrapper that
appends (function, parent span, start, end) to an in-memory list, and
puts the originals back on exit. A module-level function is replaced in
every chunkshield module that holds it, because `from .model import
capsule_points_batch` gives occupancy, sim and cbf their own reference;
patching only the defining module would let those calls bypass the
timer. A method is replaced on its class.

Some wrappers also count work (rows evaluated, obstacle checks, cache
hits) from the arguments and results they see; the counts land in
Recorder.counts.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# Every layer function the traced run times, as "<module>.<qualname>".
LAYERS = (
    "shield.Shield.step",
    "shield.verify",
    "occupancy.robot_occupancy",
    "occupancy.RobotOccupancy.margins_batch",
    "model.capsule_points_batch",
    "model.kinetic_energy_batch",
    "profiles.append_brake",
    "profiles.time_optimal_profile",
    "trajectory.plan_intended",
    "trajectory.Trajectory.state",
    "chunks.ScriptedPlanner.propose",
    "chunks.integrate_chunk",
    "sim.run_rollout",
    "sim.ObstacleScript.advance",
    "sim.ground_truth_check",
    "sim.compute_metrics",
    "cbf.CbfController.step",
    "cbf.barrier_gradient",
    "scenario.load_scenario",
    "scenario.load_robot",
)

# The filter calls and the plan build, timed in every run.
STEP_LAYERS = ("shield.Shield.step", "cbf.CbfController.step")
PLAN_LAYER = "trajectory.plan_intended"
TIMED = STEP_LAYERS + (PLAN_LAYER,)


def _count_rows(counts, key, index):
    def pre(args, kwargs):
        counts[key] += np.atleast_2d(args[index]).shape[0]
    return pre


def _hooks(counts):
    """(pre, post) work counters per layer, fed from call arguments and results."""

    def margins_pre(args, kwargs):
        occ, obstacles = args[0], args[1]
        counts["occupancy.margin_pairs"] += len(obstacles) * occ.n_intervals
        counts["occupancy.margin_obstacles"] += len(obstacles)

    def verify_pre(args, kwargs):
        counts["shield.obstacle_checks"] += len(args[3])
        cache = kwargs.get("cache")
        if cache is not None:
            counts["shield.recover_verify_calls"] += 1
            counts["shield.recover_cache_hits"] += cache.get("occ") is not None

    def verify_post(args, kwargs, verdict):
        counts["shield.subintervals"] += verdict.n_intervals
        counts["shield.verify.safe"] += bool(verdict.safe)

    def step_post(args, kwargs, result):
        counts["shield.adopted_steps"] += bool(result[1].adopted)

    return {
        "model.capsule_points_batch": (
            _count_rows(counts, "model.capsule_points_batch.configs", 1), None),
        "model.kinetic_energy_batch": (
            _count_rows(counts, "model.kinetic_energy_batch.states", 1), None),
        "occupancy.RobotOccupancy.margins_batch": (margins_pre, None),
        "shield.verify": (verify_pre, verify_post),
        "shield.Shield.step": (None, step_post),
    }


def _resolve(name: str):
    """(owner, attribute, original) for "<module>.<qualname>"."""
    module, _, qual = name.partition(".")
    owner = importlib.import_module(f"chunkshield.{module}")
    *classes, attr = qual.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr, owner.__dict__[attr]


class Recorder:
    """Records a span per call of the named layers while it is active."""

    def __init__(self, layers, count_work: bool = False):
        self.layers = tuple(layers)
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self._hooks = _hooks(self.counts) if count_work else {}
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Recorder":
        self._planning_error = importlib.import_module(
            "chunkshield.trajectory").PlanningError
        modules = [m for n, m in list(sys.modules.items())
                   if n == "chunkshield" or n.startswith("chunkshield.")]
        try:
            for fid, name in enumerate(self.layers):
                owner, attr, original = _resolve(name)
                wrapper = self._wrap(fid, original, *self._hooks.get(name, (None, None)))
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fid, fn, pre, post):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        is_plan = self.layers[fid] == PLAN_LAYER
        planning_error = self._planning_error

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except planning_error:
                if is_plan:
                    counts["trajectory.plan_intended.failures"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, t0, t1)
            if post is not None:
                post(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def calls(self, names) -> np.ndarray:
        """(start, end) in seconds of every recorded call of the named layers."""
        fids = {self.layers.index(n) for n in names if n in self.layers}
        return np.array([(t0, t1) for fid, _, t0, t1 in self.spans if fid in fids],
                        dtype=float).reshape(-1, 2)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def table(self) -> dict:
        """{layer: (calls, self seconds, total seconds)} over the recorded spans.

        Self time is a span's duration minus the durations of the spans it
        directly encloses.
        """
        n = len(self.layers)
        calls = np.zeros(n, dtype=np.int64)
        total = np.zeros(n)
        child = np.zeros(n)
        fid_of = [s[0] for s in self.spans]
        for fid, parent, t0, t1 in self.spans:
            calls[fid] += 1
            total[fid] += t1 - t0
            if parent >= 0:
                child[fid_of[parent]] += t1 - t0
        return {name: (int(calls[i]), float(total[i] - child[i]), float(total[i]))
                for i, name in enumerate(self.layers)}
