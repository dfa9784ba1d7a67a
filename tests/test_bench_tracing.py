"""The benchmark's traced mode still finds and restores every layer it times.

shieldbench/tracing.py wraps 20 chunkshield functions by qualified name.
Renaming or re-signing one of them would break `shieldbench/run.py
--trace 1`; these tests fail first, on short rollouts.
"""

import dataclasses
import os
import sys

from chunkshield import sim
from chunkshield.scenario import load_robot, load_scenario, resolve_robot_path

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "shieldbench"))

import tracing  # noqa: E402


def chunkshield_references():
    """{(module, attribute): object} for every attribute of every submodule."""
    mods = [m for n, m in list(sys.modules.items())
            if n == "chunkshield" or n.startswith("chunkshield.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def traced(scenario, filter_name, duration):
    """Run one seed-0 rollout of scenario under the full recorder."""
    path = os.path.join(ROOT, "scenarios", f"{scenario}.yaml")
    cfg = dataclasses.replace(load_scenario(path), duration=duration)
    model = load_robot(resolve_robot_path(path, cfg))
    with tracing.Recorder(tracing.LAYERS, count_work=True) as recorder:
        trace = sim.run_rollout(cfg, model, filter_name, 0)
    return trace, recorder


def test_traced_rollout_resolves_records_and_restores():
    assert len(tracing.LAYERS) == 20
    originals = {name: tracing._resolve(name)[2] for name in tracing.LAYERS}
    before = chunkshield_references()

    trace, recorder = traced("bench", "pacs", 0.2)
    table = recorder.table()

    assert trace.n_ticks == 200
    assert table["sim.run_rollout"][0] == 1
    assert table["shield.Shield.step"][0] == 200
    assert table["shield.verify"][0] == 200
    assert table["occupancy.RobotOccupancy.margins_batch"][0] > 0
    assert recorder.counts["shield.obstacle_checks"] > 0

    for name, original in originals.items():
        assert tracing._resolve(name)[2] is original, name
    after = chunkshield_references()
    assert all(after[key] is value for key, value in before.items())


def test_traced_cbf_rollout_records_the_gradient_every_tick():
    trace, recorder = traced("cluttered", "cbf", 0.05)
    table = recorder.table()

    assert trace.n_ticks == 50
    assert table["cbf.CbfController.step"][0] == 50
    assert table["cbf.barrier_gradient"][0] == 50
