"""The benchmark's traced mode still finds and restores every layer it times.

shieldbench/tracing.py wraps 20 chunkshield functions by qualified name.
Renaming or re-signing one of them would break `shieldbench/run.py
--trace 1`; this test fails first, on one short rollout.
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


def test_traced_rollout_resolves_records_and_restores():
    assert len(tracing.LAYERS) == 20
    originals = {name: tracing._resolve(name)[2] for name in tracing.LAYERS}
    before = chunkshield_references()

    path = os.path.join(ROOT, "scenarios", "bench.yaml")
    cfg = dataclasses.replace(load_scenario(path), duration=0.2)
    model = load_robot(resolve_robot_path(path, cfg))
    with tracing.Recorder(tracing.LAYERS, count_work=True) as recorder:
        trace = sim.run_rollout(cfg, model, "pacs", 0)
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
