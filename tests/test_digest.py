"""Golden digests of whole rollouts, the byte-for-byte guard for refactors.

Each case pins the sha256 of a rollout's per-tick trace arrays and of its
Metrics. A change that alters any recorded number, however slightly,
changes the digest. When a change is meant to alter traces, regenerate the
digests with `python tests/test_digest.py` and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from test_model import planar_two_link
from test_sim import BLOCK, sweep_config

from chunkshield.scenario import load_robot, load_scenario, resolve_robot_path
from chunkshield.sim import compute_metrics, run_rollout

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

TRACE_FIELDS = ("t", "q_cmd", "dq_cmd", "q_true", "phase", "source", "adopted",
                "stopped_unsafe", "min_margin", "max_energy", "plan_idx",
                "obs_true")

# (scenario, filter, seed) -> (trace digest, metrics digest). "clamp" is the
# two-link arm of test_sim pushed past its joint box (see load_case); it is
# the only case with planning failures and clamped chunks.
GOLDEN = {
    ("adversarial_chase", "pacs", 3): (
        "5254faf9444a8d1c47b8bd80b6128a776dc1c0af924018b04b3f262bb93f09b9",
        "e7f5f2f2423f2f1301db1c4598e0d40ae0b4c08c742dc38f2ad87ba68e4398f1"),
    ("bench", "pacs", 0): (
        "f91c25cbb1778995fdda84f99c8887350819a276e1df1138aae6a6297f2958ec",
        "f2c9d42dc26b0b0f2717ce860a06476df17e04cd5c51ce9f70da0e21deeaeb18"),
    ("circle", "pacs-single", 2): (
        "aa33593bea6b29f7143bf1b5d3afadc8d5beeb8137ad41a031003ad9cadfb454",
        "ae98dfe5a35eaa1ca1e3247ae03e4d52d1d7169c989ecd588759eb8e745e5613"),
    ("cluttered", "cbf", 0): (
        "db845e521316a38aa96aa8fbedd6d757a1601b946ae45510015c2f008c901d39",
        "83903f0bb9dfeb99f263f32aa796c562daeb7e56749b7f60ddb7caef1bed398f"),
    ("cluttered", "pacs", 0): (
        "7093634684c0d572469717f54f4b0938616d16b927c74116db37a1f477cd2546",
        "c16aef9fe35bd1fa19ee6fa144c106388347054a83b54551e3f18e926f2623ac"),
    ("interception", "off", 0): (
        "9794e6632827ac79861e325b96f951f91c6c63b7bca6dc962dfcacc8d10bd675",
        "70b7e808a327b158f89c7c01ee690145c982a70633080175e8dc531cee0fbd13"),
    ("multigoal_free", "pacs-single", 0): (
        "ba64ffb364e018cf2670a26285652f854179e318d78a3b0db575b2d2d882fd0a",
        "23c5a08d48a8216aa4b2af10099bb54b2d511c8978be854494b9ef7777c8ded6"),
    ("clamp", "pacs", 7): (
        "f645753650e55fbf1ade87d74cc25c7bc9eb4a7a9bd1bd61ba8eda3356aa001c",
        "6a7634fba2ae9c9e2b9e9c3bfa34dcb51a86f7c2ac889761fb4f41d834077b9f"),
    ("clamp", "pacs-single", 7): (
        "ccb57dd0c30713880ae009d99cbaa6923cb10602380560f92b27e0066bb5224a",
        "9801558ef1deefa30a2e3921e6766152fd4cb0a198c829ab082dbedf16b23fb1"),
    ("clamp", "cbf", 7): (
        "3cdede18e5e4d7040f7145ee5e46bfab8f61e86ffc139e3cb425654d44bb9b6d",
        "6a7634fba2ae9c9e2b9e9c3bfa34dcb51a86f7c2ac889761fb4f41d834077b9f"),
    ("clamp", "off", 7): (
        "ee69d1c7fc6ef522587446949a6c3d079235cf053fa145e97385db4117718822",
        "6a7634fba2ae9c9e2b9e9c3bfa34dcb51a86f7c2ac889761fb4f41d834077b9f"),
}


def load_case(scenario):
    if scenario == "clamp":
        cfg = sweep_config("clamp", obstacles=(BLOCK,), duration=1.0,
                           noise=0.5, q_start=(2.9, 0.0), goal=(9.0, 0.3),
                           step_cap=0.1)
        return cfg, planar_two_link()
    path = os.path.join(SCENARIO_DIR, f"{scenario}.yaml")
    cfg = load_scenario(path)
    return cfg, load_robot(resolve_robot_path(path, cfg))


def digests(scenario, filter_name, seed):
    cfg, model = load_case(scenario)
    trace = run_rollout(cfg, model, filter_name, seed)
    metrics = compute_metrics(trace, model, cfg)
    h = hashlib.sha256()
    for name in TRACE_FIELDS:
        h.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    m = hashlib.sha256(repr(dataclasses.astuple(metrics)).encode())
    return h.hexdigest(), m.hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN),
                         ids=lambda c: "/".join(map(str, c)))
def test_rollout_digest(case):
    assert digests(*case) == GOLDEN[case]


if __name__ == "__main__":
    for case in sorted(GOLDEN):
        trace_digest, metrics_digest = digests(*case)
        print(f"    {case!r}: (\n        {trace_digest!r},\n        {metrics_digest!r}),")
