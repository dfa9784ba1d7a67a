"""Benchmark of the chunkshield safety shield: one workload, one seed, one run.

    python3 shieldbench/run.py --workload crowded_ssm --seed 0 --seconds 20 --trace 0

Run from the repository root. The library is imported from ./src and the
scenarios from ./scenarios; nothing needs to be installed. One process,
one thread, numpy's BLAS pool pinned to one thread.

A run repeats one round of rollouts, fixed by the workload and the seed,
until --seconds have passed and at least three rounds are done. Each
rollout, with the checks on it, is one operation. The first round is
checked against the independent reference in reference.py; every later
round must reproduce the first bit for bit.

--trace 0 prints the end-to-end metrics. --trace 1 wraps every layer
function and prints the per-layer metrics of the set-up and the first
round, which is traced; the later rounds run untraced and give the
tracing overhead. The last line of standard output is one JSON object;
the same result with more detail goes to shieldbench/out/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import test_reference  # noqa: E402
from checks import SHIELDED, check_rollout, fingerprint  # noqa: E402
from reference import Scenario  # noqa: E402
from tracing import LAYERS, PLAN_LAYER, STEP_LAYERS, TIMED, Recorder  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT_DIR = BENCH_DIR / "out"

# Scenarios, filters and seeds of one round. Seeds come from --seed only.
WORKLOADS = {
    "crowded_ssm": lambda seed: [("bench", "pacs", seed)],
    "pfl_sweep": lambda seed: [(name, "pacs", seed)
                               for name in ("linear_patrol", "circle",
                                            "adversarial_chase")],
    "free_chunked": lambda seed: [("multigoal_free", f, seed)
                                  for f in ("pacs", "pacs-single", "off")],
    "cluttered_cbf": lambda seed: [("cluttered", "cbf", seed)],
}

# Commands of the shield without obstacles must equal the unfiltered ones.
TRANSPARENCY_TOL = 1e-12

# Rounds repeat identical inputs, so each tick, filter call and plan
# build is timed at least this many times, and its time is the fastest
# of them. Other tenants of a shared host slow whole stretches of a run;
# the fastest repeat keeps the cost of the work itself, tail included,
# since an expensive tick is expensive in every round.
MIN_ROUNDS = 3


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat", "r", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_library():
    """Import chunkshield from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import chunkshield
    if Path(chunkshield.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"chunkshield imported from {chunkshield.__file__}, "
                          f"not from {SRC}")
    return chunkshield


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


class Run:
    """State of one benchmark run: the round, its checks and its totals."""

    def __init__(self, sim, plan, cases, references):
        self.sim = sim
        self.plan = plan
        self.cases = cases
        self.references = references
        self.problems: list = []
        self.attempted = 0
        self.failed = 0
        self.first: list = []
        self.ticks = 0
        self.spans: list = []
        self.intervals: list = []

    def round(self) -> list:
        """Run every rollout of the round once; return (trace, metrics) or None each."""
        sim = self.sim
        results = []
        self.spans = spans = []
        for name, filt, seed in self.plan:
            cfg, model = self.cases[name]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                trace = sim.run_rollout(cfg, model, filt, seed)
                metrics = sim.compute_metrics(trace, model, cfg)
            except Exception as exc:  # a program fault fails the operation
                self.failed += 1
                print(f"FAILED {name}/{filt}/seed {seed}: {exc!r}", file=sys.stderr)
                results.append(None)
                spans.append(None)
                continue
            spans.append((t0, time.perf_counter()))
            results.append((trace, metrics))
        self.ticks = sum(r[0].n_ticks for r in results if r is not None)
        return results

    def split_round(self, step_starts: np.ndarray) -> None:
        """Cut each rollout of the last round into per-tick wall intervals.

        A cut falls at the start of each filter call; a rollout without
        filter calls (`off`) stays one interval.
        """
        pieces = []
        for span in self.spans:
            if span is None:
                pieces.append(None)
                continue
            lo, hi = np.searchsorted(step_starts, span)
            pieces.append(np.diff(np.concatenate([[span[0]], step_starts[lo:hi],
                                                  [span[1]]])))
        self.intervals.append(pieces)

    def ticks_per_s(self, rounds: slice) -> float:
        """Ticks of a round ÷ the program's wall time for it.

        Each interval's time is the fastest of its repeats in the given
        rounds; without per-tick cuts an interval is a whole rollout.
        """
        busy = 0.0
        for repeats in zip(*self.intervals[rounds]):
            if any(r is None for r in repeats):
                continue
            if len({r.size for r in repeats}) != 1:
                self.problems.append("rounds made different numbers of calls")
                repeats = [np.array([r.sum()]) for r in repeats]
            busy += float(np.stack(repeats).min(axis=0).sum())
        return self.ticks / busy if busy else 0.0

    def check(self, results) -> None:
        """First round: reference checks. Later rounds: equal to the first."""
        if not self.first:
            self.first = [self._check_first(key, r)
                          for key, r in zip(self.plan, results)]
            self._check_pairs(results)
            return
        for key, r, first in zip(self.plan, results, self.first):
            if r is not None and first is not None \
                    and fingerprint(*r) != first[0]:
                self.problems.append(f"{key}: rerun differs from the first run")

    def _check_first(self, key, result):
        if result is None:
            return None
        name, filt, seed = key
        trace, metrics = result
        rc = check_rollout(self.references[name], filt, trace, metrics)
        self.problems += [f"{name}/{filt}/seed {seed}: {p}" for p in rc.problems]
        return fingerprint(trace, metrics), rc, trace.n_ticks * trace.alpha_s

    def _check_pairs(self, results) -> None:
        """Free-course properties: transparency, goals reached, chunking pays."""
        by_key = {k: r for k, r in zip(self.plan, results) if r is not None}
        for (name, filt, seed), (trace, metrics) in by_key.items():
            if name != "multigoal_free":
                continue
            if not metrics.success:
                self.problems.append(f"{name}/{filt}/seed {seed}: goals not reached")
            if filt != "pacs":
                continue
            off = by_key.get((name, "off", seed))
            single = by_key.get((name, "pacs-single", seed))
            if off is not None:
                diff = float(abs(trace.q_cmd - off[0].q_cmd).max())
                if diff > TRANSPARENCY_TOL:
                    self.problems.append(f"{name}/seed {seed}: pacs differs from "
                                         f"off by {diff:.3g} rad")
            if single is not None \
                    and not metrics.time_to_goal < single[1].time_to_goal:
                self.problems.append(
                    f"{name}/seed {seed}: chunked {metrics.time_to_goal} s is not "
                    f"sooner than single-action {single[1].time_to_goal} s")

    @property
    def handoff_jumps(self) -> int:
        return sum(f[1].handoff_jumps for f in self.first if f is not None)

    def progress(self) -> float:
        """Commanded joint-space path length per simulated second (rad/s)."""
        done = [f for f in self.first if f is not None]
        sim_s = sum(f[2] for f in done)
        return sum(f[1].path_length for f in done) / sim_s if sim_s else 0.0


def load_cases(lib, plan) -> dict:
    """{scenario name: (ScenarioConfig, RobotModel)} for the round's scenarios."""
    scen = lib.scenario
    robots: dict = {}
    cases = {}
    for name in dict.fromkeys(n for n, _, _ in plan):
        path = str(SCENARIOS / f"{name}.yaml")
        cfg = scen.load_scenario(path)
        robot_path = scen.resolve_robot_path(path, cfg)
        if robot_path not in robots:
            robots[robot_path] = scen.load_robot(robot_path)
        cases[name] = (cfg, robots[robot_path])
    return cases


def self_test() -> list:
    """Run the reference's property tests; return the names that fail."""
    failures = []
    for name in sorted(dir(test_reference)):
        if name.startswith("test_"):
            try:
                getattr(test_reference, name)()
            except AssertionError:
                failures.append(f"reference self-test {name} failed")
    return failures


def fastest_repeat(run: Run, rounds: list) -> np.ndarray:
    """Per-call minimum over rounds that made the same calls."""
    if len({r.size for r in rounds}) != 1:
        run.problems.append("rounds made different numbers of calls")
        return rounds[0]
    return np.stack(rounds).min(axis=0)


def end_to_end(run: Run, latencies: list, setup_s: float) -> tuple[dict, dict]:
    steps_ms = fastest_repeat(run, [step for step, _ in latencies])
    plans_ms = fastest_repeat(run, [plan for _, plan in latencies])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ticks_per_s": (run.ticks_per_s(slice(None)), "ticks/s"),
        "step_ms_p50": (percentile(steps_ms, 50), "ms"),
        "step_ms_p99": (percentile(steps_ms, 99), "ms"),
        "plan_ms_p50": (percentile(plans_ms, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "progress_rad_per_s": (run.progress(), "rad/s"),
    }
    samples = {"step_ms_p50": int(steps_ms.size), "step_ms_p99": int(steps_ms.size),
               "plan_ms_p50": int(plans_ms.size)}
    return metrics, samples


def per_layer(run: Run, recorder) -> dict:
    """Per-layer metrics of the set-up plus the traced first round."""
    table = recorder.table()
    c = recorder.counts
    out = {}
    for layer, (calls, self_s, total_s) in table.items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_ms"] = (self_s * 1e3, "ms")
        out[f"{layer}.total_ms"] = (total_s * 1e3, "ms")
    steps = table["shield.Shield.step"][0]
    offered = c["shield.obstacle_checks"]
    recover = c["shield.recover_verify_calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    out.update({
        "model.capsule_points_batch.configs":
            (c["model.capsule_points_batch.configs"], "count"),
        "model.kinetic_energy_batch.states":
            (c["model.kinetic_energy_batch.states"], "count"),
        "occupancy.margin_pairs": (c["occupancy.margin_pairs"], "count"),
        "shield.subintervals": (c["shield.subintervals"], "count"),
        "shield.adopt_ratio": (ratio(c["shield.adopted_steps"], steps), "ratio"),
        "shield.recover_verify_calls": (recover, "count"),
        "shield.recover_cache_hit_ratio":
            (ratio(c["shield.recover_cache_hits"], recover), "ratio"),
        "shield.obstacle_checks": (offered, "count"),
        "shield.coarse_prune_ratio":
            (ratio(offered - c["occupancy.margin_obstacles"], offered), "ratio"),
        "trajectory.plan_intended.failures":
            (c["trajectory.plan_intended.failures"], "count"),
        "trajectory.handoff_jumps": (run.handoff_jumps, "count"),
        "tracing.overhead_pct":
            (100.0 * (1.0 - run.ticks_per_s(slice(0, 1))
                      / run.ticks_per_s(slice(1, None))), "%"),
    })
    return out


def cross_check(run: Run, results, table, counts) -> list:
    """Traced totals against the same totals read from the traces."""
    shielded = [(k, r) for k, r in zip(run.plan, results)
                if r is not None and k[1] in SHIELDED]
    cbf = [r for k, r in zip(run.plan, results) if r is not None and k[1] == "cbf"]
    done = [r for r in results if r is not None]
    pairs = {
        "shield.Shield.step.calls vs shielded ticks":
            (table["shield.Shield.step"][0], sum(r[0].n_ticks for _, r in shielded)),
        "shield.verify safe verdicts vs sum of trace.adopted":
            (counts["shield.verify.safe"],
             sum(int(r[0].adopted.sum()) for _, r in shielded)),
        "cbf.CbfController.step.calls vs cbf ticks":
            (table["cbf.CbfController.step"][0], sum(r[0].n_ticks for r in cbf)),
        "trajectory.plan_intended.calls vs chunks proposed":
            (table["trajectory.plan_intended"][0],
             sum(len(r[0].chunks) for r in done)),
        "trajectory.plan_intended.failures vs trace.planning_failures":
            (counts["trajectory.plan_intended.failures"],
             sum(r[0].planning_failures for r in done)),
    }
    return [f"cross-check {what}: {a} != {b}"
            for what, (a, b) in pairs.items() if a != b]


def main(argv=None) -> int:
    args = parse_args(argv)
    plan = WORKLOADS[args.workload](args.seed)
    lib = import_library()
    recorder = Recorder(LAYERS if args.trace else TIMED, count_work=bool(args.trace))
    with recorder:
        cases = load_cases(lib, plan)
    setup_s = process_age()

    references = {name: Scenario(str(SCENARIOS / f"{name}.yaml")) for name in cases}
    run = Run(lib.sim, plan, cases, references)
    run.problems += self_test()

    latencies = []
    n_rounds = 0
    start = time.perf_counter()
    while n_rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        tracing_now = args.trace and n_rounds == 0
        with recorder if tracing_now or not args.trace else nullcontext():
            results = run.round()
        if tracing_now:
            run.problems += cross_check(run, results, recorder.table(),
                                        recorder.counts)
        if args.trace:
            run.split_round(np.empty(0))
        else:
            steps = recorder.calls(STEP_LAYERS)
            plans = recorder.calls((PLAN_LAYER,))
            run.split_round(steps[:, 0])
            latencies.append((np.diff(steps, axis=1)[:, 0] * 1e3,
                              np.diff(plans, axis=1)[:, 0] * 1e3))
            recorder.reset()
        run.check(results)
        n_rounds += 1

    if args.trace:
        metrics = per_layer(run, recorder)
        samples = {}
    else:
        metrics, samples = end_to_end(run, latencies, setup_s)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": n_rounds, "round": [list(k) for k in plan],
        "attempted": run.attempted, "failed": run.failed,
        "handoff_jumps": run.handoff_jumps, "samples": samples,
        "problems": run.problems,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 "scipy": sys.modules["scipy"].__version__},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")

    for problem in run.problems:
        print(f"CHECK FAILED {problem}")
    print(f"workload={args.workload} seed={args.seed} rounds={n_rounds} "
          f"rollouts/round={len(plan)} handoff_jumps={run.handoff_jumps}")
    for k, (v, u) in metrics.items():
        n = samples.get(k)
        print(f"  {k} = {v:.6g} {u}" + (f" (n={n})" if n is not None else ""))
    print(f"detail: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
