"""Chunk integration and chunk-source tests."""

import numpy as np
import pytest

from chunkshield.chunks import (
    ActionChunk,
    ScriptedPlanner,
    integrate_chunk,
)
from chunkshield.model import JointState, KinematicLimits


def limits(n, lo=-3.0, hi=3.0):
    return KinematicLimits(q_min=[lo] * n, q_max=[hi] * n, v_max=[2.0] * n,
                           a_max=[10.0] * n, j_max=[400.0] * n)


class TestIntegrateChunk:
    def test_zero_actions_identical_waypoints(self):
        chunk = ActionChunk(np.zeros((5, 2)), dt=0.1)
        wp = integrate_chunk([0.0, 0.0], chunk, 3, limits(2))
        assert wp.waypoints.shape == (4, 2)
        assert np.all(wp.waypoints == 0.0)
        assert not wp.clamped

    def test_prefix_sums(self):
        chunk = ActionChunk([[0.1], [0.2], [0.3]], dt=0.1)
        wp = integrate_chunk([0.0], chunk, 3, limits(1))
        assert np.allclose(wp.waypoints.ravel(), [0.0, 0.1, 0.3, 0.6], atol=1e-15)

    def test_matches_cumulative_sum_oracle(self):
        rng = np.random.default_rng(123)
        deltas = rng.uniform(-0.05, 0.05, (16, 7))
        q0 = rng.uniform(-1.0, 1.0, 7)
        chunk = ActionChunk(deltas, dt=0.033)
        wp = integrate_chunk(q0, chunk, 6, limits(7))
        expected = [q0.copy()]
        for i in range(6):
            expected.append(expected[-1] + deltas[i])
        assert np.allclose(wp.waypoints, np.array(expected), atol=1e-15)
        assert wp.waypoints.shape == (7, 7)

    def test_only_first_h_deltas_matter(self):
        rng = np.random.default_rng(5)
        head = rng.uniform(-0.1, 0.1, (4, 3))
        tail_a = rng.uniform(-0.1, 0.1, (4, 3))
        tail_b = rng.uniform(-0.1, 0.1, (4, 3))
        wp_a = integrate_chunk(np.zeros(3), ActionChunk(np.vstack([head, tail_a]), 0.1),
                               4, limits(3))
        wp_b = integrate_chunk(np.zeros(3), ActionChunk(np.vstack([head, tail_b]), 0.1),
                               4, limits(3))
        assert np.array_equal(wp_a.waypoints, wp_b.waypoints)

    def test_linear_before_clamp(self):
        rng = np.random.default_rng(6)
        deltas = rng.uniform(-0.05, 0.05, (6, 2))
        q0 = np.array([0.2, -0.1])
        lim = limits(2)
        full = integrate_chunk(q0, ActionChunk(deltas, 0.1), 6, lim)
        half = integrate_chunk(q0, ActionChunk(0.5 * deltas, 0.1), 6, lim)
        assert np.allclose(half.waypoints - q0, 0.5 * (full.waypoints - q0),
                           atol=1e-15)

    def test_clamp_records_event(self):
        lim = limits(1, lo=-1.0, hi=1.0)
        chunk = ActionChunk([[0.6], [0.6], [0.6]], dt=0.1)
        wp = integrate_chunk([0.0], chunk, 3, lim)
        assert wp.clamped
        assert np.allclose(wp.waypoints.ravel(), [0.0, 0.6, 1.0, 1.0])

    def test_h_out_of_range(self):
        chunk = ActionChunk(np.zeros((3, 1)), dt=0.1)
        with pytest.raises(ValueError):
            integrate_chunk([0.0], chunk, 0, limits(1))
        with pytest.raises(ValueError):
            integrate_chunk([0.0], chunk, 4, limits(1))

    def test_nonfinite_deltas_rejected(self):
        with pytest.raises(ValueError):
            ActionChunk([[np.inf]], dt=0.1)


class TestScriptedPlanner:
    def test_at_goal_emits_zero_chunk(self):
        planner = ScriptedPlanner(goals=[[0.5, 0.5]], horizon=8, dt=0.1,
                                  step_cap=0.1, goal_tol=1e-3)
        rng = np.random.default_rng(0)
        chunk = planner.propose(0.0, JointState.rest([0.5, 0.5]), rng)
        assert np.all(chunk.deltas == 0.0)

    def test_saturated_straight_line(self):
        planner = ScriptedPlanner(goals=[[1.0]], horizon=16, dt=0.1, step_cap=0.1)
        rng = np.random.default_rng(0)
        chunk = planner.propose(0.0, JointState.rest([0.0]), rng)
        expected = np.concatenate([np.full(10, 0.1), np.zeros(6)])
        assert np.allclose(chunk.deltas.ravel(), expected, atol=1e-12)

    def test_seeded_noise_deterministic(self):
        def run(seed):
            planner = ScriptedPlanner(goals=[[1.0, -1.0]], horizon=8, dt=0.1,
                                      step_cap=0.05, noise=0.5)
            rng = np.random.default_rng(seed)
            return planner.propose(0.0, JointState.rest([0.0, 0.0]), rng).deltas
        assert np.array_equal(run(7), run(7))
        assert not np.array_equal(run(7), run(8))

    def test_noise_respects_step_cap(self):
        planner = ScriptedPlanner(goals=[[2.0]], horizon=32, dt=0.1,
                                  step_cap=0.05, noise=1.0)
        rng = np.random.default_rng(11)
        chunk = planner.propose(0.0, JointState.rest([0.0]), rng)
        assert np.abs(chunk.deltas).max() <= 0.05 + 1e-12

    def test_goal_advancement(self):
        planner = ScriptedPlanner(goals=[[0.0], [1.0]], horizon=4, dt=0.1,
                                  step_cap=0.5, goal_tol=0.01)
        rng = np.random.default_rng(0)
        chunk = planner.propose(0.0, JointState.rest([0.0]), rng)
        # First goal already satisfied, so the planner heads for the second.
        assert chunk.deltas[0, 0] == pytest.approx(0.5)

    def test_empty_goals_rejected(self):
        with pytest.raises(ValueError):
            ScriptedPlanner(goals=np.zeros((0, 2)), horizon=4, dt=0.1, step_cap=0.1)
