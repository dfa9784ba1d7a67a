"""Scalar profile tests against closed forms and a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chunkshield.profiles import (
    ScalarLimits,
    ScalarProfile,
    append_brake,
    brake_profile,
    hold_profile,
    stop_distance,
    time_optimal_profile,
)
from oracles import integrate_profile, oracle_min_duration


def dense_check_limits(profile, limits, tol=1e-9):
    """Sample the profile densely and assert scalar limits hold."""
    if profile.duration == 0.0:
        return
    ts = np.linspace(0.0, profile.duration, 4000)
    s, v, a, j = profile.sample(ts)
    assert np.all(v <= limits.v_max + tol)
    assert np.all(v >= -tol)
    assert np.all(np.abs(a) <= limits.a_max + tol)
    assert np.all(np.abs(j) <= limits.j_max + tol)
    assert np.all(np.diff(s) >= -tol)


def random_instance(rng):
    # Start states are restricted to those from which both v <= v_max and
    # v >= 0 can be maintained; any state on a limit-respecting profile
    # satisfies both bounds.
    vm = rng.uniform(0.5, 3.0)
    am = rng.uniform(1.0, 12.0)
    jm = rng.uniform(5.0, 500.0)
    v0 = rng.uniform(0.0, 0.95 * vm)
    a_hi = min(am, np.sqrt(max(2.0 * jm * (vm - v0), 0.0)))
    a_lo = -min(am, np.sqrt(2.0 * jm * v0))
    a0 = rng.uniform(a_lo, a_hi)
    limits = ScalarLimits(v_max=vm, a_max=am, j_max=jm)
    d_stop = stop_distance(v0, a0, limits)
    target = d_stop * (1.0 + rng.uniform(0.05, 3.0)) + rng.uniform(0.0, 2.0)
    return target, v0, a0, limits


class TestClosedForms:
    def test_trapezoid_duration(self):
        # Near-infinite jerk: classic trapezoid, T = S/vm + vm/am.
        limits = ScalarLimits(v_max=1.0, a_max=1.0, j_max=1e6)
        prof = time_optimal_profile(3.0, (0.0, 0.0, 0.0), limits)
        assert prof.duration == pytest.approx(4.0, abs=1e-4)
        assert prof.end_s == pytest.approx(3.0, abs=1e-9)

    def test_cruise_s_curve_duration(self):
        # Long move with cruise: T = S/vm + vm/am + am/jm.
        limits = ScalarLimits(v_max=2.0, a_max=2.0, j_max=4.0)
        prof = time_optimal_profile(10.0, (0.0, 0.0, 0.0), limits)
        assert prof.duration == pytest.approx(6.5, abs=1e-9)
        s, v, a = prof.end_state
        assert s == pytest.approx(10.0, abs=1e-9)
        assert v == pytest.approx(0.0, abs=1e-9)
        assert a == pytest.approx(0.0, abs=1e-9)

    def test_jerk_limited_triangle(self):
        # Only jerk binds: rest to rest over S = 2*j*tau^3 takes 4*tau.
        limits = ScalarLimits(v_max=100.0, a_max=100.0, j_max=1.0)
        prof = time_optimal_profile(2.0, (0.0, 0.0, 0.0), limits)
        assert prof.duration == pytest.approx(4.0, abs=1e-9)

    def test_brake_trapezoid(self):
        limits = ScalarLimits(v_max=2.0, a_max=1.0, j_max=1e6)
        prof = brake_profile((0.0, 1.0, 0.0), limits)
        assert prof.duration == pytest.approx(1.0, abs=1e-4)
        assert prof.end_s == pytest.approx(0.5, abs=1e-4)
        assert stop_distance(1.0, 0.0, limits) == pytest.approx(0.5, abs=1e-4)

    def test_zero_move_at_rest(self):
        limits = ScalarLimits(v_max=1.0, a_max=1.0, j_max=10.0)
        prof = time_optimal_profile(0.0, (0.0, 0.0, 0.0), limits)
        assert prof.duration == 0.0
        assert prof.end_s == 0.0
        assert not prof.brake_fallback

    def test_unreachable_target_brakes(self):
        limits = ScalarLimits(v_max=2.0, a_max=1.0, j_max=1e6)
        prof = time_optimal_profile(0.1, (0.0, 1.0, 0.0), limits)
        assert prof.brake_fallback
        assert prof.end_s > 0.1
        s, v, a = prof.end_state
        assert v == pytest.approx(0.0, abs=1e-9)


class TestOracleComparison:
    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(20240811)
        n_checked = 0
        for _ in range(40):
            target, v0, a0, limits = random_instance(rng)
            prof = time_optimal_profile(target, (0.0, v0, a0), limits)
            assert not prof.brake_fallback, (target, v0, a0, limits)
            s, v, a = prof.end_state
            assert s == pytest.approx(target, abs=1e-9)
            assert v == pytest.approx(0.0, abs=1e-9)
            assert a == pytest.approx(0.0, abs=1e-9)
            dense_check_limits(prof, limits)

            best, _ = oracle_min_duration(
                target, v0, a0, limits.v_max, limits.a_max, limits.j_max
            )
            assert np.isfinite(best)
            assert prof.duration <= best + 1e-6
            assert prof.duration >= 0.99 * best
            n_checked += 1
        assert n_checked == 40

    def test_brake_is_time_optimal_to_stop_distance(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, v0, a0, limits = random_instance(rng)
            if v0 < 1e-3:
                continue
            d_stop = stop_distance(v0, a0, limits)
            brake = brake_profile((0.0, v0, a0), limits)
            best, _ = oracle_min_duration(
                d_stop, v0, a0, limits.v_max, limits.a_max, limits.j_max
            )
            assert brake.duration <= best + 1e-6
            assert brake.end_s == pytest.approx(d_stop, abs=1e-9)

    def test_oracle_integrator_agrees_with_sampler(self):
        # Sanity-check the oracle's dense integrator against the profile
        # sampler on an arbitrary segment list.
        limits = ScalarLimits(v_max=2.0, a_max=2.0, j_max=8.0)
        prof = time_optimal_profile(3.0, (0.0, 0.5, -0.4), limits)
        ts, ss, vs, accs = integrate_profile(
            0.5, -0.4, list(prof.durations), list(prof.jerks)
        )
        s, v, a, _ = prof.sample(ts)
        assert np.allclose(ss, s, atol=1e-9)
        assert np.allclose(vs, v, atol=1e-9)
        assert np.allclose(accs, a, atol=1e-9)


class TestProfileMechanics:
    def test_sample_vectorized_matches_scalar(self):
        limits = ScalarLimits(v_max=1.5, a_max=3.0, j_max=30.0)
        prof = time_optimal_profile(2.0, (0.1, 0.2, 0.0), limits)
        ts = np.linspace(-0.1, prof.duration + 0.1, 57)
        s_vec, v_vec, a_vec, j_vec = prof.sample(ts)
        for i, t in enumerate(ts):
            s, v, a, j = prof.sample(float(t))
            assert s == pytest.approx(s_vec[i], abs=0.0)
            assert v == pytest.approx(v_vec[i], abs=0.0)
            assert a == pytest.approx(a_vec[i], abs=0.0)
            assert j == pytest.approx(j_vec[i], abs=0.0)

    def test_sample_holds_after_end(self):
        limits = ScalarLimits(v_max=1.0, a_max=2.0, j_max=20.0)
        prof = time_optimal_profile(1.0, (0.0, 0.0, 0.0), limits)
        s, v, a, j = prof.sample(prof.duration + 5.0)
        assert s == pytest.approx(prof.end_s, abs=1e-12)
        assert (v, a, j) == (0.0, 0.0, 0.0)

    def test_truncated_prefix_matches(self):
        limits = ScalarLimits(v_max=1.0, a_max=2.0, j_max=20.0)
        prof = time_optimal_profile(1.0, (0.0, 0.0, 0.0), limits)
        t_cut = 0.37 * prof.duration
        head = prof.truncated(t_cut)
        assert head.duration == pytest.approx(t_cut, abs=1e-12)
        ts = np.linspace(0.0, t_cut, 200)
        for orig, cut in zip(prof.sample(ts), head.sample(ts)):
            assert np.allclose(orig, cut, atol=1e-12)
        assert head.end_state == pytest.approx(prof.sample(t_cut)[:3], abs=1e-12)

    def test_append_brake_continuity(self):
        limits = ScalarLimits(v_max=1.2, a_max=4.0, j_max=80.0)
        prof = time_optimal_profile(2.0, (0.0, 0.3, 0.5), limits)
        t_switch = 0.4 * prof.duration
        combined, brake = append_brake(prof, t_switch, limits)
        eps = 1e-7
        before = combined.sample(t_switch - eps)
        after = combined.sample(t_switch + eps)
        assert abs(before[0] - after[0]) < 1e-5
        assert abs(before[1] - after[1]) < 1e-4
        s_end, v_end, a_end = combined.end_state
        assert v_end == pytest.approx(0.0, abs=1e-9)
        assert a_end == pytest.approx(0.0, abs=1e-9)
        assert combined.duration == pytest.approx(t_switch + brake.duration, abs=1e-9)
        assert s_end == pytest.approx(
            prof.sample(t_switch)[0] + brake.end_s - brake.s0, abs=1e-9
        )
        dense_check_limits(combined, limits)

    def test_hold_profile(self):
        prof = hold_profile(1.5, 0.25)
        ts = np.linspace(0.0, 0.25, 20)
        s, v, a, j = prof.sample(ts)
        assert np.allclose(s, 1.5)
        assert np.allclose(v, 0.0)
        assert prof.duration == pytest.approx(0.25)

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            ScalarLimits(v_max=0.0, a_max=1.0, j_max=1.0)
        with pytest.raises(ValueError):
            ScalarLimits(v_max=1.0, a_max=-2.0, j_max=1.0)


@settings(max_examples=60, deadline=None)
@given(
    vm=st.floats(0.3, 3.0),
    am=st.floats(0.5, 15.0),
    jm=st.floats(2.0, 600.0),
    v_frac=st.floats(0.0, 0.95),
    a_frac=st.floats(-1.0, 1.0),
    extra=st.floats(0.01, 4.0),
)
def test_property_reaches_target_within_limits(vm, am, jm, v_frac, a_frac, extra):
    limits = ScalarLimits(v_max=vm, a_max=am, j_max=jm)
    v0 = v_frac * vm
    a_hi = min(am, np.sqrt(max(2.0 * jm * (vm - v0), 0.0)))
    a_lo = -min(am, np.sqrt(2.0 * jm * v0))
    a0 = np.clip(a_frac * am, a_lo, a_hi)
    d_stop = stop_distance(v0, a0, limits)
    target = d_stop + extra
    prof = time_optimal_profile(target, (0.0, v0, a0), limits)
    assert not prof.brake_fallback
    s, v, a = prof.end_state
    assert s == pytest.approx(target, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-9)
    assert a == pytest.approx(0.0, abs=1e-9)
    if prof.duration > 0.0:
        ts = np.linspace(0.0, prof.duration, 800)
        _, vs, accs, jerks = prof.sample(ts)
        assert np.all(vs <= vm + 1e-8)
        assert np.all(vs >= -1e-8)
        assert np.all(np.abs(accs) <= am + 1e-8)
        assert np.all(np.abs(jerks) <= jm + 1e-8)
