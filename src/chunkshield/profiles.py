"""Jerk-limited scalar motion profiles along a one-dimensional coordinate.

A profile is a sequence of constant-jerk segments starting from an initial
(s, v, a) state. Two constructors matter:

* time_optimal_profile: minimum-duration motion from the start state to
  (s_target, 0, 0) under symmetric velocity/acceleration/jerk bounds, with
  the coordinate monotonically nondecreasing (v >= 0 throughout).
* brake_profile: minimum-distance stop (v = 0, a = 0) from the start state.

Both degrade safely: a start state that would overshoot the target even
under full braking yields the brake profile flagged as a fallback, never a
bound violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq


@dataclass(frozen=True)
class ScalarLimits:
    """Symmetric velocity/acceleration/jerk bounds on the scalar coordinate."""

    v_max: float
    a_max: float
    j_max: float

    def __post_init__(self):
        for name in ("v_max", "a_max", "j_max"):
            val = float(getattr(self, name))
            if not (np.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be finite and > 0")
            object.__setattr__(self, name, val)


def _integrate_segments(v0: float, a0: float, segments) -> tuple[float, float, float]:
    """Exact displacement and end (v, a) of a constant-jerk segment list."""
    s, v, a = 0.0, v0, a0
    for dt, j in segments:
        s += v * dt + 0.5 * a * dt * dt + j * dt**3 / 6.0
        v += a * dt + 0.5 * j * dt * dt
        a += j * dt
    return s, v, a


def _ramp_segments(v0: float, a0: float, v_target: float,
                   a_max: float, j_max: float) -> list[tuple[float, float]]:
    """Time-optimal acceleration-trapezoid bringing (v0, a0) to (v_target, 0).

    Returns (duration, jerk) segments. Classic S-curve algebra: ramp the
    acceleration to a peak value, optionally hold it, ramp back to zero; the
    peak is chosen so the velocity change comes out exactly.
    """
    j = j_max
    # Velocity reached if the acceleration is driven straight to zero.
    v_zero = v0 + a0 * abs(a0) / (2.0 * j)
    dv = v_target - v_zero
    segs: list[tuple[float, float]] = []
    if abs(dv) <= 1e-15 * max(1.0, abs(v_target)):
        if abs(a0) > 0.0:
            segs.append((abs(a0) / j, -np.sign(a0) * j))
        return segs
    if v_target > v_zero:
        a_peak = np.sqrt(j * (v_target - v0) + 0.5 * a0 * a0)
        if a_peak <= a_max:
            segs.append(((a_peak - a0) / j, j))
            segs.append((a_peak / j, -j))
        else:
            hold = (v_target - v0 - (2.0 * a_max**2 - a0 * a0) / (2.0 * j)) / a_max
            segs.append(((a_max - a0) / j, j))
            segs.append((hold, 0.0))
            segs.append((a_max / j, -j))
    else:
        a_peak = np.sqrt(j * (v0 - v_target) + 0.5 * a0 * a0)
        if a_peak <= a_max:
            segs.append(((a0 + a_peak) / j, -j))
            segs.append((a_peak / j, j))
        else:
            hold = (v0 - v_target + (a0 * a0 - 2.0 * a_max**2) / (2.0 * j)) / a_max
            segs.append(((a0 + a_max) / j, -j))
            segs.append((hold, 0.0))
            segs.append((a_max / j, j))
    return [(max(0.0, dt), jv) for dt, jv in segs if dt > 1e-15]


@dataclass(frozen=True)
class ScalarProfile:
    """Piecewise constant-jerk motion of the scalar coordinate.

    Sampling beyond the final segment holds the end position at rest, which
    is the physical behavior of a completed or fully braked motion.
    """

    s0: float
    v0: float
    a0: float
    durations: np.ndarray
    jerks: np.ndarray
    brake_fallback: bool = False
    _times: np.ndarray = field(init=False, repr=False, default=None)
    _states: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        dur = np.asarray(self.durations, dtype=float).reshape(-1)
        jrk = np.asarray(self.jerks, dtype=float).reshape(-1)
        if dur.shape != jrk.shape:
            raise ValueError("durations and jerks must have equal length")
        if np.any(dur < 0.0) or not np.all(np.isfinite(dur)):
            raise ValueError("segment durations must be finite and >= 0")
        dur.flags.writeable = False
        jrk.flags.writeable = False
        object.__setattr__(self, "durations", dur)
        object.__setattr__(self, "jerks", jrk)

        k = dur.shape[0]
        times = np.concatenate([[0.0], np.cumsum(dur)])
        states = np.empty((k + 1, 3))
        states[0] = (self.s0, self.v0, self.a0)
        for i in range(k):
            s, v, a = states[i]
            dt = dur[i]
            j = jrk[i]
            states[i + 1, 0] = s + v * dt + 0.5 * a * dt * dt + j * dt**3 / 6.0
            states[i + 1, 1] = v + a * dt + 0.5 * j * dt * dt
            states[i + 1, 2] = a + j * dt
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "_times", times)
        object.__setattr__(self, "_states", states)

    @property
    def duration(self) -> float:
        return float(self._times[-1])

    @property
    def end_s(self) -> float:
        return float(self._states[-1, 0])

    @property
    def end_state(self) -> tuple[float, float, float]:
        return tuple(self._states[-1])

    def sample(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(s, v, a, jerk) at times t (scalar or array), relative to profile start.

        The scalar and array branches use the same multiply chains, so
        their results agree bitwise.
        """
        if isinstance(t, (int, float)):
            return self._sample_scalar(float(t))
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            return self._sample_scalar(float(t))
        t_cl = np.clip(t, 0.0, self.duration)
        if self.durations.shape[0] == 0:
            s = np.full_like(t_cl, self.s0)
            z = np.zeros_like(t_cl)
            out = (s, np.full_like(t_cl, self.v0), np.full_like(t_cl, self.a0), z)
        else:
            idx = np.clip(np.searchsorted(self._times, t_cl, side="right") - 1,
                          0, self.durations.shape[0] - 1)
            dt = t_cl - self._times[idx]
            dt2 = dt * dt
            dt3 = dt2 * dt
            s_i = self._states[idx, 0]
            v_i = self._states[idx, 1]
            a_i = self._states[idx, 2]
            j_i = self.jerks[idx]
            s = s_i + v_i * dt + 0.5 * a_i * dt2 + j_i * dt3 / 6.0
            v = v_i + a_i * dt + 0.5 * j_i * dt2
            a = a_i + j_i * dt
            out = (s, v, a, j_i.astype(float).copy())
        past = t > self.duration
        if np.any(past):
            out[0][past] = self.end_s
            out[1][past] = 0.0
            out[2][past] = 0.0
            out[3][past] = 0.0
        return out

    def _sample_scalar(self, t: float) -> tuple[float, float, float, float]:
        duration = self.duration
        if t > duration:
            return self.end_s, 0.0, 0.0, 0.0
        n_seg = self.durations.shape[0]
        if n_seg == 0:
            return self.s0, self.v0, self.a0, 0.0
        t_cl = 0.0 if t < 0.0 else t
        idx = int(np.searchsorted(self._times, t_cl, side="right")) - 1
        if idx < 0:
            idx = 0
        elif idx > n_seg - 1:
            idx = n_seg - 1
        dt = t_cl - float(self._times[idx])
        s_i = float(self._states[idx, 0])
        v_i = float(self._states[idx, 1])
        a_i = float(self._states[idx, 2])
        j_i = float(self.jerks[idx])
        dt2 = dt * dt
        dt3 = dt2 * dt
        s = s_i + v_i * dt + 0.5 * a_i * dt2 + j_i * dt3 / 6.0
        v = v_i + a_i * dt + 0.5 * j_i * dt2
        a = a_i + j_i * dt
        return s, v, a, j_i

    def truncated(self, t_cut: float) -> "ScalarProfile":
        """Prefix of the profile ending at time t_cut (exact, same polynomials)."""
        t_cut = float(np.clip(t_cut, 0.0, self.duration))
        keep = int(np.searchsorted(self._times[1:], t_cut, side="left"))
        dur = list(self.durations[:keep])
        jrk = list(self.jerks[:keep])
        rem = t_cut - float(self._times[keep])
        if rem > 1e-15 and keep < self.durations.shape[0]:
            dur.append(rem)
            jrk.append(float(self.jerks[keep]))
        return ScalarProfile(self.s0, self.v0, self.a0, np.array(dur), np.array(jrk),
                             brake_fallback=self.brake_fallback)


def _profile_from(s0: float, v0: float, a0: float, segments,
                  brake_fallback: bool = False) -> ScalarProfile:
    if segments:
        dur, jrk = zip(*segments)
    else:
        dur, jrk = (), ()
    return ScalarProfile(s0, v0, a0, np.array(dur, dtype=float),
                         np.array(jrk, dtype=float), brake_fallback=brake_fallback)


def brake_profile(start: tuple[float, float, float], limits: ScalarLimits) -> ScalarProfile:
    """Time-optimal jerk-limited stop from (s, v, a): minimal stopping distance."""
    s0, v0, a0 = (float(x) for x in start)
    segs = _ramp_segments(v0, a0, 0.0, limits.a_max, limits.j_max)
    return _profile_from(s0, v0, a0, segs)


def stop_distance(v0: float, a0: float, limits: ScalarLimits) -> float:
    """Distance covered by the minimal stop from (v, a)."""
    segs = _ramp_segments(float(v0), float(a0), 0.0, limits.a_max, limits.j_max)
    ds, _, _ = _integrate_segments(float(v0), float(a0), segs)
    return ds


def time_optimal_profile(s_target: float, start: tuple[float, float, float],
                         limits: ScalarLimits) -> ScalarProfile:
    """Minimum-time profile from the start state to (s_target, 0, 0).

    Structure: bring the velocity to a peak value (acceleration trapezoid),
    cruise, then brake to rest exactly at the target. The peak is v_max when
    the distance allows a cruise, otherwise found by bisection on the
    monotone distance-vs-peak relation.

    A start that would overshoot the target even under the hardest stop
    returns its brake profile with brake_fallback set.
    """
    s_target = float(s_target)
    s0, v0, a0 = (float(x) for x in start)
    need = s_target - s0
    vm, am, jm = limits.v_max, limits.a_max, limits.j_max
    tol = 1e-9 * max(1.0, abs(s_target))

    if need <= tol and abs(v0) <= 1e-12 and abs(a0) <= 1e-12:
        return _profile_from(s0, v0, a0, [])

    d_stop = stop_distance(v0, a0, limits)
    if d_stop > need + tol:
        prof = brake_profile(start, limits)
        return ScalarProfile(prof.s0, prof.v0, prof.a0, prof.durations, prof.jerks,
                             brake_fallback=True)

    def dist_for_peak(vp: float) -> tuple[float, list, list]:
        up = _ramp_segments(v0, a0, vp, am, jm)
        down = _ramp_segments(vp, 0.0, 0.0, am, jm)
        d_up, v_mid, _ = _integrate_segments(v0, a0, up)
        d_down, _, _ = _integrate_segments(v_mid, 0.0, down)
        return d_up + d_down, up, down

    d_full, up, down = dist_for_peak(vm)
    if d_full <= need:
        cruise = (need - d_full) / vm
        segs = up + ([(cruise, 0.0)] if cruise > 1e-15 else []) + down
        return _profile_from(s0, v0, a0, segs)

    # dist_for_peak is continuous and strictly increasing in the peak, so
    # the peak hitting the required distance is a bracketed root.
    def dist_err(vp: float) -> float:
        return dist_for_peak(vp)[0] - need

    if dist_err(0.0) >= 0.0:
        vp = 0.0
    else:
        vp = float(brentq(dist_err, 0.0, vm, xtol=1e-12, maxiter=200))
    d_vp, up, down = dist_for_peak(vp)
    segs = list(up)
    residual = need - d_vp
    if vp > 1e-9 and residual > 0.0:
        segs.append((residual / vp, 0.0))
    segs += down
    return _profile_from(s0, v0, a0, segs)


def hold_profile(s0: float, duration: float) -> ScalarProfile:
    """Zero-motion profile: hold position s0 for the given duration."""
    if duration <= 0.0:
        return _profile_from(float(s0), 0.0, 0.0, [])
    return _profile_from(float(s0), 0.0, 0.0, [(float(duration), 0.0)])


def append_brake(profile: ScalarProfile, t_switch: float,
                 limits: ScalarLimits) -> tuple[ScalarProfile, ScalarProfile]:
    """Truncate a profile at t_switch and chain the minimal stop onto it.

    Returns (combined profile, the brake profile alone). The combined motion
    is exactly continuous at the switch because the brake starts from the
    truncated end state.
    """
    head = profile.truncated(t_switch)
    s_i, v_i, a_i = head.end_state
    brake = brake_profile((s_i, v_i, a_i), limits)
    dur = np.concatenate([head.durations, brake.durations])
    jrk = np.concatenate([head.jerks, brake.jerks])
    return ScalarProfile(head.s0, head.v0, head.a0, dur, jrk), brake
