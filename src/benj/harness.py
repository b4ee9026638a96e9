"""Experiment orchestration: convergence studies, the linearized
intermediate-problem diagnostic, and soliton propagation benchmarks.

All studies measure against a self-computed reference run at a bandwidth
at least four times the finest measured one and a step four times smaller,
which keeps the reference error well below every measured error.  The
member runs follow the reference one after another, in bandwidth order.

Studies exchange full-range ``SpectralField``s with ``evolve``.  The one
exception is the linearized study: its stored reference trajectory and the
frozen advection term it feeds to ``evolve(nonlinear=...)`` use the folded
half layout of ``spectral`` (modes k = 0..N times (-1)^k), the layout the
stepper's inner loop carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .initdata import InitialDataSpec, build_field, kdv_soliton
from .invariants import InvariantRecord, record_invariants
from .model import ModelParams
from .semidiscrete import frozen_nonlinear_term
from .spectral import (
    SpectralField,
    embed,
    fold_half,
    l2_norm,
    linf_norm,
    peak_position,
    project,
    translate,
)
from .timestep import IntegratorConfig, default_dt, evolve

_ERROR_FLOOR = 1e-300
_FIT_WINDOW = 4  # the rate is fitted over the finest bandwidths with usable errors


@dataclass(frozen=True)
class IntegratorPolicy:
    """Time-stepping choices shared by the member runs of a study.

    ``dt`` is the step of the measured runs (None derives it from the
    finest measured bandwidth); it is snapped so an integer number of steps
    lands exactly on the horizon, and the reference run uses dt/4.
    """

    method: str = "etdrk4"
    dt: Optional[float] = None


@dataclass
class ConvergenceReport:
    n_values: list
    errors: list
    fitted_rate: Optional[float]
    fit_r2: Optional[float]
    reference_n: int
    t_star: float
    dt: float
    failures: dict = field(default_factory=dict)
    w_linf_max: Optional[list] = None


@dataclass
class SolitonReport:
    speed_target: float
    speed_estimate: Optional[float]
    shape_error_linf: float
    drifts: InvariantRecord
    times: np.ndarray
    peak_positions: np.ndarray


def estimate_rate(n_values, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(N), negated.

    Returns (rate, r2).  A perfect algebraic decay error = C*N^(-p) gives
    rate p exactly with r2 = 1; constant errors give rate 0 (and r2 = 1,
    the fit being exact).  Requires at least two strictly positive errors.
    """
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(n_values) < 2 or len(n_values) != len(errors):
        raise ValueError("need at least two (N, error) pairs of equal length")
    if np.any(errors <= 0.0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be positive and finite to fit a rate")
    x, y = np.log(n_values), np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), r2


def _fit_tail(n_values, errors):
    """Fit the rate over the largest ``_FIT_WINDOW`` bandwidths with usable errors."""
    pairs = [
        (n, e)
        for n, e in zip(n_values, errors)
        if np.isfinite(e) and e > _ERROR_FLOOR
    ]
    if len(pairs) < 2:
        return None, None
    tail = pairs[-_FIT_WINDOW:]
    return estimate_rate([n for n, _ in tail], [e for _, e in tail])


def _snap_dt(t_star: float, dt_target: float) -> tuple[float, int]:
    """Largest dt <= target such that an integer number of steps spans t_star."""
    n_steps = max(1, math.ceil(t_star / dt_target - 1e-9))
    return t_star / n_steps, n_steps


def _prepare_study(params, data_spec, n_values, n_ref, t_star, integrator_policy):
    """Checked bandwidths, the method, the snapped member step and step count,
    and the initial datum at the reference bandwidth."""
    n_values = sorted(int(n) for n in n_values)
    if len(set(n_values)) != len(n_values):
        raise ValueError("n_values must be distinct")
    if n_ref < 4 * max(n_values):
        raise ValueError(
            f"reference bandwidth {n_ref} must be at least 4x the finest "
            f"measured bandwidth {max(n_values)}"
        )
    if t_star <= 0:
        raise ValueError(f"t_star must be > 0, got {t_star}")
    policy = integrator_policy or IntegratorPolicy()
    dt_target = policy.dt if policy.dt is not None else default_dt(params, max(n_values))
    dt, n_steps = _snap_dt(t_star, dt_target)
    return n_values, policy.method, dt, n_steps, build_field(data_spec, params, n_ref)


def _run_members(member, n_values, n_ref, t_star, dt, track_linf=False):
    """Run ``member(n)`` for each bandwidth in order and assemble the report.

    ``member(n)`` returns the member's error and its sup-norm maximum (None
    when the study does not ``track_linf``).  A member that diverges gets
    NaN for both and a ``failures`` entry; the rate is fitted on the rest.
    """
    errors, linf_max, failures = [], [], {}
    for n in n_values:
        try:
            err, wmax = member(n)
        except DivergenceError as exc:
            err, wmax = np.nan, np.nan
            failures[n] = f"diverged: {exc}"
        errors.append(err)
        linf_max.append(wmax)

    rate, r2 = _fit_tail(n_values, errors)
    return ConvergenceReport(
        n_values=n_values,
        errors=errors,
        fitted_rate=rate,
        fit_r2=r2,
        reference_n=n_ref,
        t_star=t_star,
        dt=dt,
        failures=failures,
        w_linf_max=linf_max if track_linf else None,
    )


def self_convergence(
    params: ModelParams,
    data_spec: InitialDataSpec,
    n_values,
    n_ref: int,
    t_star: float,
    integrator_policy: Optional[IntegratorPolicy] = None,
    track_max: bool = False,
) -> ConvergenceReport:
    """L2 errors of bandwidth-N runs against a fine reference at t_star.

    The initial datum is built once at the reference bandwidth and
    projected down for each member run, and fields are compared at the
    reference bandwidth (the coarser one zero-extended), so the reported
    error includes the projection tail.  By default the error is the
    final-time value, a lower bound for the max over [0, t_star];
    ``track_max`` compares at ~32 aligned snapshot times instead.
    """
    n_values, method, dt, n_steps, u0_ref = _prepare_study(
        params, data_spec, n_values, n_ref, t_star, integrator_policy
    )
    stride = max(1, n_steps // 32) if track_max else n_steps
    ref_config = IntegratorConfig(method, dt / 4.0, t_star, 4 * stride)
    ref_result = evolve(u0_ref, params, ref_config)
    ref_states = {round(t / dt, 6): f for t, f in ref_result.snapshots}

    def member(n: int):
        config = IntegratorConfig(method, dt, t_star, stride)
        result = evolve(project(u0_ref, n), params, config)
        errors_t = []
        for t, f in result.snapshots:
            ref = ref_states.get(round(t / dt, 6))
            if ref is not None:
                diff = ref.coeffs - embed(f, n_ref).coeffs
                errors_t.append(l2_norm(ref.with_coeffs(diff)))
        return max(errors_t), None

    return _run_members(member, n_values, n_ref, t_star, dt)


class _SteppedTrajectory:
    """Cubic-in-time interpolant over states stored at every reference step.

    ``at`` remembers its last query, so the two midpoint stages of a step,
    which ask for the same t, interpolate once; the states it returns are
    read-only, since a later query may hand out the same array.
    """

    def __init__(self, times_count: int, dt: float, states: np.ndarray):
        self.dt = dt
        self.states = states  # (times_count, modes) complex, folded half layout
        self.count = times_count
        self._last = (None, None)  # (t, state) of the last query

    def at(self, t: float) -> np.ndarray:
        last_t, last_state = self._last
        if t == last_t:
            return last_state
        state = self._interpolate(t)
        state.setflags(write=False)
        self._last = (t, state)
        return state

    def _interpolate(self, t: float) -> np.ndarray:
        pos = t / self.dt
        i0 = int(math.floor(pos + 1e-9))
        i0 = min(max(i0, 0), self.count - 1)
        frac = pos - i0
        if abs(frac) < 1e-8:
            return self.states[i0]
        if abs(frac - 1.0) < 1e-8:
            return self.states[min(i0 + 1, self.count - 1)]
        if self.count < 4:
            nxt = min(i0 + 1, self.count - 1)
            return (1.0 - frac) * self.states[i0] + frac * self.states[nxt]
        start = min(max(i0 - 1, 0), self.count - 4)
        xi = pos - start
        weights = []
        for a in range(4):
            w = 1.0
            for b in range(4):
                if a != b:
                    w *= (xi - b) / (a - b)
            weights.append(w)
        # the (1, 4) @ (4, modes) product np.tensordot forms, without its overhead
        return np.dot(np.array([weights]), self.states[start : start + 4])[0]


def intermediate_problem_study(
    params: ModelParams,
    data_spec: InitialDataSpec,
    n_values,
    n_ref: int,
    t_star: float,
    integrator_policy: Optional[IntegratorPolicy] = None,
) -> ConvergenceReport:
    """Decay of ||u - w^N|| for the advection-frozen linearized systems.

    A reference trajectory is stored at every integrator step; each w-run
    reuses that exact step size, freezing the advection coefficient at the
    reference solution projected to bandwidth (1+q)N and interpolated
    cubically at stage midpoints.  The sup norm of each w-run is monitored
    and reported alongside the error decay.
    """
    n_values, method, dt_measure, _, u0_ref = _prepare_study(
        params, data_spec, n_values, n_ref, t_star, integrator_policy
    )
    dt = dt_measure / 4.0
    n_keep = (1 + params.q) * max(n_values)
    store = [fold_half(u0_ref.coeffs, n_keep)]
    ref_config = IntegratorConfig(method, dt, t_star, 1)
    ref_result = evolve(
        u0_ref, params, ref_config,
        observer=lambda t, f: store.append(fold_half(f.coeffs, n_keep)),
    )
    n_steps = ref_result.n_steps
    stored = np.array(store)
    store.clear()  # the rows live on in `stored`; free the list's copies
    u_ref_final = ref_result.final

    def member(n: int):
        n_u = (1 + params.q) * n
        traj = _SteppedTrajectory(n_steps + 1, dt, stored[:, : n_u + 1])
        term = frozen_nonlinear_term(params, n, n_u)
        nonlinear = lambda c, t: term(traj.at(t), c)
        w0 = project(u0_ref, n)
        config = IntegratorConfig(method, dt, t_star, max(1, n_steps // 128))
        result = evolve(w0, params, config, nonlinear=nonlinear)
        linf_values = [linf_norm(w0)] + [linf_norm(f) for _, f in result.snapshots]
        diff = u_ref_final.coeffs - embed(result.final, n_ref).coeffs
        return l2_norm(u_ref_final.with_coeffs(diff)), max(linf_values)

    return _run_members(member, n_values, n_ref, t_star, dt, track_linf=True)


def soliton_propagation_test(
    speed: float,
    params: ModelParams,
    n_modes: int,
    t_star: float,
    dt: Optional[float] = None,
    profile: Optional[SpectralField] = None,
    method: str = "etdrk4",
) -> SolitonReport:
    """Propagate a traveling wave and measure its speed and shape fidelity.

    The profile defaults to the closed-form solitary wave of the gamma = 0,
    m = 1, q = 1 reduction; a converged fixed-point profile may be passed
    instead.  Speed is the slope of a linear fit through the unwrapped peak
    trajectory; the shape error is the sup-norm mismatch after translating
    the final state back by the measured displacement.
    """
    u0 = profile if profile is not None else kdv_soliton(speed, 0.0, params, n_modes)
    period = 2.0 * params.domain_scale * np.pi
    if t_star == 0.0:
        drifts = record_invariants([(0.0, u0)], params)
        return SolitonReport(
            speed_target=speed,
            speed_estimate=None,
            shape_error_linf=0.0,
            drifts=drifts,
            times=np.array([0.0]),
            peak_positions=np.array([peak_position(u0)]),
        )

    dt_target = dt if dt is not None else min(default_dt(params, n_modes), t_star)
    dt_run, n_steps = _snap_dt(t_star, dt_target)
    stride = max(1, n_steps // 200)
    config = IntegratorConfig(method, dt_run, t_star, stride)
    result = evolve(u0, params, config)

    snapshots = [(0.0, u0)] + result.snapshots
    times = np.array([t for t, _ in snapshots])
    raw = np.array([peak_position(f) for _, f in snapshots])
    unwrapped = raw.copy()
    for i in range(1, len(unwrapped)):
        jump = unwrapped[i] - unwrapped[i - 1]
        unwrapped[i] -= period * np.round(jump / period)
    speed_estimate = float(np.polyfit(times, unwrapped, 1)[0])

    shift = float(unwrapped[-1] - unwrapped[0])
    realigned = translate(result.final, -shift)
    mismatch = realigned.with_coeffs(realigned.coeffs - u0.coeffs)
    return SolitonReport(
        speed_target=speed,
        speed_estimate=speed_estimate,
        shape_error_linf=linf_norm(mismatch),
        drifts=record_invariants(snapshots, params),
        times=times,
        peak_positions=unwrapped,
    )
