"""Experiment orchestration: convergence studies, the linearized
intermediate-problem diagnostic, and soliton propagation benchmarks.

All studies measure against a self-computed reference run at a bandwidth
at least four times the finest measured one (max(4, 1+q) times in the
linearized study, which stores it at bandwidth (1+q)N) and a step four
times smaller, which keeps the reference error well below every measured
error.  The member runs follow the reference as one stack
(``timestep.evolve_rows``): row i is the bandwidth-n_i member posed at
the finest member's bandwidth with its flux masked to |k| <= n_i, the
same Galerkin system up to rounding.  A row that diverges becomes its
member's ``failures`` entry; the other rows go on.  Bandwidths below 1
and horizons or steps that are not positive are ValueErrors, raised
before anything is built or run.

Fields, member rows and stored reference states share the one layout a
``SpectralField`` stores (the folded half of ``spectral``), so nothing
converts: a member is the field ``with_half`` of its row's first n+1
entries.  The linearized study's reference trajectory is one array that
the observer fills in place; the frozen term keeps every row's u^q for
the last stage time it saw, the study's one cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .initdata import InitialDataSpec, build_field, kdv_soliton
from .invariants import InvariantRecord, record_invariants
from .model import ModelParams
from .semidiscrete import folded_nonlinear_term, frozen_nonlinear_term
from .spectral import SpectralField, l2_norm, linf_norm, peak_position, translate
from .timestep import (IntegratorConfig, check_method, check_step_count, default_dt, evolve,
                       evolve_rows)

_ERROR_FLOOR = 1e-300
_FIT_WINDOW = 4  # the rate is fitted over the finest bandwidths with usable errors


@dataclass(frozen=True)
class IntegratorPolicy:
    """Time-stepping choices shared by the member runs of a study.

    ``dt`` is the step of the measured runs (None derives it from the
    finest measured bandwidth); it is snapped so an integer number of steps
    lands exactly on the horizon, and the reference run uses dt/4.  A dt
    that is not > 0 (NaN included), or a method ``IntegratorConfig`` does
    not know, is a ValueError, raised before a study builds its datum.
    """

    method: str = "etdrk4"
    dt: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "method", check_method(self.method))
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


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
    speed_estimate: float
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
    if not t_star > 0:
        raise ValueError(f"t_star must be > 0, got {t_star}")
    if not dt_target > 0:
        raise ValueError(f"dt must be > 0, got {dt_target}")
    n_steps = max(1, math.ceil(check_step_count(t_star / dt_target) - 1e-9))
    return t_star / n_steps, n_steps


def _prepare_study(params, data_spec, n_values, n_ref, t_star, integrator_policy, ref_factor=4):
    """Checked bandwidths (n_ref at least ``ref_factor`` times the finest),
    the method, the snapped member step and step count, and the initial
    datum at n_ref.  Every check runs before the datum is built."""
    n_values = sorted(int(n) for n in n_values)
    if not n_values or n_values[0] < 1 or len(set(n_values)) != len(n_values):
        raise ValueError(f"n_values must be distinct bandwidths >= 1, got {n_values}")
    if n_ref < ref_factor * max(n_values):
        raise ValueError(
            f"reference bandwidth {n_ref} must be at least {ref_factor}x the finest "
            f"measured bandwidth {max(n_values)}, i.e. >= {ref_factor * max(n_values)}"
        )
    policy = integrator_policy or IntegratorPolicy()
    dt_target = policy.dt if policy.dt is not None else default_dt(params, max(n_values))
    dt, n_steps = _snap_dt(t_star, dt_target)
    return n_values, policy.method, dt, n_steps, build_field(data_spec, params, n_ref)


def _stack(u0_ref: SpectralField, n_values) -> np.ndarray:
    """The members' initial rows: the datum projected to each bandwidth, in
    the folded half layout of the finest one (zero above a row's own)."""
    top = u0_ref.half[: n_values[-1] + 1]
    return np.where(np.arange(len(top)) <= np.array(n_values)[:, None], top, 0)


def _error(ref: SpectralField, row: np.ndarray, n: int) -> float:
    """L2 distance from ``ref`` to the bandwidth-n member of a stack row,
    zero-extended to the reference bandwidth."""
    return l2_norm(ref.with_half(ref.half - np.pad(row[: n + 1], (0, ref.n_modes - n))))


def _report(n_values, errors, failures, n_ref, t_star, dt, linf_max=None):
    """Assemble the report from the members' per-row results.

    A row in ``failures`` (row index -> DivergenceError) reads NaN for its
    error and sup norm and gets a ``failures`` entry under its bandwidth;
    the rate is fitted on the rest.
    """
    errors = [np.nan if i in failures else e for i, e in enumerate(errors)]
    if linf_max is not None:
        linf_max = [np.nan if i in failures else w for i, w in enumerate(linf_max)]
    rate, r2 = _fit_tail(n_values, errors)
    return ConvergenceReport(
        n_values=n_values,
        errors=errors,
        fitted_rate=rate,
        fit_r2=r2,
        reference_n=n_ref,
        t_star=t_star,
        dt=dt,
        failures={n_values[i]: f"diverged: {exc}" for i, exc in failures.items()},
        w_linf_max=linf_max,
    )


def self_convergence(
    params: ModelParams,
    data_spec: InitialDataSpec,
    n_values,
    n_ref: int,
    t_star: float,
    integrator_policy: Optional[IntegratorPolicy] = None,
) -> ConvergenceReport:
    """L2 errors at t_star of bandwidth-N runs against a fine reference.

    The initial datum is built once at the reference bandwidth and
    projected down for each member run, and fields are compared at the
    reference bandwidth (the coarser one zero-extended), so the reported
    error includes the projection tail.  The error is the final-time
    value, a lower bound for the max over [0, t_star].
    """
    n_values, method, dt, n_steps, u0_ref = _prepare_study(
        params, data_spec, n_values, n_ref, t_star, integrator_policy
    )
    ref_config = IntegratorConfig(method, dt / 4.0, t_star, 4 * n_steps)
    ref_final = evolve(u0_ref, params, ref_config).final
    flux = folded_nonlinear_term(params, n_values)
    result = evolve_rows(_stack(u0_ref, n_values), params,
                         IntegratorConfig(method, dt, t_star, n_steps), lambda c, t: flux(c))
    errors = [_error(ref_final, row, n) for row, n in zip(result.final, n_values)]
    return _report(n_values, errors, result.failures, n_ref, t_star, dt)


def _interpolate(states: np.ndarray, dt: float, t: float) -> np.ndarray:
    """Cubic-in-time interpolant at t of ``states``, stored at every step of
    size dt (at least 4 rows): the stored state within 1e-8 steps of a step
    time, else the Lagrange polynomial through the 4 rows around t."""
    pos = t / dt
    nearest = round(pos)
    if abs(pos - nearest) < 1e-8:
        return states[min(max(nearest, 0), len(states) - 1)]
    start = min(max(math.floor(pos) - 1, 0), len(states) - 4)
    xi = pos - start
    weights = []
    for a in range(4):
        w = 1.0
        for b in range(4):
            if a != b:
                w *= (xi - b) / (a - b)
        weights.append(w)
    # the (1, 4) @ (4, modes) product np.tensordot forms, without its overhead
    return np.dot(np.array([weights]), states[start : start + 4])[0]


def intermediate_problem_study(
    params: ModelParams,
    data_spec: InitialDataSpec,
    n_values,
    n_ref: int,
    t_star: float,
    integrator_policy: Optional[IntegratorPolicy] = None,
) -> ConvergenceReport:
    """Decay of ||u - w^N|| for the advection-frozen linearized systems.

    A reference trajectory is stored at every integrator step; the w-runs,
    one stack, reuse that exact step size, each freezing the advection
    coefficient at the reference solution projected to bandwidth (1+q)N and
    interpolated cubically at stage midpoints.  The sup norm of each w-run
    is monitored and reported alongside the error decay.
    """
    n_values, method, dt_measure, n_measure, u0_ref = _prepare_study(
        params, data_spec, n_values, n_ref, t_star, integrator_policy, max(4, 1 + params.q)
    )
    dt, n_steps = dt_measure / 4.0, 4 * n_measure
    n_keep = (1 + params.q) * max(n_values)
    stored = np.empty((n_steps + 1, n_keep + 1), dtype=np.complex128)
    stored[0] = u0_ref.half[: n_keep + 1]
    filled = 0

    def keep(t, f):
        nonlocal filled
        filled += 1  # a step past the last row raises IndexError
        stored[filled] = f.half[: n_keep + 1]

    ref_config = IntegratorConfig(method, dt, t_star, 1)
    u_ref_final = evolve(u0_ref, params, ref_config, observer=keep).final
    if filled != n_steps:
        raise RuntimeError(f"the reference run took {filled} steps, not {n_steps}")

    n_u = [(1 + params.q) * n for n in n_values]
    term = frozen_nonlinear_term(params, n_values, n_u, lambda t: _interpolate(stored, dt, t))
    w0 = _stack(u0_ref, n_values)
    linf_max = [linf_norm(u0_ref.with_half(row[: n + 1])) for row, n in zip(w0, n_values)]

    def watch(t, rows):
        for i, n in enumerate(n_values):
            linf_max[i] = max(linf_max[i], linf_norm(u0_ref.with_half(rows[i, : n + 1])))

    config = IntegratorConfig(method, dt, t_star, max(1, n_steps // 128))
    result = evolve_rows(w0, params, config, term, watch)
    errors = [_error(u_ref_final, row, n) for row, n in zip(result.final, n_values)]
    return _report(n_values, errors, result.failures, n_ref, t_star, dt, linf_max)


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
    the final state back by the measured displacement.  A horizon t_star
    or a step dt that is not positive is a ValueError, as in the studies.
    """
    period = 2.0 * params.domain_scale * np.pi
    dt_target = dt if dt is not None else min(default_dt(params, n_modes), t_star)
    dt_run, n_steps = _snap_dt(t_star, dt_target)
    stride = max(1, n_steps // 200)
    config = IntegratorConfig(method, dt_run, t_star, stride)
    u0 = profile if profile is not None else kdv_soliton(speed, 0.0, params, n_modes)
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
    mismatch = realigned.with_half(realigned.half - u0.half)
    return SolitonReport(
        speed_target=speed,
        speed_estimate=speed_estimate,
        shape_error_linf=linf_norm(mismatch),
        drifts=record_invariants(snapshots, params),
        times=times,
        peak_positions=unwrapped,
    )
