"""Experiment orchestration: convergence studies, the linearized
intermediate-problem diagnostic, and soliton propagation benchmarks.

All studies measure against a self-computed reference run at a bandwidth
at least ``_REF_FACTOR`` = 4 times the finest of distinct measured ones
(max(4, 1+q) times in the linearized study, which stores it at (1+q)N).
``self_convergence`` steps its reference on the members' grid, so the
time error both share cancels and what it measures, P_N u_ref - u^N plus
the reference's tail above N, is the scheme's spatial (semidiscrete)
error at that step.  The linearized study steps its reference and w-runs
at a quarter of the members' step.  A study's one planner,
``_prepare_study``, checks the bandwidth rule and plans the members'
grid; the CLI plans ``converge`` with it too.
The member runs follow the reference as one stack
(``timestep.evolve_rows``): row i is the bandwidth-n_i member posed at
the finest member's bandwidth with its flux masked to |k| <= n_i, the
same Galerkin system up to rounding.  A row that diverges becomes its
member's ``failures`` entry; the other rows go on.  Both studies and the
soliton test take their time grid to t_star from
``timestep.IntegratorPolicy.grid``, at the run's bandwidth (a study's
finest measured one; the soliton's wave's own, which its caller builds).
A broken bandwidth rule (a BandwidthError), a horizon or step that is
not positive, or more than ``timestep.MAX_STEPS`` steps on any grid a
study steps is a ValueError raised before anything is built or run.

Fields, member rows and stored reference states share the one layout a
``SpectralField`` stores (the folded half of ``spectral``), so nothing
converts: a member is the field ``with_half`` of its row's first n+1
entries.  The linearized study runs its reference and its w-run in
lockstep: the reference's observer keeps the last 4 reference states in
a fixed window and advances the w-run (``timestep.evolve_steps``) as far
as they reach, so the study's memory is O(N) whatever t_star/dt is.  The
frozen term keeps every row's u^q for the last stage time it saw, the
study's one cache.  Every trajectory starts at t = 0 from the stepping
loop's observer.  A study's rate and the soliton's speed are slopes of
one closed-form least-squares line (``_line_fit``), elementwise sums that
call no linear-algebra library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import BandwidthError
from .initdata import InitialDataSpec, build_field
from .invariants import InvariantRecord, record_invariants
from .model import ModelParams, check_domain_scale
from .semidiscrete import _row_mask, folded_nonlinear_term, frozen_nonlinear_term
from .spectral import SpectralField, l2_norm, linf_norm, peak_position, translate
from .timestep import IntegratorConfig, IntegratorPolicy, evolve, evolve_rows, evolve_steps

_ROUNDING = 1e-13  # an error below this times ||u_ref(t*)|| is rounding (see _fit_tail)
_FIT_WINDOW = 4  # the rate is fitted over the finest bandwidths with usable errors
_REF_FACTOR = 4  # a reference bandwidth is at least this many times the finest measured one


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


def _line_fit(x, y) -> tuple[float, float]:
    """Slope and r2 of the least-squares line through the points (x, y),
    in closed form: with dx and dy the deviations from the means, the slope
    is sum(dx*dy) / sum(dx^2) and r2 = 1 - sum((dy - slope*dx)^2) / sum(dy^2),
    exactly +0.0 and 1 when y is constant.  Only elementwise sums, so no
    linear-algebra library is called.  An x with no spread is a ValueError."""
    dx = np.asarray(x, dtype=float)
    dy = np.asarray(y, dtype=float)
    dx = dx - np.mean(dx)
    sxx = float(np.sum(dx * dx))
    if not sxx > 0.0:
        raise ValueError("x must have spread to fit a line")
    if np.all(dy == dy[0]):  # before centring, whose mean need not be exact
        return 0.0, 1.0
    dy = dy - np.mean(dy)
    slope = float(np.sum(dx * dy)) / sxx
    syy = float(np.sum(dy * dy))
    r2 = 1.0 if syy == 0.0 else 1.0 - float(np.sum((dy - slope * dx) ** 2)) / syy
    return slope, r2


def estimate_rate(n_values, errors) -> tuple[float, float]:
    """Least-squares slope of log(error) against log(N), negated
    (``_line_fit``).

    Returns (rate, r2).  A perfect algebraic decay error = C*N^(-p) gives
    rate p with r2 = 1 up to rounding; constant errors give rate +0.0 and
    r2 = 1, the fit being exact.  Requires at least two pairs, distinct
    positive finite N and positive finite errors; anything else is a
    ValueError.
    """
    n_values = np.asarray(n_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(n_values) < 2 or len(n_values) != len(errors):
        raise ValueError("need at least two (N, error) pairs of equal length")
    if np.any(errors <= 0.0) or not np.all(np.isfinite(errors)):
        raise ValueError("errors must be positive and finite to fit a rate")
    if not np.all((n_values > 0.0) & np.isfinite(n_values)):
        raise ValueError("bandwidths N must be positive and finite to fit a rate")
    if len(set(n_values.tolist())) != len(n_values):  # np.unique: ~1 MiB more peak RSS
        raise ValueError("bandwidths N must be distinct to fit a rate")
    slope, r2 = _line_fit(np.log(n_values), np.log(errors))
    return 0.0 - slope, r2


def _fit_tail(n_values, errors, ref_norm):
    """Fit the rate over the largest ``_FIT_WINDOW`` bandwidths with usable
    errors: finite and above ``_ROUNDING`` x ref_norm, ||u_ref(t*)||.  On one
    grid, a member whose spatial error has reached rounding reads at most
    1.1e-15 x ref_norm (Gaussian data, 10,000 IFRK4 steps); the smallest
    error the rough-data studies fit reads 2.7e-11 x ref_norm.  Fewer than
    two usable errors fit no rate: (None, None)."""
    floor = _ROUNDING * ref_norm
    pairs = [(n, e) for n, e in zip(n_values, errors) if np.isfinite(e) and e > floor]
    if len(pairs) < 2:
        return None, None
    tail = pairs[-_FIT_WINDOW:]
    return estimate_rate([n for n, _ in tail], [e for _, e in tail])


def _prepare_study(params, n_values, n_ref, t_star, integrator_policy, ref_factor=_REF_FACTOR):
    """A study's plan: its bandwidths, sorted, and the members' grid, the
    policy's at the finest.  A BandwidthError unless the bandwidths are
    distinct and >= 1 and n_ref is at least ref_factor x the finest."""
    n_values = sorted(int(n) for n in n_values)
    if not n_values or n_values[0] < 1 or len(set(n_values)) != len(n_values):
        raise BandwidthError(f"n_values must be distinct bandwidths >= 1, got {n_values}")
    if n_ref < ref_factor * n_values[-1]:
        raise BandwidthError(f"reference bandwidth {n_ref} must be at least {ref_factor}x the "
                             f"finest measured bandwidth {n_values[-1]}, i.e. >= "
                             f"{ref_factor * n_values[-1]}")
    return n_values, integrator_policy.grid(params, n_values[-1], t_star)


def _stack(u0_ref: SpectralField, n_values) -> np.ndarray:
    """The members' initial rows: the datum projected to each bandwidth, in
    the folded half layout of the finest one (zero above a row's own)."""
    top = u0_ref.half[: n_values[-1] + 1]
    return np.where(_row_mask(n_values, n_values[-1]), top, 0)


def _error(ref: SpectralField, row: np.ndarray, n: int) -> float:
    """L2 distance from ``ref`` to the bandwidth-n member of a stack row,
    zero-extended to the reference bandwidth."""
    return l2_norm(ref.with_half(ref.half - np.pad(row[: n + 1], (0, ref.n_modes - n))))


def _report(n_values, errors, failures, ref, t_star, dt, linf_max=None):
    """Assemble the report from the members' per-row results against the
    reference's final field ``ref``.

    A row in ``failures`` (row index -> DivergenceError) reads NaN for its
    error and sup norm and gets a ``failures`` entry under its bandwidth;
    the rate is fitted on the rest (``_fit_tail``).
    """
    errors = [np.nan if i in failures else e for i, e in enumerate(errors)]
    if linf_max is not None:
        linf_max = [np.nan if i in failures else w for i, w in enumerate(linf_max)]
    rate, r2 = _fit_tail(n_values, errors, l2_norm(ref))
    return ConvergenceReport(
        n_values=n_values,
        errors=errors,
        fitted_rate=rate,
        fit_r2=r2,
        reference_n=ref.n_modes,
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
    integrator_policy: IntegratorPolicy = IntegratorPolicy(),
) -> ConvergenceReport:
    """L2 errors at t_star of bandwidth-N runs against a fine reference.

    The initial datum is built once at the reference bandwidth and
    projected down for each member run, and fields are compared at the
    reference bandwidth (the coarser one zero-extended), so the reported
    error includes the projection tail.  The error is the final-time
    value, a lower bound for the max over [0, t_star].  The members and
    the reference step one grid, the members' that ``_prepare_study``
    plans (the reference observed at 0 and t_star only), so the error is
    the scheme's spatial error at that step: their common time error
    cancels.
    """
    n_values, grid = _prepare_study(params, n_values, n_ref, t_star, integrator_policy)
    u0_ref = build_field(data_spec, params, n_ref)
    ref_final = evolve(u0_ref, params, replace(grid, snapshot_stride=grid.n_steps)).final
    flux = folded_nonlinear_term(params, n_values)
    result = evolve_rows(_stack(u0_ref, n_values), params, grid, lambda c, t: flux(c))
    errors = [_error(ref_final, row, n) for row, n in zip(result.final, n_values)]
    return _report(n_values, errors, result.failures, ref_final, t_star, grid.dt)


def _interpolate(window: np.ndarray, dt: float, t: float, last: int) -> np.ndarray:
    """Cubic-in-time interpolant at t of a trajectory of states 0..last at
    every step of size dt (last >= 3), read from its ``window``: 8 rows
    that hold state j at rows j % 4 and j % 4 + 4, so that the 4 latest
    states are one contiguous slice, oldest first.  Returns the state
    within 1e-8 steps of a step time, else the Lagrange polynomial through
    the 4 states around t; the window must hold them (see
    ``intermediate_problem_study``).  Nothing is copied."""
    pos = t / dt
    nearest = round(pos)
    if abs(pos - nearest) < 1e-8:
        return window[min(max(nearest, 0), last) % 4]
    start = min(max(math.floor(pos) - 1, 0), last - 3)
    xi = pos - start
    weights = []
    for a in range(4):
        w = 1.0
        for b in range(4):
            if a != b:
                w *= (xi - b) / (a - b)
        weights.append(w)
    # the (1, 4) @ (4, modes) product np.tensordot forms, without its overhead
    row = start % 4
    return np.dot(np.array([weights]), window[row : row + 4])[0]


def intermediate_problem_study(
    params: ModelParams,
    data_spec: InitialDataSpec,
    n_values,
    n_ref: int,
    t_star: float,
    integrator_policy: IntegratorPolicy = IntegratorPolicy(),
) -> ConvergenceReport:
    """Decay of ||u - w^N|| for the advection-frozen linearized systems.

    The w-runs, one stack, step the reference's exact step size, each
    freezing the advection coefficient at the reference solution projected
    to bandwidth (1+q)N and interpolated cubically at stage midpoints.
    The sup norm of each w-run is monitored and reported alongside the
    error decay.  The reference and the w-runs step a quarter of the step
    of the members' grid that ``_prepare_study`` plans, four times as often.

    The two runs go in lockstep, so memory does not grow with t_star/dt:
    the reference's observer writes its state j into a window of the last
    4 states (``_interpolate``) and then advances the w-run
    (``timestep.evolve_steps``) through every step whose stencil is
    complete.  W-step s reads states up to min(max(s+2, 3), n): steps 0
    and 1 run at j = 3, step j-2 at each later j, and steps n-2 and n-1 at
    j = n.  A reference run that takes fewer steps than the n it planned
    is a RuntimeError, and one that takes more an IndexError when the
    extra state arrives.
    """
    n_values, grid = _prepare_study(params, n_values, n_ref, t_star, integrator_policy,
                                    max(_REF_FACTOR, 1 + params.q))
    ref_config = IntegratorConfig(grid.method, grid.dt / 4, t_star, 4 * grid.n_steps)
    u0_ref = build_field(data_spec, params, n_ref)
    dt, n_steps = ref_config.dt, ref_config.n_steps
    n_keep = (1 + params.q) * max(n_values)
    window = np.empty((8, n_keep + 1), dtype=np.complex128)

    n_u = [(1 + params.q) * n for n in n_values]
    term = frozen_nonlinear_term(
        params, n_values, n_u, lambda t: _interpolate(window, dt, t, n_steps)
    )
    w0 = _stack(u0_ref, n_values)
    linf_max = [0.0] * len(n_values)  # a sup norm is >= 0; watch sees t = 0 first

    def watch(t, rows):
        for i, n in enumerate(n_values):
            linf_max[i] = max(linf_max[i], linf_norm(u0_ref.with_half(rows[i, : n + 1])))

    config = replace(ref_config, snapshot_stride=max(1, n_steps // 128))
    w_run = evolve_steps(w0, params, config, term, watch)
    state, w_steps, result = -1, 0, None  # the observer sees state 0 first

    def advance(t, f):
        nonlocal state, w_steps, result
        state += 1
        if state > n_steps:
            raise IndexError(f"the reference run passed its {n_steps} planned steps")
        window[state % 4] = window[state % 4 + 4] = f.half[: n_keep + 1]
        while w_steps < n_steps and min(max(w_steps + 2, 3), n_steps) <= state:
            result = next(w_run, result)  # a w-run that stopped early keeps its result
            w_steps += 1

    u_ref_final = evolve(u0_ref, params, replace(ref_config, snapshot_stride=1),
                         observer=advance).final
    if state != n_steps:
        raise RuntimeError(f"the reference run took {state} steps, not {n_steps}")
    errors = [_error(u_ref_final, row, n) for row, n in zip(result.final, n_values)]
    return _report(n_values, errors, result.failures, u_ref_final, t_star, dt, linf_max)


def soliton_propagation_test(
    speed: float,
    params: ModelParams,
    profile: SpectralField,
    t_star: float,
    integrator_policy: IntegratorPolicy = IntegratorPolicy(),
) -> SolitonReport:
    """Propagate the traveling wave ``profile`` and measure its speed and
    shape fidelity against the target ``speed``.

    The caller builds the wave (``initdata.kdv_soliton``, a converged
    fixed-point profile, or a perturbed one).  Speed is the slope of a
    linear fit through the unwrapped peak trajectory; the shape error is
    the sup-norm mismatch after translating the final state back by the
    measured displacement.  The run steps the grid of ``integrator_policy``
    at the profile's bandwidth.  A profile off the model's L is a
    ShapeError, and a horizon t_star that is not positive a ValueError,
    raised before anything is stepped.
    """
    check_domain_scale(params, profile.domain_scale, "profile")
    period = 2.0 * params.domain_scale * np.pi
    grid = integrator_policy.grid(params, profile.n_modes, t_star)
    config = replace(grid, snapshot_stride=max(1, grid.n_steps // 200))
    result = evolve(profile, params, config)

    snapshots = result.snapshots  # from t = 0
    times = np.array([t for t, _ in snapshots])
    raw = np.array([peak_position(f) for _, f in snapshots])
    unwrapped = raw.copy()
    for i in range(1, len(unwrapped)):
        jump = unwrapped[i] - unwrapped[i - 1]
        unwrapped[i] -= period * np.round(jump / period)
    speed_estimate = _line_fit(times, unwrapped)[0]

    shift = float(unwrapped[-1] - unwrapped[0])
    realigned = translate(result.final, -shift)
    mismatch = realigned.with_half(realigned.half - profile.half)
    return SolitonReport(
        speed_target=speed,
        speed_estimate=speed_estimate,
        shape_error_linf=linf_norm(mismatch),
        drifts=record_invariants(snapshots, params),
        times=times,
        peak_positions=unwrapped,
    )
