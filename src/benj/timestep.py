"""Exponential integrators for the stiff coefficient ODE systems.

The dispersive multiplier grows like kappa^(2m+1), so explicit stepping is
hopeless; both schemes here integrate the diagonal linear part exactly and
are fourth order in the nonlinear dynamics:

* ``etdrk4``: exponential time differencing with the classical four-stage
  tableau.  Stage and update weights are combinations of the phi-functions
  of z = Lambda_k*dt; near z = 0 the closed forms cancel catastrophically,
  so small-|z| modes are evaluated as the mean of the closed form over a
  unit circle centered at z (the weights are entire, so the 64-point
  trapezoid mean reproduces them to rounding).
* ``ifrk4``: integrating-factor RK4, kept as an independent cross-check.

Both multiply mode 0 by exp(0) = 1 and receive an identically zero
nonlinear increment there, so the mean is conserved bit-exactly.

Every run steps one time grid, fixed by ``IntegratorConfig``: n =
max(1, ceil(t_end/dt - 1e-9)) equal steps of t_end/n, with n <=
``MAX_STEPS``.  The config stores that step in ``dt`` and reads the count
back as ``n_steps``; the loop's last step ends exactly on t_end, and a
step past the horizon is one step of t_end.  The config is also the one
check of a method, a horizon and a step.  A run's target step comes from
``IntegratorPolicy.grid``, the one rule for it: the policy's dt, or
``default_dt`` at the run's bandwidth when it has none.

The one stepping loop, ``evolve_steps``, is a generator over steps: it
yields the run so far after each step, so a caller can advance a run
step by step in between the steps of another (the linearized study
advances its w-run from inside its reference's observer, and so keeps
only a window of the reference).  It owns the divergence checks, the
early stop and the observer cadence, every ``snapshot_stride``-th state
from state 0 plus the last; ``evolve_rows`` runs it to its end.
The loop carries a (B, N+1) stack of rows in the folded half layout of
``spectral`` (modes k = 0..N times (-1)^k), so a flux evaluation is one
irfft and one rfft along the last axis for the whole stack, and every row
is Hermitian by construction.  The rows share N, dt and the multipliers,
and so the diagonal weights, k = 0..N; a convergence study steps its
members as one stack, each posed at the largest member's bandwidth.  The
loop builds the weights once per run, with ``etd_coefficients`` under
either method (IFRK4 takes its exponentials), before the initial state
is observed; that refuses a weight outside the floating-point range.
``evolve`` is the stack of one row: it steps ``u0.half`` with the flux of
``folded_nonlinear_term`` and builds the observed and final fields
``with_half``.  It keeps ``snapshots`` on the observer cadence only when
no observer is given; an observer owns its retention.
The loop takes the flux as a callable on (B, N+1) stacks of folded
half-layout rows, ``nonlinear(c_rows, t) -> flux_rows``, whose mode-0
entries must be real (the projection of a real function's mean); a custom
flux is stepped there.  A step calls it at its t, twice at t + dt/2, and
last at the next step's exact t (``s*dt``, or ``t_end``), so a callable
may cache what it derives from t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .model import ModelParams, check_domain_scale
from .semidiscrete import folded_nonlinear_term, linear_multipliers
from .spectral import SpectralField, _check_sizes, mode_sum

# Re-exported: perfbench's tracer patches these names on this module.
from .semidiscrete import nonlinear_term  # noqa: F401
from .spectral import hermitian_part  # noqa: F401

_METHODS = ("etdrk4", "ifrk4")
_GROWTH_LIMIT = 1e6
_CONTOUR_POINTS = 64
_SMALL_Z = 0.5
MAX_STEPS = 1_000_000  # bound on a run's step count, 25x the largest in the acceptance suite

NonlinearTerm = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class IntegratorConfig:
    """A run's method, time grid and observer cadence.  ``dt`` is snapped
    to t_end/n_steps, the run's one step (see the module docstring)."""

    method: str = "etdrk4"
    dt: float = 1e-2
    t_end: float = 1.0
    snapshot_stride: int = 10

    def __post_init__(self):
        method = self.method.lower()
        if method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
        object.__setattr__(self, "method", method)
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        steps = self.t_end / self.dt - 1e-9
        if not steps <= MAX_STEPS:  # before math.ceil, which refuses inf
            raise ValueError(f"{steps:.3g} time steps exceed the bound of {MAX_STEPS}")
        n_steps = max(1, math.ceil(steps))
        object.__setattr__(self, "dt", self.t_end / n_steps)
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")

    @property
    def n_steps(self) -> int:
        """The step count: t_end/dt is within 1e-9 of it, as dt = t_end/n_steps."""
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class IntegratorPolicy:
    """A method and a target step, the time-stepping choices a caller makes
    before it knows a run's bandwidth and horizon.

    ``grid`` turns them into a run's ``IntegratorConfig``; a dt of None is
    derived there from the run's bandwidth (``default_dt``).  The policy
    checks nothing itself: the config refuses an unknown method and a dt
    that is not > 0 (NaN included) when ``grid`` builds it.
    """

    method: str = "etdrk4"
    dt: Optional[float] = None

    def grid(self, params: ModelParams, n_modes: int, t_end: float) -> IntegratorConfig:
        """The equal-step grid to t_end of a bandwidth-``n_modes`` run: the
        target dt, or ``default_dt(params, n_modes)`` when it is None; the
        config snaps it."""
        dt = default_dt(params, n_modes) if self.dt is None else self.dt
        return IntegratorConfig(self.method, dt, t_end)


@dataclass(frozen=True)
class EtdCoefficients:
    """Per-mode ETDRK4 weights for one step size, exponentials included."""

    dt: float
    e_full: np.ndarray  # exp(z)
    e_half: np.ndarray  # exp(z/2)
    q: np.ndarray       # dt*(exp(z/2)-1)/z, the stage weight
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    def __post_init__(self):
        for name in ("e_full", "e_half", "q", "f1", "f2", "f3"):
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ParameterError(
                    f"nonfinite step weight in {name}: the linear symbol times dt "
                    "leaves the floating-point range"
                )
            arr.setflags(write=False)


def _etd_weight_formulas(z: np.ndarray):
    ez = np.exp(z)
    z2, z3 = z**2, z**3
    q = (np.exp(z / 2.0) - 1.0) / z
    f1 = (-4.0 - z + ez * (4.0 - 3.0 * z + z2)) / z3
    f2 = (2.0 + z + ez * (z - 2.0)) / z3
    f3 = (-4.0 - 3.0 * z - z2 + ez * (4.0 - z)) / z3
    return q, f1, f2, f3


def etd_coefficients(lam: np.ndarray, dt: float) -> EtdCoefficients:
    """Precompute ETDRK4 weights for every multiplier in ``lam``.

    Modes with |Lambda_k*dt| below a small threshold (including Lambda = 0,
    where the weights reduce to the classical RK4 values dt/2 and dt/6) are
    averaged over a complex contour around z instead of using the closed
    forms, which lose digits to cancellation there.  A weight outside the
    floating-point range (|Lambda_k*dt| above about 1e154) is a
    ParameterError, raised without a numpy warning.
    """
    if not dt > 0:  # NaN included
        raise ValueError(f"dt must be > 0, got {dt}")
    with np.errstate(over="ignore", invalid="ignore"):
        z = lam * dt
        small = np.abs(z) < _SMALL_Z
        weights = np.empty((4,) + z.shape, dtype=np.complex128)  # q, f1, f2, f3 at dt = 1
        weights[:, ~small] = _etd_weight_formulas(z[~small])
        angles = 2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS
        contour = z[small, None] + np.exp(angles)[None, :]
        weights[:, small] = np.mean(_etd_weight_formulas(contour), axis=-1)
        q, f1, f2, f3 = dt * weights
        return EtdCoefficients(dt, np.exp(z), np.exp(z / 2.0), q, f1, f2, f3)


def _etdrk4_step(c, nl: NonlinearTerm, k: EtdCoefficients, two_f2, t: float, t_next: float):
    na = nl(c, t)
    ec = k.e_half * c
    a = ec + k.q * na
    nb = nl(a, t + 0.5 * k.dt)
    b = ec + k.q * nb
    nc = nl(b, t + 0.5 * k.dt)
    cstage = k.e_half * a + k.q * (2.0 * nc - na)
    nd = nl(cstage, t_next)
    return k.e_full * c + k.f1 * na + two_f2 * (nb + nc) + k.f3 * nd


def _ifrk4_step(c, nl, e_full, e_half, dt_e_half, two_e_half, dt: float, t: float,
                t_next: float):
    k1 = nl(c, t)
    k2 = nl(e_half * (c + 0.5 * dt * k1), t + 0.5 * dt)
    k3 = nl(e_half * c + 0.5 * dt * k2, t + 0.5 * dt)
    ec = e_full * c
    k4 = nl(ec + dt_e_half * k3, t_next)
    return ec + (dt / 6.0) * (e_full * k1 + two_e_half * (k2 + k3) + k4)


def _step_function(lam: np.ndarray, method: str, nl: NonlinearTerm, dt: float):
    """One step of size dt, ``step(c, t, t_next) -> c``, in the folded half layout,
    with the weights of ``etd_coefficients`` (IFRK4 its ``e_full`` and ``e_half``)."""
    weights = etd_coefficients(lam, dt)
    # products of weights (2*f2; dt*e_half, 2*e_half) are formed once: the
    # same bits as forming them inside every step
    if method == "etdrk4":
        two_f2 = 2.0 * weights.f2
        return lambda c, t, t_next: _etdrk4_step(c, nl, weights, two_f2, t, t_next)
    w = (weights.e_full, weights.e_half, dt * weights.e_half, 2.0 * weights.e_half)
    return lambda c, t, t_next: _ifrk4_step(c, nl, *w, dt, t, t_next)


@dataclass
class EvolveResult:
    final: SpectralField
    snapshots: list  # (t, SpectralField) on the observer cadence, from t = 0; empty with one
    n_steps: int


@dataclass
class RowsResult:
    final: np.ndarray  # (B, N+1) folded rows at t_end; a failed row is zero
    n_steps: int
    failures: dict  # row index -> DivergenceError, in the order the rows failed


def evolve_steps(
    rows: np.ndarray,
    params: ModelParams,
    config: IntegratorConfig,
    nonlinear: NonlinearTerm,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
) -> Iterator[RowsResult]:
    """The stepping loop as a generator: step a (B, N+1) stack of folded
    half-layout rows from 0 to t_end in ``config.n_steps`` steps of
    ``config.dt``, and yield the run so far as a ``RowsResult`` after each
    step.  The last one it yields is the run's result.

    Every row shares the multipliers of bandwidth N and the flux
    ``nonlinear(rows, t)`` (see the module docstring).  The observer (if
    any) sees the stack on the cadence of the module docstring, a step's
    state before that step is yielded; it must copy what it keeps.
    Divergence is checked per row: a row whose coefficients go nonfinite or
    whose norm grows by more than a factor of 1e6 over its own initial norm
    becomes a ``failures`` entry, tagged with the failure time, and is
    zeroed, which both flux terms keep at zero; the other rows go on.  The
    run stops early, after yielding that step, once every row has failed.
    Nothing runs before the first step is asked for: the weights are built,
    and a bad operator refused, then, before the initial stack is observed.
    """
    n_steps = config.n_steps
    # a (1, N+1) row: a one-row stack then multiplies same-shape arrays,
    # which numpy does faster than broadcasting
    lam = linear_multipliers(params, rows.shape[-1] - 1)[None]
    step = _step_function(lam, config.method, nonlinear, config.dt)
    c = rows
    squares = mode_sum(c)
    # a row that starts at zero has no growth bound, only the finiteness check
    limit = np.where(squares > 0.0, _GROWTH_LIMIT**2 * squares, math.inf)
    tightest = limit.min()
    failures = {}
    t = 0.0
    if observer is not None:
        observer(t, c)

    for s in range(1, n_steps + 1):
        t_next = s * config.dt if s < n_steps else config.t_end
        c = step(c, t, t_next)
        t = t_next
        # twice the stack's squared sum bounds every row's squared norm, and
        # is nonfinite when an entry is; only past the tightest limit are
        # the rows checked one by one.  An elementwise sum: no BLAS call
        parts = c.view(np.float64)
        if not 2.0 * (parts * parts).sum() <= tightest:
            for i, square in enumerate(mode_sum(c)):
                if square <= limit[i]:  # false for a nonfinite norm
                    continue
                if not np.all(np.isfinite(c[i])):
                    failures[i] = DivergenceError(f"nonfinite coefficients at t={t}", time=t)
                else:
                    failures[i] = DivergenceError(f"norm grew beyond 1e6x initial at t={t}", time=t)
                c[i] = 0.0
                limit[i] = math.inf
            tightest = limit.min()
            if len(failures) == len(c):
                yield RowsResult(c, s, failures)
                return
        if observer is not None and (s % config.snapshot_stride == 0 or s == n_steps):
            observer(t, c)
        yield RowsResult(c, s, failures)


def evolve_rows(
    rows: np.ndarray,
    params: ModelParams,
    config: IntegratorConfig,
    nonlinear: NonlinearTerm,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
) -> RowsResult:
    """Run ``evolve_steps`` to its end and return its last result: the
    stack at t_end (or at the step where every row had failed), the step
    count and the failures."""
    for result in evolve_steps(rows, params, config, nonlinear, observer):
        pass
    return result


def evolve(
    u0: SpectralField,
    params: ModelParams,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, SpectralField], None]] = None,
) -> EvolveResult:
    """Step one field from 0 to t_end: ``evolve_rows`` on a stack of one row.

    The observer (if any) fires on the cadence of ``evolve_steps``, from
    t = 0; without one, the same cadence populates ``snapshots`` (with one,
    ``snapshots`` stays empty).  Evolution is single-threaded and
    bit-deterministic for identical inputs.

    Raises DivergenceError, tagged with the failure time, if coefficients
    go nonfinite or the norm grows by more than a factor of 1e6, and first
    a ShapeError if u0's domain scale is not the model's.
    """
    check_domain_scale(params, u0.domain_scale, "field")
    term = folded_nonlinear_term(params, [u0.n_modes])
    snapshots = []

    def seen(t, rows):
        field = u0.with_half(rows[0])
        if observer is None:
            snapshots.append((t, field))
        else:
            observer(t, field)

    result = evolve_rows(u0.half[None], params, config, lambda c, t: term(c), seen)
    if result.failures:
        raise result.failures[0]
    return EvolveResult(u0.with_half(result.final[0]), snapshots, result.n_steps)


def default_dt(params: ModelParams, n_modes: int) -> float:
    """Step size resolving the advective (nonlinear) time scale.

    The exponential integrators treat the linear dispersion exactly, so dt
    only needs to track the nonlinear dynamics; this caps dt at the
    advective CFL of the highest retained wavenumber, and at 5e-3 overall.
    Callers with accuracy targets should override it.  N < 1 is a BandwidthError.
    """
    _check_sizes(n_modes, params.domain_scale)
    kappa_max = n_modes / params.domain_scale
    return 0.5 * min(1e-2, 1.0 / kappa_max)
