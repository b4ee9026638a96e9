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

The loop, ``evolve_rows``, carries a (B, N+1) stack of rows in the folded
half layout of ``spectral`` (modes k = 0..N times (-1)^k), so a flux
evaluation is one irfft and one rfft along the last axis for the whole
stack, and every row is Hermitian by construction.  The rows share N, dt
and the multipliers, and so the diagonal weights, k = 0..N; a convergence
study steps its members as one stack, each posed at the largest member's
bandwidth.  The loop builds the weights once per run; a shortened final
step rebuilds only its weights.  A run plans at most ``MAX_STEPS`` steps.
A Lambda_k*dt outside the floating-point range is a ParameterError under
either method, raised where the weights are built; ``check_operator``
runs the loop's operator checks without stepping.
``evolve`` is the stack of one row: it steps ``u0.half`` with the flux of
``folded_nonlinear_term`` and builds the observed and final fields
``with_half``.  It keeps ``snapshots`` on the observer cadence only when
no observer is given; an observer owns its retention.
``evolve_rows`` takes the flux as a callable on (B, N+1) stacks of folded
half-layout rows, ``nonlinear(c_rows, t) -> flux_rows``, whose mode-0
entries must be real (the projection of a real function's mean); a custom
flux is stepped there.  A step calls it at its t, twice at t + dt/2, and
last at the next step's exact t (``s*dt``, or ``t_end``), so a callable
may cache what it derives from t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .model import ModelParams
from .semidiscrete import folded_nonlinear_term, linear_multipliers
from .spectral import SpectralField, mode_sum

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
    method: str = "etdrk4"
    dt: float = 1e-2
    t_end: float = 1.0
    snapshot_stride: int = 10

    def __post_init__(self):
        object.__setattr__(self, "method", check_method(self.method))
        if not self.t_end > 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if not self.dt > 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.dt > self.t_end * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        check_step_count(self.t_end / self.dt)
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


def check_method(method: str) -> str:
    """The lowercased ``method``, if it names one of ``_METHODS``."""
    method = method.lower()
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    return method


def check_step_count(steps: float) -> float:
    """A planned step count (a float, possibly inf), if it is <= MAX_STEPS."""
    if not steps <= MAX_STEPS:
        raise ValueError(f"{steps:.3g} time steps exceed the bound of {MAX_STEPS}")
    return steps


@dataclass(frozen=True)
class EtdCoefficients:
    """Per-mode ETDRK4 weights for one step size."""

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
                    f"nonfinite ETDRK4 weight in {name}: the linear symbol times dt "
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
    forms, which lose digits to cancellation there.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
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
    """One step of size dt, ``step(c, t, t_next) -> c``, in the folded half layout.

    A Lambda*dt outside the floating-point range is a ParameterError under
    either method, raised here, where the weights are built.
    """
    z = lam * dt
    if not np.all(np.isfinite(z)):
        raise ParameterError(
            f"nonfinite linear symbol times dt={dt}: the dispersion over one "
            "step leaves the floating-point range"
        )
    # products of weights (2*f2; dt*e_half, 2*e_half) are formed once: the
    # same bits as forming them inside every step
    if method == "etdrk4":
        weights = etd_coefficients(lam, dt)
        two_f2 = 2.0 * weights.f2
        return lambda c, t, t_next: _etdrk4_step(c, nl, weights, two_f2, t, t_next)
    e_full, e_half = np.exp(z), np.exp(z / 2.0)
    w = (e_full, e_half, dt * e_half, 2.0 * e_half)
    return lambda c, t, t_next: _ifrk4_step(c, nl, *w, dt, t, t_next)


def check_operator(params: ModelParams, n_modes: int, config: IntegratorConfig) -> None:
    """Raise the ParameterError that ``evolve_rows`` raises at its start for
    this operator, without stepping: it builds the bandwidth-N multipliers
    and the weights of a full step with the functions the loop uses.  (A
    shortened final step has a smaller dt, so its weights stay in range.)"""
    _step_function(linear_multipliers(params, n_modes)[None], config.method, None, config.dt)


@dataclass
class EvolveResult:
    final: SpectralField
    snapshots: list  # (t, SpectralField) pairs at the snapshot cadence; empty with an observer
    n_steps: int


@dataclass
class RowsResult:
    final: np.ndarray  # (B, N+1) folded rows at t_end; a failed row is zero
    n_steps: int
    failures: dict  # row index -> DivergenceError, in the order the rows failed


def evolve_rows(
    rows: np.ndarray,
    params: ModelParams,
    config: IntegratorConfig,
    nonlinear: NonlinearTerm,
    observer: Optional[Callable[[float, np.ndarray], None]] = None,
) -> RowsResult:
    """Step a (B, N+1) stack of folded half-layout rows from 0 to t_end at
    fixed dt; the last step is shortened to land exactly on the horizon.

    Every row shares the multipliers of bandwidth N and the flux
    ``nonlinear(rows, t)`` (see the module docstring).  The observer (if
    any) sees the stack every ``snapshot_stride`` steps and after the final
    step; it must copy what it keeps.  Divergence is checked per row: a row
    whose coefficients go nonfinite or whose norm grows by more than a
    factor of 1e6 over its own initial norm becomes a ``failures`` entry,
    tagged with the failure time, and is zeroed, which both flux terms keep
    at zero; the other rows go on.  The run stops early once every row has
    failed.
    """
    n_full = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    if remainder <= 1e-9 * config.dt:
        remainder = 0.0
    total_steps = n_full + (1 if remainder > 0.0 else 0)

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

    for s in range(1, total_steps + 1):
        if s == n_full + 1:  # shortened final step: only its weights change
            step = _step_function(lam, config.method, nonlinear, remainder)
        t_next = s * config.dt if s < total_steps else config.t_end
        c = step(c, t, t_next)
        t = t_next
        # twice the stack's squared sum bounds every row's squared norm, and
        # is nonfinite when an entry is; only past the tightest limit are
        # the rows checked one by one
        if not 2.0 * np.vdot(c, c).real <= tightest:
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
                return RowsResult(c, s, failures)
        if observer is not None and (s % config.snapshot_stride == 0 or s == total_steps):
            observer(t, c)

    return RowsResult(c, total_steps, failures)


def evolve(
    u0: SpectralField,
    params: ModelParams,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, SpectralField], None]] = None,
) -> EvolveResult:
    """Step one field from 0 to t_end: ``evolve_rows`` on a stack of one row.

    The observer (if any) fires every ``snapshot_stride`` steps and after
    the final step; without one, the same cadence populates ``snapshots``
    (with one, ``snapshots`` stays empty).  Evolution is single-threaded and
    bit-deterministic for identical inputs.

    Raises DivergenceError, tagged with the failure time, if coefficients
    go nonfinite or the norm grows by more than a factor of 1e6.
    """
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
    Callers with accuracy targets should override it.
    """
    kappa_max = n_modes / params.domain_scale
    return 0.5 * min(1e-2, 1.0 / kappa_max)
