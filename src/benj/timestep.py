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

The loop carries the state in the folded half layout of ``spectral``
(modes k = 0..N times (-1)^k), so a flux evaluation is one irfft and one
rfft and the state is Hermitian by construction.  The diagonal weights
commute with the sign fold and are computed for k = 0..N only.
``evolve`` takes and returns full-range ``SpectralField``s and converts
only at the start, on the snapshot/observer cadence and at the final
state.  It keeps ``snapshots`` at that cadence only when no observer is
given; an observer sees every such state and owns its retention.  A
``nonlinear=`` callable replaces the flux inside the loop, so it receives
and returns folded half-layout vectors of length N+1:
``nonlinear(c_half, t) -> flux_half``.  Its mode-0 entry must be real
(the projection of a real function's mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, ParameterError
from .model import ModelParams
from .semidiscrete import LinearMultipliers, folded_nonlinear_term, linear_multipliers
from .spectral import SpectralField, fold_half, unfold_half

# Re-exported: perfbench's tracer patches these names on this module.
from .semidiscrete import nonlinear_term  # noqa: F401
from .spectral import hermitian_part  # noqa: F401

_METHODS = ("etdrk4", "ifrk4")
_GROWTH_LIMIT = 1e6
_CONTOUR_POINTS = 64
_SMALL_Z = 0.5

NonlinearTerm = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "etdrk4"
    dt: float = 1e-2
    t_end: float = 1.0
    snapshot_stride: int = 10

    def __post_init__(self):
        object.__setattr__(self, "method", self.method.lower())
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.t_end <= 0:
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        if self.dt > self.t_end * (1 + 1e-12):
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if self.snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be >= 1, got {self.snapshot_stride}")


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


def etd_coefficients(multipliers: LinearMultipliers, dt: float) -> EtdCoefficients:
    """Precompute ETDRK4 weights for every mode of the linear part.

    Modes with |Lambda_k*dt| below a small threshold (including Lambda = 0,
    where the weights reduce to the classical RK4 values dt/2 and dt/6) are
    averaged over a complex contour around z instead of using the closed
    forms, which lose digits to cancellation there.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    z = multipliers.lam * dt
    q = np.empty_like(z)
    f1, f2, f3 = np.empty_like(z), np.empty_like(z), np.empty_like(z)

    small = np.abs(z) < _SMALL_Z
    if np.any(~small):
        q[~small], f1[~small], f2[~small], f3[~small] = _etd_weight_formulas(z[~small])
    if np.any(small):
        angles = 2j * np.pi * (np.arange(_CONTOUR_POINTS) + 0.5) / _CONTOUR_POINTS
        circle = np.exp(angles)
        zc = z[small, None] + circle[None, :]
        qc, f1c, f2c, f3c = _etd_weight_formulas(zc)
        q[small] = qc.mean(axis=1)
        f1[small] = f1c.mean(axis=1)
        f2[small] = f2c.mean(axis=1)
        f3[small] = f3c.mean(axis=1)

    return EtdCoefficients(
        dt=dt,
        e_full=np.exp(z),
        e_half=np.exp(z / 2.0),
        q=dt * q,
        f1=dt * f1,
        f2=dt * f2,
        f3=dt * f3,
    )


def _etdrk4_step(c: np.ndarray, nl: NonlinearTerm, k: EtdCoefficients, t: float):
    na = nl(c, t)
    ec = k.e_half * c
    a = ec + k.q * na
    nb = nl(a, t + 0.5 * k.dt)
    b = ec + k.q * nb
    nc = nl(b, t + 0.5 * k.dt)
    cstage = k.e_half * a + k.q * (2.0 * nc - na)
    nd = nl(cstage, t + k.dt)
    return k.e_full * c + k.f1 * na + 2.0 * k.f2 * (nb + nc) + k.f3 * nd


def _ifrk4_step(c, nl, e_full, e_half, dt: float, t: float):
    k1 = nl(c, t)
    k2 = nl(e_half * (c + 0.5 * dt * k1), t + 0.5 * dt)
    k3 = nl(e_half * c + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = nl(e_full * c + dt * e_half * k3, t + dt)
    return e_full * c + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)


class _Stepper:
    """One-step kernel in the folded half layout, bound to a method, step
    size and nonlinear term (the folded flux of ``params`` by default)."""

    def __init__(self, params: ModelParams, n_modes: int, method: str, dt: float,
                 nonlinear: Optional[NonlinearTerm] = None):
        if nonlinear is None:
            term = folded_nonlinear_term(params, n_modes)
            nonlinear = lambda c, t: term(c)
        lam = linear_multipliers(params, n_modes).lam[n_modes:]
        self.method = method
        self.dt = dt
        self.nl = nonlinear
        if method == "etdrk4":
            self.coeffs = etd_coefficients(LinearMultipliers(n_modes, lam), dt)
        else:
            self.e_full = np.exp(lam * dt)
            self.e_half = np.exp(lam * dt / 2.0)

    def __call__(self, c: np.ndarray, t: float) -> np.ndarray:
        if self.method == "etdrk4":
            return _etdrk4_step(c, self.nl, self.coeffs, t)
        return _ifrk4_step(c, self.nl, self.e_full, self.e_half, self.dt, t)


def _norm(half: np.ndarray) -> float:
    """l2 norm of the full-range vector: |c_0|^2 + 2*sum_{k>=1} |c_k|^2."""
    rest = half[1:]
    return math.sqrt(abs(half[0]) ** 2 + 2.0 * np.vdot(rest, rest).real)


@dataclass
class EvolveResult:
    final: SpectralField
    final_time: float
    snapshots: list  # (t, SpectralField) pairs at the snapshot cadence; empty with an observer
    n_steps: int


def evolve(
    u0: SpectralField,
    params: ModelParams,
    config: IntegratorConfig,
    observer: Optional[Callable[[float, SpectralField], None]] = None,
    nonlinear: Optional[NonlinearTerm] = None,
) -> EvolveResult:
    """Step from 0 to t_end at fixed dt; the last step is shortened to
    land exactly on the horizon.

    The observer (if any) fires every ``snapshot_stride`` steps and after
    the final step; without one, the same cadence populates ``snapshots``
    (with one, ``snapshots`` stays empty).  Evolution is single-threaded and
    bit-deterministic for identical inputs.  ``nonlinear`` (if given)
    replaces the flux inside the loop and so works on folded half-layout
    vectors of length N+1 (see the module docstring).

    Raises DivergenceError, tagged with the failure time, if coefficients
    go nonfinite or the norm grows by more than a factor of 1e6.
    """
    n = u0.n_modes
    n_full = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    if remainder <= 1e-9 * config.dt:
        remainder = 0.0
    total_steps = n_full + (1 if remainder > 0.0 else 0)

    stepper = _Stepper(params, n, config.method, config.dt, nonlinear)
    c = fold_half(u0.coeffs, n)
    norm0 = _norm(c)
    snapshots = []
    t = 0.0

    for s in range(1, total_steps + 1):
        if s == n_full + 1:  # shortened final step
            stepper = _Stepper(params, n, config.method, remainder, nonlinear)
            c = stepper(c, t)
            t = config.t_end
        else:
            c = stepper(c, t)
            t = s * config.dt if s < total_steps else config.t_end
        norm = _norm(c)  # finite unless an entry is nonfinite or the sum overflows
        if not math.isfinite(norm) and not np.all(np.isfinite(c)):
            raise DivergenceError(f"nonfinite coefficients at t={t}", time=t)
        if norm0 > 0 and norm > _GROWTH_LIMIT * norm0:
            raise DivergenceError(f"norm grew beyond 1e6x initial at t={t}", time=t)
        if s % config.snapshot_stride == 0 or s == total_steps:
            field = u0.with_coeffs(unfold_half(c))
            if observer is None:
                snapshots.append((t, field))
            else:
                observer(t, field)

    final = u0.with_coeffs(unfold_half(c)) if total_steps else u0
    return EvolveResult(final=final, final_time=t, snapshots=snapshots, n_steps=total_steps)


def default_dt(params: ModelParams, n_modes: int) -> float:
    """Step size resolving the advective (nonlinear) time scale.

    The exponential integrators treat the linear dispersion exactly, so dt
    only needs to track the nonlinear dynamics; this caps dt at the
    advective CFL of the highest retained wavenumber, and at 5e-3 overall.
    Callers with accuracy targets should override it.
    """
    kappa_max = n_modes / params.domain_scale
    return 0.5 * min(1e-2, 1.0 / kappa_max)
