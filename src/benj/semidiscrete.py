"""Right-hand sides of the truncated coefficient ODE systems.

Projecting the equation onto the bandwidth-N space turns it into the ODE
system for the coefficients

    d/dt u_hat_k = Lambda_k u_hat_k - i*kappa_k * fhat_k(u),

where Lambda_k = i*kappa_k*symbol(kappa_k) collects the dispersive part and
fhat(u) holds the exact truncated coefficients of f(u), computed with a
dealiased product so the semidiscrete system is the Galerkin one and its
invariants are conserved exactly in time.

The linearized companion system freezes the advection coefficient at a
reference solution u:

    d/dt w_hat_k = Lambda_k w_hat_k - P_N[f'(u) w_x]_hat_k.

``_mode_operator`` owns kappa_k, symbol(kappa_k) and Lambda_k on a model's
stored modes; every reader of the operator (here, the energy, the
Petviashvili iteration) takes them from it.
Multipliers and flux closures use the folded half layout k = 0..N that
``SpectralField`` stores; only the full-range ``nonlinear_term`` converts.
The flux closures take and return (B, N+1) stacks of rows, as the stepper
carries them: row i is the bandwidth-n_i system posed at the stack's
largest bandwidth N, with its flux masked to |k| <= n_i.  The padded grid
of N is alias-free for every n_i <= N, so each row is the same Galerkin
system as a run at its own bandwidth, up to rounding.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ParameterError
from .model import ModelParams, check_domain_scale, symbol_l
from .spectral import (
    SpectralField,
    dealiased_grid,
    fold_half,
    next_fast_len,
    power_in_place,
    unfold_half,
)

# Re-exported: perfbench's tracer patches these names on this module.
from .spectral import analyze_coeffs, synth_values  # noqa: F401


_Modes = namedtuple("_Modes", "kappa symbol lam")


@lru_cache(maxsize=16)
def _mode_operator(params: ModelParams, n_modes: int) -> _Modes:
    """Read-only kappa_k = k/L, symbol(kappa_k) and Lambda_k for the stored
    modes k = 0..N of a model, evaluated once per model and bandwidth."""
    kappa = np.arange(n_modes + 1) / params.domain_scale
    symbol = symbol_l(params, kappa)
    modes = _Modes(kappa, symbol, 1j * kappa * symbol)
    for arr in modes:
        arr.setflags(write=False)
    return modes


def linear_multipliers(params: ModelParams, n_modes: int) -> np.ndarray:
    """Read-only Lambda_k = i*kappa_k*symbol(kappa_k) for k = 0..N, purely
    imaginary with Lambda_0 = 0.  They commute with the sign fold, so they
    act on the folded half layout as they stand.  ``symbol_l`` refuses a
    Lambda_k outside the floating-point range, so every one here is finite."""
    return _mode_operator(params, n_modes).lam


def _transform_scale(m: int, power: int) -> float:
    """M^power, the scale of ``power`` unnormalized transforms on M points."""
    try:
        return float(m) ** power
    except OverflowError:
        raise ParameterError(
            f"the padded grid size {m} to the power {power} leaves the "
            "floating-point range: model.q is too large"
        ) from None


def _row_mask(bandwidths, n_modes: int) -> np.ndarray:
    """(B, n_modes + 1) booleans, row i true at k <= bandwidths[i]."""
    return np.arange(n_modes + 1) <= np.asarray(bandwidths)[:, None]


def folded_nonlinear_term(
    params: ModelParams, bandwidths
) -> Callable[[np.ndarray], np.ndarray]:
    """Closure for the flux term -i*kappa*P_N[f(u)]_hat of a stack of rows
    in the folded half layout (see ``spectral``): one irfft, the power (by
    repeated multiplication, ``spectral.power_in_place``), one rfft, along
    the last axis.

    Row i is the bandwidth-``bandwidths[i]`` system posed at the largest
    bandwidth N: it takes and returns (B, N+1) stacks, and its flux is zero
    above its own bandwidth, so a row that starts there at zero stays zero.
    The padded grid M of N is alias-free for every smaller bandwidth too.
    M and one factor per row merging -i*kappa/p, the M^(p-1) of the
    unnormalized transforms and the row's mask are precomputed; mode 0 gets
    factor 0, so its flux is exactly zero.  This is the integrator's inner
    loop.
    """
    p = params.q + 1
    n_modes = max(bandwidths)
    m = dealiased_grid(n_modes, p)
    scale = _transform_scale(m, p - 1) / p
    factor = -1j * _mode_operator(params, n_modes).kappa * scale
    factor = np.where(_row_mask(bandwidths, n_modes), factor, 0)

    def term(half: np.ndarray) -> np.ndarray:
        vals = power_in_place(np.fft.irfft(half, n=m), p)
        return factor * np.fft.rfft(vals)[:, : n_modes + 1]

    return term


def nonlinear_term(
    params: ModelParams, n_modes: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Full-range closure for the flux term -i*kappa*P_N[f(u)]_hat."""
    term = folded_nonlinear_term(params, [n_modes])
    return lambda coeffs: unfold_half(term(fold_half(coeffs, n_modes)[None])[0])


def rhs(params: ModelParams, u: SpectralField) -> SpectralField:
    """Time derivative of the coefficient vector for the full nonlinear system,
    from the multipliers and flux kernel that ``evolve`` steps with.

    The k = 0 component vanishes identically (factor i*kappa at kappa = 0),
    which is the discrete mechanism behind mass conservation.  A u off the
    model's domain scale is a ShapeError.
    """
    check_domain_scale(params, u.domain_scale, "field")
    flux = folded_nonlinear_term(params, [u.n_modes])(u.half[None])[0]
    return u.with_half(linear_multipliers(params, u.n_modes) * u.half + flux)


def frozen_nonlinear_term(
    params: ModelParams, n_w, n_u, frozen: Callable[[float], np.ndarray]
) -> Callable[[np.ndarray, float], np.ndarray]:
    """Closure ``term(w_rows, t)`` for -P_N[f'(u(t)) w_x]_hat of a stack of
    rows in the folded half layout, the ``nonlinear(c, t)`` hook of
    ``timestep.evolve_rows``.

    Row i holds a w of bandwidth ``n_w[i]`` frozen at u(t) projected to
    bandwidth ``n_u[i]``; w and the output are (B, max(n_w) + 1) stacks,
    and ``frozen(t)`` gives u(t) at bandwidth max(n_u).  u may carry a
    larger bandwidth than w (the linearized study freezes a finer reference
    solution).  The pointwise product of f'(u) = u^q (bandwidth q*n_u) with
    w_x (bandwidth n_w) is formed on a grid wide enough that its truncation
    to |k| <= n_w is alias-free for the largest bandwidths, and so for
    every row.  The factor on w merges i*kappa, the sign and the M^q of the
    unnormalized transforms; the output is masked to each row's bandwidth,
    so a zero row stays zero.

    The closure keeps the grid values of every row's u^q for the last t it
    was given, so ``frozen`` is called, and u^q synthesised (one batched
    transform), once per distinct time: the stepper's two midpoint stages
    share a time, and its final stage runs at the next step's exact start
    time.  The output is bit-identical to recomputing u^q on every call.
    """
    q = params.q
    w_top, u_top = max(n_w), max(n_u)
    m = next_fast_len(max(q * u_top + 2 * w_top, 2 * u_top, 2 * w_top) + 1)
    w_factor = -1j * _mode_operator(params, w_top).kappa * _transform_scale(m, q)
    w_mask, u_mask = _row_mask(n_w, w_top), _row_mask(n_u, u_top)
    last_t, power = None, None  # the time of the last call and u^q on the grid there

    def term(w_rows: np.ndarray, t: float) -> np.ndarray:
        nonlocal last_t, power
        if t != last_t:
            power = power_in_place(np.fft.irfft(np.where(u_mask, frozen(t), 0), n=m), q)
            last_t = t
        vals = np.fft.irfft(w_factor * w_rows, n=m)
        vals *= power
        return np.where(w_mask, np.fft.rfft(vals)[:, : w_top + 1], 0)

    return term
