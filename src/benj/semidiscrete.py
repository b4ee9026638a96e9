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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .model import ModelParams, symbol_l
from .spectral import SpectralField, fold_half, next_fast_len, unfold_half

# Re-exported: perfbench's tracer patches these names on this module.
from .spectral import analyze_coeffs, synth_values  # noqa: F401


@dataclass(frozen=True)
class LinearMultipliers:
    """Per-mode dispersive factors Lambda_k = i*kappa_k*symbol(kappa_k)."""

    n_modes: int
    lam: np.ndarray  # complex128, purely imaginary, Lambda_0 = 0; k = -N..N, or k = 0..N

    def __post_init__(self):
        self.lam.setflags(write=False)


def linear_multipliers(params: ModelParams, n_modes: int) -> LinearMultipliers:
    kappa = np.arange(-n_modes, n_modes + 1) / params.domain_scale
    lam = 1j * kappa * symbol_l(params, kappa)
    return LinearMultipliers(n_modes, lam)


def _transform_scale(m: int, power: int) -> float:
    """M^power, the scale of ``power`` unnormalized transforms on M points."""
    try:
        return float(m) ** power
    except OverflowError:
        raise ParameterError(
            f"the padded grid size {m} to the power {power} leaves the "
            "floating-point range: model.q is too large"
        ) from None


def folded_nonlinear_term(
    params: ModelParams, n_modes: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Closure for the flux term -i*kappa*P_N[f(u)]_hat in the folded half
    layout (see ``spectral``): one irfft, the power, one rfft.

    The padded grid M and one factor merging -i*kappa/p with the M^(p-1)
    of the unnormalized transforms are precomputed; mode 0 gets factor 0,
    so its flux is exactly zero.  This is the integrator's inner loop.
    """
    p = params.q + 1
    m = next_fast_len((p + 1) * n_modes + 1)
    scale = _transform_scale(m, p - 1) / p
    factor = -1j * np.arange(n_modes + 1) / params.domain_scale * scale

    def term(half: np.ndarray) -> np.ndarray:
        vals = np.fft.irfft(half, n=m)
        vals **= p
        return factor * np.fft.rfft(vals)[: n_modes + 1]

    return term


def nonlinear_term(
    params: ModelParams, n_modes: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Full-range closure for the flux term -i*kappa*P_N[f(u)]_hat."""
    term = folded_nonlinear_term(params, n_modes)
    return lambda coeffs: unfold_half(term(fold_half(coeffs, n_modes)))


def rhs(params: ModelParams, u: SpectralField) -> SpectralField:
    """Time derivative of the coefficient vector for the full nonlinear system.

    The k = 0 component vanishes identically (factor i*kappa at kappa = 0),
    which is the discrete mechanism behind mass conservation.
    """
    mult = linear_multipliers(params, u.n_modes)
    nl = nonlinear_term(params, u.n_modes)
    return u.with_coeffs(mult.lam * u.coeffs + nl(u.coeffs))


def frozen_nonlinear_term(
    params: ModelParams, n_w: int, n_u: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Closure for -P_N[f'(u_frozen) w_x]_hat in the folded half layout.

    Takes ``u_frozen`` (length n_u + 1) and w (length n_w + 1) and returns
    length n_w + 1.  ``u_frozen`` may carry a larger bandwidth than w (the
    linearized study freezes a finer reference solution).  The pointwise
    product of f'(u) = u^q (bandwidth q*n_u) with w_x (bandwidth n_w) is
    formed on a grid wide enough that its truncation to |k| <= n_w is
    alias-free.  The factor on w merges i*kappa, the sign and the M^q of
    the unnormalized transforms.

    The closure keeps the grid values of u^q for the last two distinct
    ``u_frozen`` it was given (matched by exact bytes, so a caller may
    reuse or mutate its arrays): a stepper that asks for the same frozen
    state at both stage midpoints and at the end of one step and the start
    of the next synthesises u^q once per distinct time.  The output is
    bit-identical to recomputing u^q on every call.
    """
    q = params.q
    m = next_fast_len(max(q * n_u + 2 * n_w, 2 * n_u, 2 * n_w) + 1)
    w_factor = -1j * np.arange(n_w + 1) / params.domain_scale * _transform_scale(m, q)
    memo = []  # up to two (key of u_half, u^q grid values), oldest first

    def frozen_power(u_half: np.ndarray) -> np.ndarray:
        key = (u_half.dtype, u_half.shape, u_half.tobytes())
        for cached_key, values in reversed(memo):  # newest first
            if cached_key == key:
                return values
        values = np.fft.irfft(u_half, n=m)
        values **= q
        if len(memo) == 2:
            del memo[0]
        memo.append((key, values))
        return values

    def term(u_half: np.ndarray, w_half: np.ndarray) -> np.ndarray:
        vals = np.fft.irfft(w_factor * w_half, n=m)
        vals *= frozen_power(u_half)
        return np.fft.rfft(vals)[: n_w + 1]

    return term
