"""Equation family definition.

The equations solved here have the form

    u_t - L u_x + f(u)_x = 0

on a periodic interval [-L*pi, L*pi], where L is a Fourier multiplier
operator acting mode-wise as ``symbol(kappa) * u_hat(kappa)`` with the
two-power symbol

    symbol(kappa) = delta*|kappa|^(2m) - gamma*|kappa|^(2r),

and the nonlinearity is the power law f(u) = u^(q+1)/(q+1).  The instance
(m=1, r=1/2) is the Benjamin family; gamma=0 gives generalized KdV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class ModelParams:
    """Parameters (m, r, gamma, delta, q) of one equation instance.

    ``domain_scale`` stretches the spatial interval to [-L*pi, L*pi]; the
    physical wavenumber of integer mode k is then k/L.  L = 1 recovers the
    standard interval [-pi, pi].  Each range check is written so that NaN
    fails it; gamma, delta and L must also be finite.
    """

    m: int
    r: float
    gamma: float
    delta: float
    q: int
    domain_scale: float = 1.0

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise ParameterError(f"m must be an integer >= 1, got {self.m!r}")
        if not 0.0 <= self.r < self.m:
            raise ParameterError(f"r must satisfy 0 <= r < m, got r={self.r!r} with m={self.m}")
        if not 0.0 <= self.gamma < np.inf:
            raise ParameterError(f"gamma must satisfy 0 <= gamma < inf, got {self.gamma!r}")
        if not 0.0 < self.delta < np.inf:
            raise ParameterError(f"delta must satisfy 0 < delta < inf, got {self.delta!r}")
        if not isinstance(self.q, (int, np.integer)) or self.q < 1:
            raise ParameterError(f"q must be an integer >= 1, got {self.q!r}")
        if not 0.0 < self.domain_scale < np.inf:
            raise ParameterError(
                f"domain_scale must satisfy 0 < L < inf, got {self.domain_scale!r}")


def symbol_l(params: ModelParams, kappa):
    """Dispersive symbol delta*|kappa|^(2m) - gamma*|kappa|^(2r).

    Accepts scalars or arrays.  Even in kappa.  For r = 0 the convention
    |0|^0 := 1 applies, so the gamma term is a bounded perturbation; for
    r > 0 both powers vanish at kappa = 0.
    """
    ak = np.abs(kappa)
    high = params.delta * ak ** (2 * params.m)
    if params.r == 0.0:
        low = params.gamma * np.ones_like(high)
    else:
        # 0.0**positive == 0.0, and positive bases take the real power branch.
        low = params.gamma * ak ** (2.0 * params.r)
    out = high - low
    return float(out) if np.isscalar(kappa) else out
