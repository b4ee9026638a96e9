"""Conserved functionals and drift monitoring.

Along semidiscrete trajectories the mass, the squared L2 norm, and the
energy

    C(u) = integral u dx
    I(u) = integral u^2 dx
    E(u) = integral (u*Lu - 2*F(u)) dx,   F(u) = u^(q+2)/((q+1)(q+2)),

are exactly constant, so any drift measured on a computed run is a pure
time-integration artifact.  All three are evaluated spectrally: the
nonlinear part of E is the zero mode of the power u^(q+2), read as its
mean on the ``dealiased_grid``, where the integral of that trigonometric
polynomial is exact, so the evaluation itself adds no aliasing error.  The
power is formed by repeated multiplication (``spectral.power_in_place``),
and no analysis transform or intermediate field is built.  The symbol on
the modes comes from its one owner, ``semidiscrete._mode_operator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, check_domain_scale
from .semidiscrete import _mode_operator
from .spectral import SpectralField, dealiased_grid, half_values, mode_sum, power_in_place

DRIFT_FLOOR = 1e-30  # C and E can legitimately be zero for symmetric data


def c_pi(u: SpectralField) -> float:
    """Mass: 2*L*pi times the zero mode."""
    return 2.0 * u.domain_scale * np.pi * float(u.half[0].real)


def i_pi(u: SpectralField) -> float:
    """Squared L2 norm, 2*L*pi * sum |u_hat_k|^2."""
    return 2.0 * u.domain_scale * np.pi * float(mode_sum(u.half))


def e_pi(u: SpectralField, params: ModelParams) -> float:
    """Energy: the dispersive quadratic part minus twice the integral of F.

    The mean of F is the grid mean of u^(q+2) on its ``dealiased_grid``,
    whose M > (q+3)N points integrate that bandwidth-(q+2)N trigonometric
    polynomial exactly.  A u off the model's domain scale is a ShapeError.
    """
    check_domain_scale(params, u.domain_scale, "field")
    two_pi_l = 2.0 * u.domain_scale * np.pi
    quad = float(mode_sum(u.half, _mode_operator(params, u.n_modes).symbol))
    p = params.q + 2
    vals = half_values(u.half, dealiased_grid(u.n_modes, p))
    f_mean = float(np.mean(power_in_place(vals, p))) / ((params.q + 1) * (params.q + 2))
    return two_pi_l * (quad - 2.0 * f_mean)


@dataclass(frozen=True)
class InvariantRecord:
    """Time series of the three functionals and their worst relative drifts."""

    times: np.ndarray
    C: np.ndarray
    I: np.ndarray
    E: np.ndarray
    rel_drift_C: float
    rel_drift_I: float
    rel_drift_E: float


def _rel_drift(series: np.ndarray) -> float:
    return float(np.max(np.abs(series - series[0])) / max(abs(series[0]), DRIFT_FLOOR))


def invariant_row(t: float, u: SpectralField, params: ModelParams) -> tuple:
    """(t, C, I, E) of one snapshot, the row ``record_rows`` takes."""
    return t, c_pi(u), i_pi(u), e_pi(u, params)


def record_rows(rows) -> InvariantRecord:
    """The record of (t, C, I, E) rows (``invariant_row``) sorted by t,
    rows at equal times in the order given; the drifts are measured from
    the earliest."""
    rows = sorted(rows, key=lambda row: row[0])
    if not rows:
        raise ValueError("need at least one snapshot")
    times, c, i, e = (np.array(column) for column in zip(*rows))
    return InvariantRecord(
        times=times,
        C=c,
        I=i,
        E=e,
        rel_drift_C=_rel_drift(c),
        rel_drift_I=_rel_drift(i),
        rel_drift_E=_rel_drift(e),
    )


def record_invariants(snapshots, params: ModelParams) -> InvariantRecord:
    """Evaluate all three functionals on (t, field) snapshots, in time
    order.  The snapshots are taken one at a time and only their rows are
    kept, so an iterator that builds each field (say, by reading a file)
    holds one field at a time."""
    return record_rows(invariant_row(t, f, params) for t, f in snapshots)
