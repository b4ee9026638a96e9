"""Initial-condition generators.

Profiles are sampled on a 4N-point grid together with their nearest
periodic images and then truncated to bandwidth N, so for well-localized
data the result is the projection of the periodized profile to rounding
accuracy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IterationError, ParameterError, ShapeError, SpectrumError
from .model import ModelParams, symbol_l
from .spectral import (
    SpectralField,
    analyze_coeffs,
    hermitian_part,
    next_fast_len,
    peak_position,
    project,
    sobolev_norm,
    synth_values,
    translate,
)

_IMAGES = 2  # periodic images summed on each side of a profile
KINDS = ("gaussian", "cosine", "kdv_soliton", "random_sobolev", "petviashvili_wave", "file")


@dataclass(frozen=True)
class InitialDataSpec:
    """Declarative description of an initial condition."""

    kind: str
    amplitude: float = 1.0
    width: float = 0.5
    center: float = 0.0
    speed: float = 0.5
    regularity: float = 4.0
    seed: int = 0
    path: Optional[str] = None
    tol: float = 1e-10
    max_iter: int = 500

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown initial-data kind {self.kind!r}; choose from {KINDS}")


def _sech(z):
    """Numerically safe 1/cosh, no overflow for large |z|."""
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def _project_profile(
    func: Callable[[np.ndarray], np.ndarray],
    n_modes: int,
    domain_scale: float,
) -> SpectralField:
    """Truncate the periodization of a decaying profile to bandwidth N."""
    m = 4 * n_modes
    half = domain_scale * np.pi
    x = -half + 2.0 * half * np.arange(m) / m
    vals = np.zeros(m)
    for n in range(-_IMAGES, _IMAGES + 1):
        vals += func(x + 2.0 * half * n)
    return SpectralField(n_modes, domain_scale, analyze_coeffs(vals, n_modes))


def gaussian(
    amplitude: float, width: float, center: float, n_modes: int, domain_scale: float
) -> SpectralField:
    """Projection of the periodized bump a*exp(-((x-x0)/w)^2)."""
    if width <= 0:
        raise ParameterError(f"width must be > 0, got {width}")
    z = domain_scale * np.pi / width
    tail = abs(amplitude) * np.exp(-(z * z))  # z * z saturates at inf where z**2 raises
    if tail > 1e-12:
        warnings.warn(
            f"gaussian tail {tail:.2e} at the domain edge exceeds 1e-12; "
            "periodization will be visible",
            stacklevel=2,
        )
    return _project_profile(
        lambda x: amplitude * np.exp(-(((x - center) / width) ** 2)),
        n_modes,
        domain_scale,
    )


def cosine(amplitude: float, center: float, n_modes: int, domain_scale: float) -> SpectralField:
    """Single fundamental mode a*cos((x - x0)/L)."""
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    phase = np.exp(-1j * center / domain_scale)
    c[n_modes + 1] = 0.5 * amplitude * phase
    c[n_modes - 1] = np.conj(c[n_modes + 1])
    return SpectralField(n_modes, domain_scale, c)


def kdv_soliton(
    speed: float, center: float, params: ModelParams, n_modes: int
) -> SpectralField:
    """Traveling-wave profile 3c*sech((1/2)sqrt(c/delta)(x-x0))^2.

    Exact for the gamma = 0, m = 1, q = 1 reduction; validated against the
    equation itself by the residual check in the test suite.
    """
    if params.gamma != 0.0 or params.m != 1 or params.q != 1:
        raise ParameterError(
            "closed-form soliton requires gamma = 0, m = 1, q = 1; got "
            f"gamma={params.gamma}, m={params.m}, q={params.q}"
        )
    if speed <= 0:
        raise ParameterError(f"speed must be > 0, got {speed}")
    L = params.domain_scale
    b = 0.5 * np.sqrt(speed / params.delta)
    tail = 3.0 * speed * _sech(b * L * np.pi) ** 2
    if tail > 1e-10:
        warnings.warn(
            f"soliton tail {tail:.2e} at the domain edge exceeds 1e-10; "
            "enlarge the domain or reduce the speed for clean propagation",
            stacklevel=2,
        )
    return _project_profile(
        lambda x: 3.0 * speed * _sech(b * (x - center)) ** 2, n_modes, L
    )


def random_sobolev(mu: float, seed: int, n_modes: int, domain_scale: float) -> SpectralField:
    """Seeded random field normalized to unit norm of order mu.

    Mode k carries magnitude (1+kappa_k^2)^(-(mu+1)/2) with a random phase.
    As N grows the field lies in H^s for every s < mu + 1/2 and in none
    above, and the L2 tail beyond bandwidth N decays like N^(-(mu+1/2)):
    that exponent, not mu itself, is the convergence rate the data allow.
    The mean is zeroed.
    """
    if mu < 0:
        raise ParameterError(f"mu must be >= 0, got {mu}")
    rng = np.random.default_rng(seed)
    k = np.arange(1, n_modes + 1)
    kappa = k / domain_scale
    mags = (1.0 + kappa**2) ** (-(mu + 1.0) / 2.0)
    phases = np.exp(2j * np.pi * rng.random(n_modes))
    c = np.zeros(2 * n_modes + 1, dtype=np.complex128)
    c[n_modes + 1 :] = mags * phases
    c[:n_modes] = np.conj(c[:n_modes:-1])
    out = SpectralField(n_modes, domain_scale, c)
    return out.with_coeffs(out.coeffs / sobolev_norm(out, mu))


@dataclass
class PetviashviliReport:
    converged: bool
    iterations: int
    residuals: list
    stabilizers: list

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else np.inf


def petviashvili(
    params: ModelParams,
    speed: float,
    guess: SpectralField,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> tuple[SpectralField, PetviashviliReport]:
    """Solve the traveling-wave equation (c + L)phi = f(phi) by stabilized
    fixed-point iteration.

    Each sweep applies phi <- s^theta * (c+L)^(-1) f(phi) with the
    normalization s = <(c+L)phi, phi>/<f(phi), phi> and theta = (q+1)/q,
    the exponent with the fastest linear contraction for a degree-(q+1)
    power nonlinearity.  Iteration stops when the relative residual
    ||(c+L)phi - f(phi)||/||phi|| falls below tol; the converged profile is
    recentered so its peak sits at x = 0.
    """
    if guess.domain_scale != params.domain_scale:
        raise ShapeError(
            f"guess domain scale {guess.domain_scale} does not match model "
            f"domain scale {params.domain_scale}"
        )
    n = guess.n_modes
    kappa = np.arange(-n, n + 1) / params.domain_scale
    denom = speed + symbol_l(params, kappa)
    if np.min(denom) <= 0.0:
        k_bad = int(np.argmin(denom)) - n
        raise SpectrumError(
            f"c + symbol(kappa) must be positive on every mode; "
            f"mode k={k_bad} gives {np.min(denom):.6g}",
            mode=k_bad,
        )
    if not np.any(guess.coeffs):
        raise ParameterError("guess must be a nonzero field")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")

    p = params.q + 1
    m = next_fast_len((p + 1) * n + 1)
    theta = (params.q + 1) / params.q
    c = guess.coeffs.copy()
    residuals, stabilizers = [], []

    for it in range(1, max_iter + 1):
        fhat = analyze_coeffs(synth_values(c, n, m) ** p, n) / p
        mismatch = denom * c - fhat
        res = float(np.sqrt(np.sum(np.abs(mismatch) ** 2) / np.sum(np.abs(c) ** 2)))
        residuals.append(res)
        if res <= tol:
            field = SpectralField(n, params.domain_scale, c)
            field = translate(field, -peak_position(field))
            return field, PetviashviliReport(True, it - 1, residuals, stabilizers)
        num = float(np.sum(denom * np.abs(c) ** 2))
        den = float(np.sum(fhat * np.conj(c)).real)
        if den <= 0.0 or num <= 0.0:
            raise IterationError(
                f"stabilizer degenerated (num={num:.3g}, den={den:.3g}) at sweep {it}",
                residuals=residuals,
            )
        s = num / den
        stabilizers.append(s)
        try:
            c = hermitian_part(s**theta * fhat / denom)
        except OverflowError:
            raise IterationError(
                f"stabilizer {s:.3g} overflows at sweep {it}", residuals=residuals
            ) from None

    raise IterationError(
        f"no convergence to tol={tol:g} after {max_iter} sweeps "
        f"(last residual {residuals[-1]:.3g})",
        residuals=residuals,
    )


def build_field(spec: InitialDataSpec, params: ModelParams, n_modes: int) -> SpectralField:
    """Instantiate a spec at the requested bandwidth."""
    L = params.domain_scale
    if spec.kind == "gaussian":
        return gaussian(spec.amplitude, spec.width, spec.center, n_modes, L)
    if spec.kind == "cosine":
        return cosine(spec.amplitude, spec.center, n_modes, L)
    if spec.kind == "kdv_soliton":
        return kdv_soliton(spec.speed, spec.center, params, n_modes)
    if spec.kind == "random_sobolev":
        return random_sobolev(spec.regularity, spec.seed, n_modes, L)
    if spec.kind == "petviashvili_wave":
        guess = gaussian(spec.amplitude, spec.width, spec.center, n_modes, L)
        wave, _ = petviashvili(params, spec.speed, guess, spec.tol, spec.max_iter)
        return wave
    if spec.kind == "file":
        from .snapshots import read_snapshot

        if spec.path is None:
            raise ParameterError("file kind requires a path")
        loaded, _ = read_snapshot(spec.path)
        if loaded.domain_scale != L:
            raise ShapeError(
                f"snapshot domain scale {loaded.domain_scale} does not match "
                f"model domain scale {L}"
            )
        if loaded.n_modes < n_modes:
            raise ShapeError(
                f"snapshot bandwidth {loaded.n_modes} is below the requested {n_modes}"
            )
        return project(loaded, n_modes)
    raise ParameterError(f"unknown kind {spec.kind!r}")
