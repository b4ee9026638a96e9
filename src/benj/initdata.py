"""Initial-condition generators.

Profiles are sampled on a 4N-point grid together with their nearest
periodic images and then truncated to bandwidth N, so for well-localized
data the result is the projection of the periodized profile to rounding
accuracy.  Every maker refuses a bandwidth N < 1 or an L outside (0, inf)
with spectral's one size check before it samples, allocates or divides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IterationError, ParameterError, SpectrumError
from .model import ModelParams, check_domain_scale
from .semidiscrete import _mode_operator
from .snapshots import read_snapshot
from .spectral import (SpectralField, _check_sizes, dealiased_power, mode_sum, peak_position,
                       project, sobolev_norm, translate)

_IMAGES = 2  # periodic images summed on each side of a profile
KINDS = ("gaussian", "cosine", "kdv_soliton", "random_sobolev", "petviashvili_wave", "file")

# numpy's SeedSequence (a pool of 4 words, shift 16) and PCG64 constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


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
    return SpectralField.from_half(np.fft.rfft(vals)[: n_modes + 1] / m, domain_scale)


def gaussian(
    amplitude: float, width: float, center: float, n_modes: int, domain_scale: float
) -> SpectralField:
    """Projection of the periodized bump a*exp(-((x-x0)/w)^2)."""
    _check_sizes(n_modes, domain_scale)
    if not width > 0:
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
    _check_sizes(n_modes, domain_scale)
    half = np.zeros(n_modes + 1, dtype=np.complex128)
    half[1] = -0.5 * amplitude * np.exp(-1j * center / domain_scale)  # folded: (-1)^1 u_hat_1
    return SpectralField.from_half(half, domain_scale)


def kdv_soliton(
    speed: float, center: float, params: ModelParams, n_modes: int
) -> SpectralField:
    """Traveling-wave profile 3c*sech((1/2)sqrt(c/delta)(x-x0))^2.

    Exact for the gamma = 0, m = 1, q = 1 reduction; validated against the
    equation itself by the residual check in the test suite.
    """
    _check_sizes(n_modes, params.domain_scale)
    if params.gamma != 0.0 or params.m != 1 or params.q != 1:
        raise ParameterError(
            "closed-form soliton requires gamma = 0, m = 1, q = 1; got "
            f"gamma={params.gamma}, m={params.m}, q={params.q}"
        )
    if not speed > 0:
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


def _uniforms(seed: int, n: int) -> list:
    """numpy's ``default_rng(seed).random(n)``, bit for bit, as a list, for
    an int seed >= 0.

    SeedSequence hashes the seed's 32-bit words into a pool of 4 and draws
    four 64-bit words from it; PCG64 takes its state from the first two and
    its increment from the last two, and each output is the XSL-RR 128/64
    permutation of the stepped state; a double is its top 53 bits * 2^-53.
    """
    words = [seed & _M32]
    while seed := seed >> 32:
        words.append(seed & _M32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const := hash_const * _MULT_A & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    hash_const, half_words = _INIT_B, []
    for i in range(8):
        v = (pool[i % 4] ^ hash_const) * (hash_const := hash_const * _MULT_B & _M32) & _M32
        half_words.append(v ^ v >> 16)
    w0, w1, w2, w3 = (half_words[j] | half_words[j + 1] << 32 for j in range(0, 8, 2))
    inc = (w2 << 65 | w3 << 1 | 1) & _M128
    state = ((w0 << 64 | w1) + inc) * _PCG_MULT + inc & _M128
    out = []
    for _ in range(n):
        state = state * _PCG_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << 64 - rot) & _M64
        out.append((x >> 11) * 2.0**-53)
    return out


def random_sobolev(mu: float, seed: int, n_modes: int, domain_scale: float) -> SpectralField:
    """Seeded random field normalized to unit norm of order mu.

    Mode k carries magnitude (1+kappa_k^2)^(-(mu+1)/2) with a random phase.
    As N grows the field lies in H^s for every s < mu + 1/2 and in none
    above, and the L2 tail beyond bandwidth N decays like N^(-(mu+1/2)):
    that exponent, not mu itself, is the convergence rate the data allow.
    The mean is zeroed.  The phases are benj's own draw of numpy's
    ``default_rng(seed).random(N)``, the same on every numpy version.
    """
    _check_sizes(n_modes, domain_scale)
    if not mu >= 0:
        raise ParameterError(f"mu must be >= 0, got {mu}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    k = np.arange(1, n_modes + 1)
    kappa = k / domain_scale
    mags = (1.0 + kappa**2) ** (-(mu + 1.0) / 2.0)
    phases = np.exp(2j * np.pi * np.array(_uniforms(int(seed), n_modes)))
    half = np.zeros(n_modes + 1, dtype=np.complex128)
    half[1:] = mags * phases
    half[1::2] = -half[1::2]  # folded: (-1)^k u_hat_k
    out = SpectralField.from_half(half, domain_scale)
    return out.with_half(out.half / sobolev_norm(out, mu))


@dataclass
class PetviashviliReport:
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
    check_domain_scale(params, guess.domain_scale, "guess")
    denom = speed + _mode_operator(params, guess.n_modes).symbol
    if np.min(denom) <= 0.0:
        k_bad = int(np.argmin(denom))
        raise SpectrumError(
            f"c + symbol(kappa) must be positive on every mode; "
            f"mode k={k_bad} gives {np.min(denom):.6g}",
            mode=k_bad,
        )
    if not np.any(guess.half):
        raise ParameterError("guess must be a nonzero field")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")

    p = params.q + 1
    theta = (params.q + 1) / params.q
    field = guess
    residuals, stabilizers = [], []

    for it in range(1, max_iter + 1):
        h = field.half
        fhat = dealiased_power(field, p).half / p
        res = float(np.sqrt(mode_sum(denom * h - fhat) / mode_sum(h)))
        residuals.append(res)
        if res <= tol:
            field = translate(field, -peak_position(field))
            return field, PetviashviliReport(it - 1, residuals, stabilizers)
        num = float(mode_sum(h, denom))
        den = float(mode_sum(fhat, other=h))
        if not (den > 0.0 and num > 0.0):  # NaN included
            raise IterationError(
                f"stabilizer degenerated (num={num:.3g}, den={den:.3g}) at sweep {it}",
                residuals=residuals,
            )
        s = num / den
        stabilizers.append(s)
        try:
            field = field.with_half(s**theta * fhat / denom)
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
    # "file", the last of KINDS: ``InitialDataSpec`` refuses any other kind
    if spec.path is None:
        raise ParameterError("file kind requires a path")
    loaded, _ = read_snapshot(spec.path)
    check_domain_scale(params, loaded.domain_scale, "snapshot")
    return project(loaded, n_modes)  # a BandwidthError above the snapshot's bandwidth
